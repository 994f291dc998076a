// Package durable is the one durable-file layer under every on-disk
// format in the repository: atomic whole-file replacement, an append-only
// log of fsynced JSON lines with its framing rule, and the rename-aside
// quarantine for files that fail to parse.
//
// Crash model. Replace publishes by temp write, fsync, rename and
// directory fsync, so a crash leaves the previous complete file or the
// new one. A Log append is one write followed by an fsync, and the next
// append starts only after it returns, so a crash can damage only the
// in-flight line: the file may end in any prefix of it, or in a prefix
// padded with zeros to the line's full length (the size persisted before
// the data). Neither state ends in the line's newline, so Lines — which
// drops exactly an unterminated final line — recovers every completed
// append and nothing else (Pillai et al., "All File Systems Are Not
// Created Equal", OSDI 2014).
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Replace publishes data at path atomically and durably: write to a temp
// file in the destination directory, fsync, rename, fsync the directory.
// A crash at any instant leaves either the previous complete file or the
// new one on disk — never a torn write. The temp file is named
// ".<base>.tmp-*", a dot-file that directory scans skip.
func Replace(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("durable: write: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("durable: sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("durable: close: %w", err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("durable: publish: %w", err)
	}
	// The rename is durable only once the directory entry is: without the
	// directory sync a crash immediately after the write can roll the file
	// back to the previous version — or, for a first write, to nothing.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("durable: sync directory: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making previously renamed or created entries
// in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Log is an append-only file of newline-terminated JSON records.
type Log struct{ f *os.File }

// Create publishes recs, one JSON line each, as the whole content of path
// with Replace — discarding whatever the file held, a torn tail included
// — and opens the file for appends. The rename is also a fence: a writer
// still holding the previous file open appends to an orphaned inode that
// no reader of path will ever see.
func Create(path string, recs ...any) (*Log, error) {
	var data []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("durable: marshal record: %w", err)
		}
		data = append(append(data, line...), '\n')
	}
	if err := Replace(path, data); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("durable: open log: %w", err)
	}
	return &Log{f: f}, nil
}

// Append writes v as one JSON line and fsyncs before returning, so every
// completed append survives a crash and only the in-flight line can be
// torn.
func (l *Log) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("durable: marshal record: %w", err)
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync log: %w", err)
	}
	return nil
}

// Close releases the log's file handle.
func (l *Log) Close() error { return l.f.Close() }

// Lines splits a log's bytes into its complete lines, without their
// newlines. An unterminated final line is the only possible crash damage
// (see the package comment); it is dropped and reported as torn. Every
// complete line is returned, blank or not: deciding what a line that
// does not decode means is the format's business.
func Lines(data []byte) (lines [][]byte, torn bool) {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return lines, true
		}
		lines = append(lines, data[:i:i])
		data = data[i+1:]
	}
	return lines, false
}

// Quarantine moves a file that failed to parse out of the way: renamed to
// the first free <path>.quarantine-N (N = 0, 1, …) and kept as evidence,
// or removed when the rename fails, so the same bad bytes are never read
// twice. It errors only when the file could be neither renamed nor
// removed.
func Quarantine(path string) error {
	var q string
	for n := 0; ; n++ {
		q = fmt.Sprintf("%s.quarantine-%d", path, n)
		if _, err := os.Lstat(q); err != nil {
			break
		}
	}
	if os.Rename(path, q) == nil {
		return nil
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("durable: quarantine %s: %w", path, err)
	}
	return nil
}
