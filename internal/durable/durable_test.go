package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWriteDurableRoundTrip pins the atomic-replace contract every spool
// format rests on: first write and overwrite both land whole, and no temp
// file is left behind.
func TestWriteDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	if err := Replace(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if string(mustRead(t, path)) != "hello" {
		t.Fatal("durable write lost bytes")
	}
	if err := Replace(path, []byte("goodbye")); err != nil {
		t.Fatal(err)
	}
	if string(mustRead(t, path)) != "goodbye" {
		t.Fatal("durable overwrite lost bytes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two replaces, want 1", len(entries))
	}
	if err := Replace(filepath.Join(dir, "no", "such", "x"), nil); err == nil {
		t.Fatal("replace into a missing directory succeeded")
	}
}

type testRecord struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// TestLogCrashStates enumerates every state an fsynced append can leave
// behind. A log of k complete records is followed by one in-flight
// record, cut at every byte (the write landed partially) and also padded
// with NULs to its full length (the size landed before the data). Every
// state must read back exactly the k completed records, torn exactly when
// the in-flight tail is non-empty.
func TestLogCrashStates(t *testing.T) {
	for k := 0; k <= 3; k++ {
		path := filepath.Join(t.TempDir(), "log")
		l, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for i := 0; i < k; i++ {
			rec := testRecord{N: i, S: strings.Repeat("x", i)}
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
			line, _ := json.Marshal(rec)
			want = append(want, string(line))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		base := mustRead(t, path)
		inflight, _ := json.Marshal(testRecord{N: k, S: "in flight"})
		inflight = append(inflight, '\n')

		check := func(desc string, data []byte, wantTorn bool) {
			t.Helper()
			lines, torn := Lines(data)
			if torn != wantTorn {
				t.Errorf("k=%d %s: torn=%v, want %v", k, desc, torn, wantTorn)
			}
			if len(lines) != len(want) {
				t.Fatalf("k=%d %s: %d lines, want %d", k, desc, len(lines), len(want))
			}
			for i := range lines {
				if string(lines[i]) != want[i] {
					t.Errorf("k=%d %s: line %d = %q, want %q", k, desc, i, lines[i], want[i])
				}
			}
		}
		for cut := 0; cut < len(inflight); cut++ {
			torn := append(append([]byte(nil), base...), inflight[:cut]...)
			check("cut "+string(inflight[:cut]), torn, cut > 0)
			padded := append(torn, make([]byte, len(inflight)-cut)...)
			check("NUL-padded cut "+string(inflight[:cut]), padded, true)
		}
		// The completed append is the one state that adds a record.
		lines, torn := Lines(append(base, inflight...))
		if torn || len(lines) != k+1 {
			t.Errorf("k=%d: completed append read as %d lines torn=%v", k, len(lines), torn)
		}
	}
}

// TestCreateDiscardsAndFences: Create replaces a torn file with exactly
// its records, and a writer still holding the previous file appends to an
// orphaned inode that never reaches the path.
func TestCreateDiscardsAndFences(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte(`{"n":9}`+"\n"+`{"n":`), 0o644); err != nil {
		t.Fatal(err)
	}
	zombie, err := Create(path, testRecord{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer zombie.Close()
	live, err := Create(path, testRecord{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := zombie.Append(testRecord{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := live.Append(testRecord{N: 4}); err != nil {
		t.Fatal(err)
	}
	want := `{"n":2,"s":""}` + "\n" + `{"n":4,"s":""}` + "\n"
	if got := string(mustRead(t, path)); got != want {
		t.Fatalf("log holds %q, want %q", got, want)
	}
}

// TestQuarantine: a bad file moves to the first free .quarantine-N and
// earlier evidence is never overwritten.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad")
	for i, body := range []string{"first", "second"} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Quarantine(path); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("round %d: quarantined file still at its path (stat err %v)", i, err)
		}
	}
	for i, body := range []string{"first", "second"} {
		q := fmt.Sprintf("%s.quarantine-%d", path, i)
		if got := string(mustRead(t, q)); got != body {
			t.Errorf("%s holds %q, want %q", q, got, body)
		}
	}
	// Nothing to quarantine is not an error.
	if err := Quarantine(path); err != nil {
		t.Fatalf("quarantining a missing file: %v", err)
	}
}

// FuzzLines checks the framing on arbitrary bytes: no panic, no newline
// inside a line, the lines are exactly the input's complete lines (joined
// they form a prefix of it, one per newline), and torn is set exactly
// when the input ends in a non-empty unterminated tail.
func FuzzLines(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"n":1}` + "\n" + `{"n":2}` + "\n"))
	f.Add([]byte(`{"n":1}` + "\n" + `{"n":`))
	f.Add([]byte(`{"n":1}` + "\n\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, torn := Lines(data)
		for i, l := range lines {
			if bytes.IndexByte(l, '\n') >= 0 {
				t.Fatalf("line %d contains a newline: %q", i, l)
			}
		}
		if n := bytes.Count(data, []byte{'\n'}); len(lines) != n {
			t.Fatalf("%d lines for %d newlines", len(lines), n)
		}
		if joined := bytes.Join(lines, []byte{'\n'}); !bytes.HasPrefix(data, joined) {
			t.Fatalf("joined lines %q are not a prefix of the input", joined)
		}
		if want := len(data) > 0 && data[len(data)-1] != '\n'; torn != want {
			t.Fatalf("torn=%v, want %v for %q", torn, want, data)
		}
	})
}
