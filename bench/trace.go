package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory while a traced run measures, and writes them
// as NDJSON once it ends. Spans are recorded by the benchmark around its
// calls into each layer's public functions; nothing inside the program is
// instrumented.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one op share Op; Parent is the ID of the
// span that made the call (0 for an op's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the traced run began.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a span that has started and not yet ended.
type spanRef struct {
	id    int64
	start time.Time
}

// begin starts a span.
func (t *tracer) begin() spanRef {
	return spanRef{id: t.nextID.Add(1), start: time.Now()}
}

// end records the span and returns its interval.
func (t *tracer) end(s spanRef, name string, op int, parent int64) interval {
	iv := interval{s.start, time.Now()}
	t.record(s.id, name, op, parent, iv)
	return iv
}

// record stores a span whose times were measured elsewhere (server-side
// event stamps, for one). id 0 allocates a fresh one.
func (t *tracer) record(id int64, name string, op int, parent int64, iv interval) int64 {
	if id == 0 {
		id = t.nextID.Add(1)
	}
	sp := span{ID: id, Parent: parent, Op: op, Name: name,
		StartUS: us(iv.start.Sub(t.t0)), EndUS: us(iv.end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return id
}

// write stores the machine stamp and then every span, one JSON object per
// line.
func (t *tracer) write(path string, stamp map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(stamp); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
