package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestJournalRoundTrip(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{
		ID:      "job-1",
		State:   StateRunning,
		Spec:    json.RawMessage(`{"example": "canada2"}`),
		Start:   []int{3, 3},
		Created: time.Now().UTC(),
		Retries: []Retry{{Attempt: 1, Error: "boom", BackoffMS: 100}},
	}
	if err := j.Write(rec); err != nil {
		t.Fatal(err)
	}
	got, err := j.Load("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning || len(got.Start) != 2 || len(got.Retries) != 1 {
		t.Fatalf("loaded record mismatch: %+v", got)
	}
	if got.Updated.IsZero() {
		t.Fatal("Write did not stamp Updated")
	}
}

func TestJournalScanOrderAndBadRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().UTC()
	for i, id := range []string{"newer", "older"} {
		rec := &Record{ID: id, State: StateQueued, Spec: json.RawMessage(`{}`),
			Created: base.Add(time.Duration(1-i) * time.Minute)}
		if err := j.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A torn or corrupt record must be reported, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "corrupt.job"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A record whose body names another id is corrupt too.
	if err := os.WriteFile(filepath.Join(dir, "stray.job"), []byte(`{"id": "other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	records, bad, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].ID != "older" || records[1].ID != "newer" {
		t.Fatalf("scan order wrong: %+v", records)
	}
	if len(bad) != 2 {
		t.Fatalf("expected 2 bad records, got %v", bad)
	}
}

// TestJournalRetireCheckpoint: a job's checkpoint is one log file, so
// retiring it leaves the spool holding only the job's record.
func TestJournalRetireCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Write(&Record{ID: "job-1", State: StateDone, Spec: json.RawMessage(`{}`), Created: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(j.CheckpointPath("job-1"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j.RetireCheckpoint("job-1")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "job-1"+recordSuffix {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("spool holds %v after retirement, want only the record", names)
	}
}

// FuzzParseRecord checks the job-record decoder — what a restarted daemon
// reads back from its spool — never panics, accepts only a record naming
// its own id, and accepts the bytes it would write back for any record it
// accepted.
func FuzzParseRecord(f *testing.F) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	good, err := json.Marshal(&Record{
		ID: "job-1", State: StateDone, Spec: json.RawMessage(`{"example":"canada2"}`),
		Start: []int{3, 3}, Attempts: 2, Created: at, Updated: at,
		Retries: []Retry{{Attempt: 1, Error: "boom", BackoffMS: 100, At: at}},
		Result:  &JobResult{Windows: []int{3, 3}, Power: 1.5, Evaluations: 12},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add("job-1", good)
	f.Add("job-1", good[:len(good)/2]) // torn write
	f.Add("job-2", good)               // record names another id
	f.Add("x", []byte(`{"id":"x","state":"queued","spec":null}`))
	f.Add("x", []byte(`{"id":"x","created":"not a time"}`))
	f.Add("x", []byte(`null`))
	f.Add("", []byte(``))
	f.Fuzz(func(t *testing.T, id string, data []byte) {
		r, err := parseRecord(id, data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if r.ID != id {
			t.Fatalf("accepted record naming %q as job %q", r.ID, id)
		}
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted record does not marshal: %v", err)
		}
		back, err := parseRecord(id, out)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, out)
		}
		if back.State != r.State || back.Attempts != r.Attempts || len(back.Retries) != len(r.Retries) || (back.Result == nil) != (r.Result == nil) {
			t.Fatalf("round trip changed record: %+v vs %+v", back, r)
		}
	})
}
