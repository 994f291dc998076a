package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
)

const testWait = 90 * time.Second

func quietConfig(spool string) Config {
	return Config{Spool: spool, Logf: func(string, ...any) {}}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	return s
}

// do runs one request through the server's handler and decodes the JSON
// response body.
func do(t *testing.T, s *Server, method, path, body string) (int, map[string]any, *httptest.ResponseRecorder) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	var out map[string]any
	if w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code, out, w
}

func submitJob(t *testing.T, s *Server, spec string) (string, int, map[string]any) {
	t.Helper()
	code, out, _ := do(t, s, "POST", "/jobs", spec)
	id, _ := out["id"].(string)
	return id, code, out
}

// recordOf snapshots a job's record.
func recordOf(t *testing.T, s *Server, id string) Record {
	t.Helper()
	j := s.lookup(id)
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return *j.rec
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testWait)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, s *Server, id string) Record {
	t.Helper()
	// The closed event feed is the completion barrier: journal record,
	// checkpoint retirement and budget release are all visible by then.
	waitFor(t, "job "+id+" to finish", func() bool {
		j := s.lookup(id)
		if j == nil {
			return false
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.closed && j.rec.State.Terminal()
	})
	return recordOf(t, s, id)
}

func waitCommits(t *testing.T, s *Server, id string, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d commits on %s", n, id), func() bool {
		j := s.lookup(id)
		if j == nil {
			return false
		}
		evs, _, _ := j.eventsSince(0)
		commits := 0
		for _, ev := range evs {
			if ev.Type == "commit" {
				commits++
			}
		}
		return commits >= n
	})
}

func TestSubmitLifecycle(t *testing.T) {
	s := newTestServer(t, quietConfig(t.TempDir()))
	id, code, out := submitJob(t, s, `{"id": "lc", "example": "canada2"}`)
	if code != 202 || id != "lc" {
		t.Fatalf("submit: %d %v", code, out)
	}
	rec := waitTerminal(t, s, id)
	if rec.State != StateDone {
		t.Fatalf("job ended %s (%s)", rec.State, rec.Error)
	}
	if rec.Result == nil || len(rec.Result.Windows) != 2 || rec.Result.Power <= 0 {
		t.Fatalf("bad result: %+v", rec.Result)
	}
	if rec.Result.Evaluations <= 0 {
		t.Fatalf("no evaluations recorded: %+v", rec.Result)
	}
	assertNoParsed(t, s, id)

	// The record survives on disk with the result; the checkpoint is
	// retired.
	onDisk, err := s.journal.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateDone || onDisk.Result == nil {
		t.Fatalf("journal record not terminal: %+v", onDisk)
	}
	if _, err := os.Stat(s.journal.CheckpointPath(id)); !os.IsNotExist(err) {
		t.Fatal("checkpoint not retired after completion")
	}

	// GET endpoints agree.
	code, _, w := do(t, s, "GET", "/jobs/lc", "")
	if code != 200 || !strings.Contains(w.Body.String(), `"done"`) {
		t.Fatalf("GET /jobs/lc: %d %s", code, w.Body.String())
	}
	code, out, _ = do(t, s, "GET", "/jobs", "")
	if code != 200 || len(out["jobs"].([]any)) != 1 {
		t.Fatalf("GET /jobs: %d %v", code, out)
	}
	code, _, _ = do(t, s, "GET", "/jobs/nope", "")
	if code != 404 {
		t.Fatalf("GET /jobs/nope: %d", code)
	}

	// The event stream replays the whole history and terminates (the job
	// is done): queued, started, at least one commit, done.
	req := httptest.NewRequest("GET", "/jobs/lc/events", nil)
	ew := httptest.NewRecorder()
	s.ServeHTTP(ew, req)
	var types []string
	sc := bufio.NewScanner(ew.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{"queued", "started", "commit", "done"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("event stream %v missing %q", types, want)
		}
	}

	// Duplicate ids are refused; a health check passes.
	if _, code, _ = submitJob(t, s, `{"id": "lc", "example": "canada2"}`); code != 409 {
		t.Fatalf("duplicate id: %d", code)
	}
	if code, _, _ = do(t, s, "GET", "/healthz", ""); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
}

// TestEventsStreamEndsWithJob: a reader that took the terminal event
// before the feed closed still sees its stream end once the job closes,
// instead of waiting on a wake-up no further event will send.
func TestEventsStreamEndsWithJob(t *testing.T) {
	s := newTestServer(t, quietConfig(t.TempDir()))
	j := newJob("ev", nil, &Record{ID: "ev", State: StateDone})
	s.mu.Lock()
	s.jobs["ev"] = j
	s.order = append(s.order, "ev")
	s.mu.Unlock()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	j.emit(Event{Type: "done"})
	resp, err := http.Get(ts.URL + "/jobs/ev/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, `"done"`) {
		t.Fatalf("first event %q, %v", line, err)
	}
	// The handler has flushed the terminal event of a feed that was not
	// closed yet, so it now waits for more.
	j.close()
	ended := make(chan error, 1)
	go func() {
		_, err := br.ReadString('\n')
		ended <- err
	}()
	select {
	case err := <-ended:
		if err != io.EOF {
			t.Fatalf("stream after close: %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event stream still open 5 s after its job closed")
	}
}

// TestSubmitOversizedTopo: a topo spec past the generator bounds is a
// bad request, refused before any network is generated.
func TestSubmitOversizedTopo(t *testing.T) {
	s := newTestServer(t, quietConfig(t.TempDir()))
	_, code, out := submitJob(t, s, `{"id": "big", "topo": "clos:100000,100000,1"}`)
	if code != 400 || !strings.Contains(fmt.Sprint(out["error"]), "bound") {
		t.Fatalf("oversized topo: %d %v, want 400 naming the bound", code, out)
	}
	if s.lookup("big") != nil {
		t.Fatal("a refused job was admitted")
	}
}

// longJobSpec is a search long enough to be interrupted reliably: an
// 80-class mesh whose pattern search runs for hundreds of milliseconds
// while its first commits land within the first few.
func longJobSpec(id string) string {
	return fmt.Sprintf(`{"id": %q, "topo": "mesh:100,50,80", "topo_seed": 3}`, id)
}

// TestKillResumeBitIdentical is the crash-safety acceptance check: a
// daemon SIGKILLed mid-search (simulated in-process by Kill, which
// cancels without any journal transition) and restarted on the same
// spool must resume the interrupted job and converge to the
// bit-identical result of a never-interrupted run.
func TestKillResumeBitIdentical(t *testing.T) {
	// Reference: the same job, uninterrupted, on its own spool.
	ref := newTestServer(t, quietConfig(t.TempDir()))
	refID, code, out := submitJob(t, ref, longJobSpec("ref"))
	if code != 202 {
		t.Fatalf("submit: %d %v", code, out)
	}
	refRec := waitTerminal(t, ref, refID)
	if refRec.State != StateDone {
		t.Fatalf("reference job ended %s (%s)", refRec.State, refRec.Error)
	}

	// Crash run: kill after a few commits, mid-search.
	spool := t.TempDir()
	crash := newTestServer(t, quietConfig(spool))
	id, code, _ := submitJob(t, crash, longJobSpec("crash"))
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	waitCommits(t, crash, id, 3)
	crash.Kill()
	onDisk, err := crash.journal.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State.Terminal() {
		t.Fatalf("job finished before the kill (state %s); the test needs a longer search", onDisk.State)
	}
	if _, err := os.Stat(crash.journal.CheckpointPath(id)); err != nil {
		t.Fatalf("no checkpoint at kill time: %v", err)
	}

	// Restart on the same spool: the job is re-admitted and resumed
	// automatically.
	restarted := newTestServer(t, quietConfig(spool))
	rec := waitTerminal(t, restarted, id)
	if rec.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", rec.State, rec.Error)
	}
	if !rec.Result.Resumed {
		t.Fatal("resumed job not marked Resumed")
	}
	if fmt.Sprint(rec.Result.Windows) != fmt.Sprint(refRec.Result.Windows) {
		t.Fatalf("windows diverge: resumed %v, reference %v", rec.Result.Windows, refRec.Result.Windows)
	}
	if math.Float64bits(rec.Result.Power) != math.Float64bits(refRec.Result.Power) {
		t.Fatalf("power diverges: resumed %x, reference %x", rec.Result.Power, refRec.Result.Power)
	}
}

// TestDrainRequeuesAndResumes checks the graceful-drain path: a drained
// daemon rewrites its running jobs to queued, stops admitting, and a
// restart completes them from their checkpoints.
func TestDrainRequeuesAndResumes(t *testing.T) {
	spool := t.TempDir()
	s := newTestServer(t, quietConfig(spool))
	id, code, _ := submitJob(t, s, longJobSpec("drainee"))
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	waitCommits(t, s, id, 2)
	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _, _ := do(t, s, "GET", "/healthz", ""); code != 503 {
		t.Fatalf("healthz while draining: %d", code)
	}
	if _, code, _ := submitJob(t, s, `{"example": "canada2"}`); code != 503 {
		t.Fatalf("submission while draining: %d", code)
	}
	onDisk, err := s.journal.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateQueued {
		t.Fatalf("drained job journalled as %s, want queued", onDisk.State)
	}

	restarted := newTestServer(t, quietConfig(spool))
	rec := waitTerminal(t, restarted, id)
	if rec.State != StateDone {
		t.Fatalf("drained job ended %s (%s)", rec.State, rec.Error)
	}
	if !rec.Result.Resumed {
		t.Fatal("drained job did not resume from its checkpoint")
	}
}

// TestWarmStartBeatsHopCount checks online re-dimensioning: after a job
// finishes, a resubmission for the same network structure with drifted
// traffic starts from the previous optimum and converges in fewer
// evaluations than the hop-count start does.
func TestWarmStartBeatsHopCount(t *testing.T) {
	s := newTestServer(t, quietConfig(t.TempDir()))
	id1, code, _ := submitJob(t, s, `{"id": "base", "example": "canada2", "rates": [40, 40]}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	if rec := waitTerminal(t, s, id1); rec.State != StateDone {
		t.Fatalf("base job ended %s (%s)", rec.State, rec.Error)
	}

	// Drifted traffic, no explicit start: warm-started from base's
	// optimum.
	id2, code, out := submitJob(t, s, `{"id": "drift", "example": "canada2", "rates": [42, 38]}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	if ws, _ := out["warm_start"].(bool); !ws {
		t.Fatalf("drifted resubmission not warm-started: %v", out)
	}
	warm := waitTerminal(t, s, id2)
	if warm.State != StateDone || !warm.Result.WarmStarted {
		t.Fatalf("warm job: %+v", warm.Result)
	}

	// The control: identical drifted job forced onto the hop-count start.
	n, err := cliutil.LoadNetwork("", "canada2", nil)
	if err != nil {
		t.Fatal(err)
	}
	hops := n.HopVector()
	id3, code, _ := submitJob(t, s, fmt.Sprintf(
		`{"id": "cold", "example": "canada2", "rates": [42, 38], "start": [%d, %d]}`, hops[0], hops[1]))
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	cold := waitTerminal(t, s, id3)
	if cold.State != StateDone {
		t.Fatalf("cold job ended %s (%s)", cold.State, cold.Error)
	}
	if fmt.Sprint(warm.Result.Windows) != fmt.Sprint(cold.Result.Windows) {
		t.Fatalf("warm and cold runs found different optima: %v vs %v",
			warm.Result.Windows, cold.Result.Windows)
	}
	if warm.Result.Evaluations >= cold.Result.Evaluations {
		t.Fatalf("warm start took %d evaluations, hop-count start %d; expected fewer",
			warm.Result.Evaluations, cold.Result.Evaluations)
	}
}

// TestAdmissionMemoryBudget checks multi-tenant admission control: with
// a budget below two oracles' worth, the second exact-engine job is
// rejected with 429 + Retry-After while the first is live, admitted once
// it finishes, and the first job's idle oracle is evicted to make room.
func TestAdmissionMemoryBudget(t *testing.T) {
	n, err := cliutil.LoadNetwork("", "canada2", nil)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateOracleBytes(n, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig(t.TempDir())
	cfg.MaxJobs = 1
	// Below two oracles' worth, and tight enough that A's idle oracle
	// (a pattern search retains only part of its estimate) must go to
	// admit B.
	cfg.MemoryBudget = est + est/8
	s := newTestServer(t, cfg)

	spec := func(id string) string {
		return fmt.Sprintf(`{"id": %q, "example": "canada2", "evaluator": "exact", "exact_engine": true, "max_window": 6}`, id)
	}
	idA, code, _ := submitJob(t, s, spec("exact-a"))
	if code != 202 {
		t.Fatalf("first exact job: %d", code)
	}
	// While A is live its estimate pins the budget: B cannot fit.
	_, code, out := submitJob(t, s, spec("exact-b"))
	if code != 429 {
		t.Fatalf("second exact job while first live: %d %v", code, out)
	}
	var st Stats
	_, _, w := do(t, s, "GET", "/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RejectedMem != 1 || st.OraclePinned != est {
		t.Fatalf("stats after rejection: %+v", st)
	}

	// A job that can never fit is told so, not told to retry.
	big, err := core.EstimateOracleBytes(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	if big <= cfg.MemoryBudget {
		t.Fatalf("test premise broken: max_window 64 estimate %d fits budget %d", big, cfg.MemoryBudget)
	}
	if _, code, _ = submitJob(t, s, `{"example": "canada2", "evaluator": "exact", "exact_engine": true}`); code != 422 {
		t.Fatalf("never-fitting job: %d", code)
	}

	if rec := waitTerminal(t, s, idA); rec.State != StateDone {
		t.Fatalf("first exact job ended %s (%s)", rec.State, rec.Error)
	}
	// A finished: its pin is released, B is admitted, and A's idle
	// oracle is evicted from the cache to make room in fact.
	idB, code, _ := submitJob(t, s, spec("exact-b"))
	if code != 202 {
		t.Fatalf("second exact job after first done: %d", code)
	}
	if rec := waitTerminal(t, s, idB); rec.State != StateDone {
		t.Fatalf("second exact job ended %s (%s)", rec.State, rec.Error)
	}
	_, _, w = do(t, s, "GET", "/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.OracleCache.Evictions < 1 {
		t.Fatalf("no oracle evictions recorded: %+v", st)
	}
	if st.OraclePinned != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// TestAdmissionQueueBound checks the bounded queue and both cancel
// paths: with one worker slot busy and a queue of one, a third job is
// rejected with 429; the queued job cancels instantly, the running one
// on its next context check.
func TestAdmissionQueueBound(t *testing.T) {
	cfg := quietConfig(t.TempDir())
	cfg.MaxJobs = 1
	cfg.QueueDepth = 1
	s := newTestServer(t, cfg)

	idL, code, _ := submitJob(t, s, longJobSpec("long"))
	if code != 202 {
		t.Fatalf("long job: %d", code)
	}
	waitFor(t, "long job to start", func() bool {
		return recordOf(t, s, idL).State == StateRunning
	})
	idQ, code, _ := submitJob(t, s, `{"id": "waiting", "example": "canada2"}`)
	if code != 202 {
		t.Fatalf("queued job: %d", code)
	}
	_, code, _ = submitJob(t, s, `{"example": "canada2"}`)
	if code != 429 {
		t.Fatalf("over-queue job: %d", code)
	}
	var st Stats
	_, _, w := do(t, s, "GET", "/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RejectedQueue != 1 || st.Queued != 1 || st.Running != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Cancel the queued job: immediate terminal state, no attempt run.
	code, out, _ := do(t, s, "DELETE", "/jobs/"+idQ, "")
	if code != 200 || out["state"] != "canceled" {
		t.Fatalf("cancel queued: %d %v", code, out)
	}
	if rec := recordOf(t, s, idQ); rec.Attempts != 0 {
		t.Fatalf("canceled queued job ran %d attempts", rec.Attempts)
	}
	assertNoParsed(t, s, idQ)
	// Cancel the running job: acknowledged, then terminal without retry
	// (user cancellation is not a transient failure).
	code, _, _ = do(t, s, "DELETE", "/jobs/"+idL, "")
	if code != 202 && code != 200 {
		t.Fatalf("cancel running: %d", code)
	}
	rec := waitTerminal(t, s, idL)
	if rec.State != StateCanceled || len(rec.Retries) != 0 {
		t.Fatalf("canceled running job: state %s, %d retries", rec.State, len(rec.Retries))
	}
	assertNoParsed(t, s, idL)
}

// TestFaultContainment checks that a job whose evaluation panics fails
// alone — with its retries and backoff recorded in the journal — while a
// healthy job sharing the pool completes normally.
func TestFaultContainment(t *testing.T) {
	cfg := quietConfig(t.TempDir())
	cfg.MaxJobs = 2
	s := newTestServer(t, cfg)

	// A crafted in-memory job with no network: the evaluator panics on
	// the nil dereference, standing in for any evaluator-layer panic.
	rec := &Record{ID: "boom", State: StateQueued, Spec: json.RawMessage(`{}`), Created: time.Now().UTC()}
	if err := s.journal.Write(rec); err != nil {
		t.Fatal(err)
	}
	boom := newJob("boom", &Job{Spec: JobSpec{ID: "boom"}}, rec)
	s.mu.Lock()
	s.jobs["boom"] = boom
	s.order = append(s.order, "boom")
	s.mu.Unlock()
	s.queuedGauge.Add(1)
	s.queue <- boom

	healthyID, code, _ := submitJob(t, s, `{"id": "healthy", "example": "canada2"}`)
	if code != 202 {
		t.Fatalf("healthy job: %d", code)
	}

	boomRec := waitTerminal(t, s, "boom")
	if boomRec.State != StateFailed || !strings.Contains(boomRec.Error, "panic") {
		t.Fatalf("panicking job: state %s, error %q", boomRec.State, boomRec.Error)
	}
	if len(boomRec.Retries) != s.cfg.MaxRetries {
		t.Fatalf("recorded %d retries, want %d", len(boomRec.Retries), s.cfg.MaxRetries)
	}
	for i, r := range boomRec.Retries {
		if r.BackoffMS <= 0 || r.Error == "" || r.Attempt != i+1 {
			t.Fatalf("retry %d malformed: %+v", i, r)
		}
	}
	if boomRec.Attempts != s.cfg.MaxRetries+1 {
		t.Fatalf("ran %d attempts, want %d", boomRec.Attempts, s.cfg.MaxRetries+1)
	}
	assertNoParsed(t, s, "boom")

	healthy := waitTerminal(t, s, healthyID)
	if healthy.State != StateDone {
		t.Fatalf("healthy job ended %s (%s) alongside the panicking one", healthy.State, healthy.Error)
	}
	var st Stats
	_, _, w := do(t, s, "GET", "/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Panics != int64(s.cfg.MaxRetries+1) || st.Retries != int64(s.cfg.MaxRetries) {
		t.Fatalf("stats after containment: %+v", st)
	}
}

// TestJobDeadlinePartialResult checks per-job deadlines: a bounded job
// whose search outlives timeout_ms completes with best-so-far windows
// marked partial instead of failing.
func TestJobDeadlinePartialResult(t *testing.T) {
	s := newTestServer(t, quietConfig(t.TempDir()))
	id, code, _ := submitJob(t, s,
		`{"id": "bounded", "topo": "mesh:100,50,80", "topo_seed": 5, "timeout_ms": 100}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	rec := waitTerminal(t, s, id)
	if rec.State != StateDone {
		t.Fatalf("bounded job ended %s (%s)", rec.State, rec.Error)
	}
	if !rec.Result.Partial || len(rec.Result.Windows) == 0 {
		t.Fatalf("expected a partial best-so-far result, got %+v", rec.Result)
	}
}

// Kill aborts the daemon as a crash would: running jobs are cancelled
// mid-attempt and NO journal transitions are written, leaving the spool
// exactly as a SIGKILL at that instant. Tests use it to exercise the
// restart-resume path in-process.
func (s *Server) Kill() {
	s.cancel(errCrash)
	s.wg.Wait()
}
