package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/topo"
)

// writeRecordFile writes a journal record as Journal.Write would, but
// keeps the record's Updated time and its spec bytes verbatim (Marshal
// would compact them), so a test can lay out any history.
func writeRecordFile(t testing.TB, dir string, rec Record) {
	t.Helper()
	spec := rec.Spec
	rec.Spec = json.RawMessage(`"SPEC"`)
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"spec":"SPEC"`), append([]byte(`"spec":`), spec...), 1)
	if err := os.WriteFile(filepath.Join(dir, rec.ID+recordSuffix), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// warmStartOf is the start vector the server would give a submission of
// spec now, without admitting it.
func warmStartOf(t *testing.T, s *Server, spec string) ([]int, bool) {
	t.Helper()
	p, err := ParseJob([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startFor(p, structuralHash(p.Net))
}

// assertNoParsed checks that a terminal job holds its record and nothing
// parsed from its spec.
func assertNoParsed(t *testing.T, s *Server, id string) {
	t.Helper()
	j := s.lookup(id)
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.rec.State.Terminal() {
		t.Fatalf("job %s is %s, not terminal", id, j.rec.State)
	}
	if j.parsed != nil || j.structHash != "" {
		t.Fatalf("terminal job %s still holds its parsed spec", id)
	}
}

// stageJob admits a job the way handleSubmit does but leaves it off the
// queue, so the test decides when it runs (s.runJob) and in which order.
func stageJob(t *testing.T, s *Server, spec string) *job {
	t.Helper()
	p, err := ParseJob([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: p.Spec.ID, State: StateQueued, Spec: p.Raw, Created: time.Now().UTC()}
	j := newJob(rec.ID, p, rec)
	j.structHash = structuralHash(p.Net)
	s.mu.Lock()
	s.jobs[rec.ID] = j
	s.order = append(s.order, rec.ID)
	s.mu.Unlock()
	if err := s.journalWrite(j); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestFinishedJobUpdatedMatchesRecord checks that a live job reports the
// updated time its record file holds, and that a restart does not change
// it.
func TestFinishedJobUpdatedMatchesRecord(t *testing.T) {
	spool := t.TempDir()
	s := newTestServer(t, quietConfig(spool))
	id, code, _ := submitJob(t, s, `{"id": "stamped", "example": "canada2"}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	if rec := waitTerminal(t, s, id); rec.State != StateDone {
		t.Fatalf("job ended %s (%s)", rec.State, rec.Error)
	}
	updatedOf := func(s *Server) time.Time {
		t.Helper()
		code, _, w := do(t, s, "GET", "/jobs/"+id, "")
		var rec Record
		if err := json.Unmarshal(w.Body.Bytes(), &rec); code != 200 || err != nil {
			t.Fatalf("GET /jobs/%s: %d %v", id, code, err)
		}
		return rec.Updated
	}
	onDisk, err := s.journal.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	live := updatedOf(s)
	if !live.Equal(onDisk.Updated) {
		t.Fatalf("live updated %v, record file %v", live, onDisk.Updated)
	}
	s.Kill()
	if restarted := updatedOf(newTestServer(t, quietConfig(spool))); !restarted.Equal(live) {
		t.Fatalf("updated %v before the restart, %v after", live, restarted)
	}
}

// TestCancelDuringAdmissionWrite cancels a job while its admission record
// is still being written. The job's writes take turns, so the record file
// ends canceled with the updated time GET /jobs/{id} reports, and a restart
// does not run the job again.
func TestCancelDuringAdmissionWrite(t *testing.T) {
	spool := t.TempDir()
	s := newTestServer(t, quietConfig(spool))
	inWrite, release := make(chan struct{}), make(chan struct{})
	s.journal.beforeReplace = func(rec *Record) {
		if rec.State == StateQueued {
			close(inWrite)
			<-release
		}
	}
	submitted := make(chan *httptest.ResponseRecorder)
	go func() { submitted <- serve(s, "POST", "/jobs", `{"id": "held", "example": "canada2"}`) }()
	<-inWrite
	canceled := make(chan *httptest.ResponseRecorder)
	go func() { canceled <- serve(s, "DELETE", "/jobs/held", "") }()
	waitFor(t, "the cancel to reach the job", func() bool { return recordOf(t, s, "held").State == StateCanceled })
	close(release)
	if w := <-submitted; w.Code != 202 {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	if w := <-canceled; w.Code != 200 {
		t.Fatalf("cancel: %d %s", w.Code, w.Body.String())
	}
	live := waitTerminal(t, s, "held")
	onDisk, err := s.journal.Load("held")
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateCanceled || !onDisk.Updated.Equal(live.Updated) {
		t.Fatalf("record file %s at %v, job %s at %v", onDisk.State, onDisk.Updated, live.State, live.Updated)
	}
	s.Kill()
	if rec := recordOf(t, newTestServer(t, quietConfig(spool)), "held"); rec.State != StateCanceled {
		t.Fatalf("after a restart the job is %s", rec.State)
	}
}

// TestRestartKeepsLatestFinishedOptimum checks the restart side of the
// warm-start rule: of two done records of one structure, the one that
// finished later wins, even when it was created earlier (the journal scan
// runs in creation order).
func TestRestartKeepsLatestFinishedOptimum(t *testing.T) {
	spool := t.TempDir()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Journalled first: created second, finished first.
	writeRecordFile(t, spool, Record{ID: "created-late", State: StateDone,
		Spec:    json.RawMessage(`{"id":"created-late","example":"canada2","rates":[5,60]}`),
		Created: t0.Add(time.Second), Updated: t0.Add(2 * time.Second),
		Result: &JobResult{Windows: []int{5, 3}, Power: 1}})
	writeRecordFile(t, spool, Record{ID: "created-early", State: StateDone,
		Spec:    json.RawMessage(`{"id":"created-early","example":"canada2","rates":[60,5]}`),
		Created: t0, Updated: t0.Add(3 * time.Second),
		Result: &JobResult{Windows: []int{3, 5}, Power: 1}})

	s := newTestServer(t, quietConfig(spool))
	id, code, out := submitJob(t, s, `{"id": "resubmitted", "example": "canada2", "rates": [30, 30]}`)
	if code != 202 || out["warm_start"] != true {
		t.Fatalf("resubmission: %d %v", code, out)
	}
	if got := recordOf(t, s, id).Start; !slices.Equal(got, []int{3, 5}) {
		t.Fatalf("warm start %v, want [3 5] from the record that finished last", got)
	}
}

// TestWarmIndexFollowsFinishingOrder checks the live side of the same
// rule: the job admitted first but finished last owns the entry, before
// and after a restart.
func TestWarmIndexFollowsFinishingOrder(t *testing.T) {
	spool := t.TempDir()
	s := newTestServer(t, quietConfig(spool))
	first := stageJob(t, s, `{"id": "admitted-first", "example": "canada2", "rates": [60, 5]}`)
	second := stageJob(t, s, `{"id": "admitted-second", "example": "canada2", "rates": [5, 60]}`)
	s.runJob(second)
	s.runJob(first)
	want := recordOf(t, s, first.id).Result.Windows
	if other := recordOf(t, s, second.id).Result.Windows; slices.Equal(want, other) {
		t.Fatalf("test premise broken: both jobs found %v", want)
	}
	const probe = `{"example": "canada2", "rates": [30, 30]}`
	if got, warm := warmStartOf(t, s, probe); !warm || !slices.Equal(got, want) {
		t.Fatalf("live warm start %v (%v), want %v from the job that finished last", got, warm, want)
	}
	s.Kill()
	restarted := newTestServer(t, quietConfig(spool))
	if got, warm := warmStartOf(t, restarted, probe); !warm || !slices.Equal(got, want) {
		t.Fatalf("warm start after restart %v (%v), want %v", got, warm, want)
	}
}

// serve runs one request through the handler; unlike do it is safe off
// the test goroutine.
func serve(s *Server, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// TestConcurrentSubmissions races admissions against each other, against
// lookups, and against finishing jobs feeding the warm-start index. Every
// id is submitted by every client: exactly one wins it.
func TestConcurrentSubmissions(t *testing.T) {
	n, err := cliutil.BuiltinExample("canada2")
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateOracleBytes(n, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig(t.TempDir())
	cfg.QueueDepth = 64
	cfg.MemoryBudget = 64 * est // the gate runs on every exact job, never trips
	s := newTestServer(t, cfg)

	const clients, ids = 4, 8
	spec := func(k int) string {
		if k%2 == 0 {
			return fmt.Sprintf(`{"id": "race-%d", "example": "canada2", "evaluator": "exact", "exact_engine": true, "max_window": 6}`, k)
		}
		return fmt.Sprintf(`{"id": "race-%d", "example": "canada2", "rates": [%d, 20]}`, k, 15+k)
	}
	codes := make([][]int, clients)
	var wg sync.WaitGroup
	for c := range clients {
		codes[c] = make([]int, ids)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				k := (i + c) % ids
				codes[c][k] = serve(s, "POST", "/jobs", spec(k)).Code
				serve(s, "GET", fmt.Sprintf("/jobs/race-%d", (k+1)%ids), "")
				serve(s, "GET", "/stats", "")
			}
		}()
	}
	wg.Wait()
	for k := range ids {
		won := 0
		for c := range clients {
			switch codes[c][k] {
			case 202:
				won++
			case 409:
			default:
				t.Fatalf("race-%d: client %d got %d", k, c, codes[c][k])
			}
		}
		if won != 1 {
			t.Fatalf("race-%d admitted %d times", k, won)
		}
	}
	for k := range ids {
		if rec := waitTerminal(t, s, fmt.Sprintf("race-%d", k)); rec.State != StateDone {
			t.Fatalf("race-%d ended %s (%s)", k, rec.State, rec.Error)
		}
	}
	var st Stats
	if err := json.Unmarshal(serve(s, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != ids || st.OraclePinned != 0 || st.Jobs[StateDone] != ids {
		t.Fatalf("stats after the race: %+v", st)
	}
}

// TestRecoveredTerminalJobsServeEveryEndpoint checks that jobs recovered
// as bare records answer every endpoint.
func TestRecoveredTerminalJobsServeEveryEndpoint(t *testing.T) {
	spool := t.TempDir()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	states := map[string]State{"was-done": StateDone, "was-failed": StateFailed, "was-canceled": StateCanceled}
	for i, id := range []string{"was-done", "was-failed", "was-canceled"} {
		rec := Record{ID: id, State: states[id],
			Spec:    json.RawMessage(fmt.Sprintf(`{"id":%q,"example":"canada2"}`, id)),
			Created: t0.Add(time.Duration(i) * time.Second), Updated: t0.Add(time.Hour)}
		if rec.State == StateDone {
			rec.Result = &JobResult{Windows: []int{3, 3}, Power: 2}
		} else {
			rec.Error = "ended " + string(rec.State)
		}
		writeRecordFile(t, spool, rec)
	}
	s := newTestServer(t, quietConfig(spool))

	code, out, _ := do(t, s, "GET", "/jobs", "")
	if list, _ := out["jobs"].([]any); code != 200 || len(list) != 3 {
		t.Fatalf("GET /jobs: %d %v", code, out)
	}
	for id, state := range states {
		assertNoParsed(t, s, id)
		w := serve(s, "GET", "/jobs/"+id, "")
		var rec Record
		if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil || w.Code != 200 ||
			rec.State != state || !rec.Updated.Equal(t0.Add(time.Hour)) || (rec.Result != nil) != (state == StateDone) {
			t.Fatalf("GET /jobs/%s: %d %s", id, w.Code, w.Body.String())
		}
		// The feed of a recovered job is closed and empty: the stream ends.
		if w := serve(s, "GET", "/jobs/"+id+"/events", ""); w.Code != 200 || w.Body.Len() != 0 {
			t.Fatalf("events of %s: %d %q", id, w.Code, w.Body.String())
		}
		code, out, _ := do(t, s, "DELETE", "/jobs/"+id, "")
		if code != 200 || out["state"] != string(state) {
			t.Fatalf("DELETE /jobs/%s: %d %v", id, code, out)
		}
	}
	var st Stats
	_, _, w := do(t, s, "GET", "/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.JobsDetail) != 3 || st.Jobs[StateDone] != 1 || st.Jobs[StateFailed] != 1 || st.Jobs[StateCanceled] != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStructuralHashCoversEveryField changes one field of a network at a
// time, found by reflection so that a field added to netmodel's types is
// covered too: every change but a class's arrival rate must change the
// structural hash.
func TestStructuralHashCoversEveryField(t *testing.T) {
	fresh := func() *netmodel.Network { return topo.Canada4Class(6, 6, 6, 12) }
	base := structuralHash(fresh())
	targets := map[string]func(*netmodel.Network) reflect.Value{
		"network": func(n *netmodel.Network) reflect.Value { return reflect.ValueOf(n).Elem() },
		"node":    func(n *netmodel.Network) reflect.Value { return reflect.ValueOf(&n.Nodes[1]).Elem() },
		"channel": func(n *netmodel.Network) reflect.Value { return reflect.ValueOf(&n.Channels[1]).Elem() },
		"class":   func(n *netmodel.Network) reflect.Value { return reflect.ValueOf(&n.Classes[1]).Elem() },
	}
	for name, target := range targets {
		for i := range target(fresh()).NumField() {
			n := fresh()
			v := target(n)
			field, f := v.Type().Field(i).Name, v.Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "'")
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.Slice:
				f.Set(f.Slice(0, f.Len()-1))
			default:
				t.Fatalf("%s field %s: no way to change a %s", name, field, f.Kind())
			}
			want := !(name == "class" && field == "Rate")
			if changed := structuralHash(n) != base; changed != want {
				t.Errorf("changing the %s's %s changed the hash: %v, want %v", name, field, changed, want)
			}
		}
	}
}

// referenceIndex is the warm-start index recovery must reproduce, built
// the long way: ParseJob on every finished record, the network hashed in
// MarshalSpec's indented form, and the latest-updated rule.
type referenceIndex map[string]warmEntry

func indentedHash(n *netmodel.Network) string {
	c := *n
	c.Classes = append([]netmodel.Class(nil), n.Classes...)
	for r := range c.Classes {
		c.Classes[r].Rate = 1
	}
	spec, err := c.MarshalSpec()
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:])
}

func buildReference(records []*Record) referenceIndex {
	idx := referenceIndex{}
	for _, rec := range records {
		if rec.State != StateDone || rec.Result == nil || rec.Result.Partial || len(rec.Result.Windows) == 0 {
			continue
		}
		p, err := ParseJob(rec.Spec)
		if err != nil {
			continue
		}
		h := indentedHash(p.Net)
		if e, ok := idx[h]; ok && (e.updated.After(rec.Updated) || e.updated.Equal(rec.Updated) && e.id >= rec.ID) {
			continue
		}
		idx[h] = warmEntry{windows: rec.Result.Windows, updated: rec.Updated, id: rec.ID}
	}
	return idx
}

func (idx referenceIndex) start(p *Job) ([]int, bool) {
	if p.Spec.Start != nil {
		return p.Spec.Start, false
	}
	if e, ok := idx[indentedHash(p.Net)]; ok && !p.Sharded() && len(e.windows) == len(p.Net.Classes) {
		return e.windows, true
	}
	return nil, false
}

// equivalenceSpool lays out a history that mixes record states, network
// sources, scenarios, duplicates differing only in id, and specs ParseJob
// rejects. Each rejected spec, and each spec naming a structure next to
// another's, comes in a pair on a structure of its own: a valid base, and
// a variant that differs in one field and is invalid or names the other
// structure. The variant is created first and finishes last, so recovery
// that indexed a rejected record, or merged the two structures, would
// serve the wrong optimum for the base. It returns the probe specs to
// compare start vectors on.
func equivalenceSpool(t *testing.T, dir string) []string {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := 0
	add := func(state State, spec string, updated time.Duration, result *JobResult) {
		seq++
		rec := Record{ID: fmt.Sprintf("rec-%03d", seq), State: state, Spec: json.RawMessage(spec),
			Created: t0.Add(time.Duration(seq) * time.Millisecond), Updated: t0.Add(updated), Result: result}
		if state != StateDone {
			rec.Error = "ended " + string(state)
		}
		writeRecordFile(t, dir, rec)
	}
	// windows gives every done record an optimum of its own, sized to the
	// network so the index can serve it.
	windows := func(spec string) []int {
		classes := 2
		if p, err := ParseJob([]byte(spec)); err == nil {
			classes = len(p.Net.Classes)
		}
		w := make([]int, classes)
		for i := range w {
			w[i] = seq + i
		}
		return w
	}
	done := func(spec string, updated time.Duration) {
		add(StateDone, spec, updated, &JobResult{Windows: windows(spec), Power: 1})
	}
	probes := []string{`{"example":"canada2"}`, `{"example":"canada4"}`, `{"example":"tandem2"}`,
		`{"topo":"mesh:12,4,4","topo_seed":1}`}

	// Duplicates differing only in id, drifted rates on one structure,
	// and non-done or non-full records finishing last, which must not
	// feed the index.
	for i, rates := range []string{"[40,40]", "[40,40]", "[10,10]", "[42,38]"} {
		done(fmt.Sprintf(`{"id":"dup-%d","example":"canada2","rates":%s}`, i, rates), time.Duration(7-2*i)*time.Minute)
	}
	add(StateDone, `{"example":"canada2"}`, time.Hour, &JobResult{Windows: []int{9, 9}, Partial: true})
	add(StateDone, `{"example":"canada2"}`, time.Hour, &JobResult{})
	add(StateDone, `{"example":"canada2"}`, time.Hour, nil)
	add(StateFailed, `{"example":"canada2"}`, time.Hour, nil)
	add(StateCanceled, `{"example":"canada2"}`, time.Hour, nil)
	// Equal updated times fall to the greater id.
	done(`{"example":"canada4","exact_engine":true,"evaluator":"exact","max_window":10,"start":[4,4,3,1]}`, 3*time.Minute)
	done(`{"example":"canada4","exact_engine":true,"evaluator":"exact","max_window":10,"start":[4,4,3,1]}`, 3*time.Minute)
	done(`{"example":"canada4","exact_engine":true,"evaluator":"exact","max_window":10,"start":[4,4,3,1]}`, 2*time.Minute)
	done(`{"example":"canada4","scenarios":{"scenarios":[{"name":"nominal"},{"name":"busy","weight":2}]}}`, time.Minute)
	for i := range 3 {
		done(fmt.Sprintf(`{"id":"mesh-%d","topo":"mesh:12,4,4","topo_seed":1}`, i), time.Duration(3-i)*time.Minute)
	}
	done(`{"topo":"mesh:12,4,4","topo_seed":1,"workers":2}`, 30*time.Second)
	for i := range 2 {
		done(`{"example":"tandem2","kind":"shard","shard":{"procs":2}}`, time.Duration(i)*time.Minute)
	}

	canada2 := topo.Canada2Class(20, 20)
	pairNet := func(name string, capacity float64, hops int) string {
		n := *canada2
		n.Name = name
		n.Channels = append([]netmodel.Channel(nil), canada2.Channels...)
		n.Channels[0].Capacity = capacity
		n.Classes = append([]netmodel.Class(nil), canada2.Classes...)
		n.Classes[1].Route = n.Classes[1].Route[:hops]
		spec, err := n.MarshalSpec()
		if err != nil {
			t.Fatal(err)
		}
		return string(spec) // indented, as a client may send it
	}
	pad := `"example":"tandem5"` + strings.Repeat(" ", maxSpecBytes)
	type pair struct{ field, base, variant string }
	pairs := []pair{
		{"id", `"id":"fine"`, `"id":"not fine"`},
		{"unknown field", ``, `"bogus":1`},
		{"kind", ``, `"kind":"bogus"`},
		{"evaluator", ``, `"evaluator":"bogus"`},
	}
	join := func(parts ...string) string {
		var kept []string
		for _, p := range parts {
			if p != "" {
				kept = append(kept, p)
			}
		}
		return "{" + strings.Join(kept, ",") + "}"
	}
	base := 2 * time.Hour
	for k, p := range pairs {
		net := `"network":` + pairNet(fmt.Sprintf("pair-%d", k), 50000, 4)
		done(join(p.variant, net), base+time.Duration(2*k+1)*time.Second)
		done(join(p.base, net), base+time.Duration(2*k)*time.Second)
		probes = append(probes, join(net))
	}
	// The network sources: the variant names another structure.
	sources := []pair{
		{"network", `"network":` + pairNet("pair-net", 50000, 4), `"network":` + pairNet("pair-net", 40000, 4)},
		{"route", `"network":` + pairNet("pair-route", 50000, 4), `"network":` + pairNet("pair-route", 50000, 2)},
		{"example", `"example":"tandem3"`, `"example":"tandem4"`},
		{"topo", `"topo":"mesh:10,3,3","topo_seed":7`, `"topo":"mesh:10,3,2","topo_seed":7`},
		{"topo_seed", `"topo":"mesh:10,3,3","topo_seed":8`, `"topo":"mesh:10,3,3","topo_seed":9`},
		{"size limit", `"example":"tandem5"`, pad},
	}
	for k, p := range sources {
		done(join(p.variant), base+time.Hour+time.Duration(2*k+1)*time.Second)
		done(join(p.base), base+time.Hour+time.Duration(2*k)*time.Second)
		probes = append(probes, join(p.base))
		if p.field != "size limit" {
			probes = append(probes, join(p.variant))
		}
	}
	return probes
}

// TestRecoveredWarmIndexMatchesReference checks that recovery, which
// parses only the done records with a full result and hashes compact JSON,
// builds the warm-start index that ParseJob on every record and the
// MarshalSpec hash build, and that it leaves no recovered job holding a
// parsed spec.
func TestRecoveredWarmIndexMatchesReference(t *testing.T) {
	spool := t.TempDir()
	probes := equivalenceSpool(t, spool)
	journal, err := OpenJournal(spool)
	if err != nil {
		t.Fatal(err)
	}
	records, bad, err := journal.Scan()
	if err != nil || len(bad) > 0 {
		t.Fatalf("scan: %v, bad %v", err, bad)
	}
	for _, rec := range records {
		if p, err := ParseJob(rec.Spec); err == nil {
			p.Spec.ID = ""
			raw, _ := json.Marshal(p.Spec)
			probes = append(probes, string(raw))
		}
	}
	ref := buildReference(records)

	s := newTestServer(t, quietConfig(spool))
	for _, rec := range records {
		assertNoParsed(t, s, rec.ID)
	}
	warm := 0
	for _, probe := range probes {
		p, err := ParseJob([]byte(probe))
		if err != nil {
			t.Fatalf("probe %s: %v", probe, err)
		}
		want, wantWarm := ref.start(p)
		got, gotWarm := warmStartOf(t, s, probe)
		if gotWarm != wantWarm || !slices.Equal(got, want) {
			t.Errorf("probe %.120s: start %v (warm %v), reference %v (warm %v)", probe, got, gotWarm, want, wantWarm)
		}
		if wantWarm {
			warm++
		}
	}
	s.mu.Lock()
	structures := len(s.warm)
	s.mu.Unlock()
	if structures != len(ref) {
		t.Errorf("index holds %d structures, reference %d", structures, len(ref))
	}
	// Guard the spool itself: most probes must find an optimum, or the
	// comparison says little.
	if warm < len(probes)/2 {
		t.Fatalf("only %d of %d probes warm-start in the reference", warm, len(probes))
	}
}

// BenchmarkRecoverSpool restarts the daemon over 2,000 finished records
// in the benchmark's seeded mix: half pattern jobs on one generated mesh,
// a quarter tenant networks (a Canada-4 structure each), a quarter exact
// Canada-4 jobs.
func BenchmarkRecoverSpool(b *testing.B) {
	spool := b.TempDir()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	canada4 := topo.Canada4Class(6, 6, 6, 12)
	for i := range 2000 {
		id := fmt.Sprintf("seed-%04d", i)
		var spec JobSpec
		switch i % 4 {
		case 0, 1:
			spec = JobSpec{ID: id, Topo: "mesh:48,24,24", TopoSeed: 1}
		case 2:
			n := *canada4
			n.Name = fmt.Sprintf("tenant-%d", i/4)
			raw, err := n.MarshalSpec()
			if err != nil {
				b.Fatal(err)
			}
			spec = JobSpec{ID: id, Network: raw, Rates: []float64{6, 6, 6, 12}}
		default:
			spec = JobSpec{ID: id, Example: "canada4", Evaluator: "exact", ExactEngine: true,
				MaxWindow: 10, Start: []int{4, 4, 3, 1}}
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			b.Fatal(err)
		}
		classes := 4
		if i%4 < 2 {
			classes = 24
		}
		w := make([]int, classes)
		for c := range w {
			w[c] = 3
		}
		writeRecordFile(b, spool, Record{ID: id, State: StateDone, Spec: raw,
			Created: t0.Add(time.Duration(i) * time.Millisecond), Updated: t0.Add(time.Hour),
			Result: &JobResult{Windows: w, Power: 1, Evaluations: 100}})
	}
	cfg := quietConfig(spool)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Kill()
	}
}
