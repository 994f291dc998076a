package main

// windimd_open_loop is the windimd path from submit to result. Tenants are
// independent, so their jobs arrive open loop on a seeded schedule whatever
// the daemon's backlog. Beside the searches themselves this exercises what
// dimension_sweep does not: the fsynced journal record at admission, a
// durable checkpoint (and delta sidecar) on every commit, the warm-start
// index, the shared oracle cache, queueing and admission, and restart over
// a spool of 2,000 finished records.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/service"
	"repro/internal/topo"
)

const (
	// offeredRate is the open loop's arrival rate in jobs per second: the
	// job mix below keeps the two job slots a little under half busy on a
	// 2.1 GHz Xeon vCPU pair, about half the daemon's capacity there.
	offeredRate = 20.0
	// seededRecords is the finished records the spool holds before the
	// daemon starts: a long-lived daemon's history, all scanned on restart.
	seededRecords = 2000
	topoJob       = "mesh:48,24,24"
	exactMaxWin   = 10
)

// loadJob is one submission of the open loop: its kind, when it is due
// (offset from the loop start), and the spec posted.
type loadJob struct {
	Kind string          `json:"kind"` // pattern | redim | exact
	Due  time.Duration   `json:"due"`
	Spec service.JobSpec `json:"spec"`
}

// tenantSpec is a re-dimensioning job: Canada-4 owned by one tenant (the
// network name keys the daemon's warm-start index), at drifted rates. Each
// tenant appears once in the open loop and once in the seeded spool, so its
// warm start is the seeded optimum however the loop's jobs interleave.
func tenantSpec(id string, tenant int, rates []float64) (service.JobSpec, error) {
	n := topo.Canada4Class(canada4Rates[0], canada4Rates[1], canada4Rates[2], canada4Rates[3])
	n.Name = fmt.Sprintf("tenant-%d", tenant)
	spec, err := n.MarshalSpec()
	return service.JobSpec{ID: id, Network: spec, Rates: rates}, err
}

// exactSpec is an exact-engine Canada-4 job. Its start vector is explicit
// (the hop-count rule), so no warm start applies and every one runs the
// same search, answered from the shared oracle cache.
func exactSpec(id string) service.JobSpec {
	return service.JobSpec{ID: id, Example: "canada4", Rates: canada4Rates,
		Evaluator: "exact", ExactEngine: true, MaxWindow: exactMaxWin, Start: []int{4, 4, 3, 1}}
}

// windimdJobs generates one segment of the open loop: round(rate x d) jobs,
// 60% pattern searches of distinct generated meshes, 20% tenant
// re-dimensionings with rates drifted by U[0.9, 1.1], 20% exact-engine
// jobs, in seeded order at the sorted times of as many uniform draws over
// [0, d) — a Poisson process conditioned on its count, so every seed offers
// the same load. The pattern jobs' meshes are the same at every seed (the
// segment's fixed block of generator seeds), so seeds differ in arrival
// times, order and drift, not in how much search work they bring. Pattern
// jobs are the majority so that the median latency falls inside their mode
// of the latency distribution, not on the edge between the slow searches
// and the fast Canada-4 jobs. Tenants are numbered from firstTenant.
func windimdJobs(r *run, segment uint64, prefix string, d time.Duration, firstTenant int) ([]loadJob, error) {
	g := r.rng(10 + segment)
	n := max(int(math.Round(offeredRate*d.Seconds())), 1)
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i < 3*n/5:
			kinds[i] = "pattern"
		case i < 4*n/5:
			kinds[i] = "redim"
		default:
			kinds[i] = "exact"
		}
	}
	g.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	due := make([]float64, n)
	for i := range due {
		due[i] = g.Float64() * d.Seconds()
	}
	sort.Float64s(due)
	jobs := make([]loadJob, n)
	tenant, mesh := firstTenant, 0
	for i := range jobs {
		id := fmt.Sprintf("%s-%04d", prefix, i)
		j := loadJob{Kind: kinds[i], Due: time.Duration(due[i] * float64(time.Second))}
		switch j.Kind {
		case "pattern":
			j.Spec = service.JobSpec{ID: id, Topo: topoJob, TopoSeed: 1000*(segment+1) + uint64(mesh)}
			mesh++
		case "redim":
			rates := make([]float64, len(canada4Rates))
			for c, base := range canada4Rates {
				rates[c] = base * (0.9 + 0.2*g.Float64())
			}
			spec, err := tenantSpec(id, tenant, rates)
			if err != nil {
				return nil, err
			}
			j.Spec = spec
			tenant++
		default:
			j.Spec = exactSpec(id)
		}
		jobs[i] = j
	}
	return jobs, nil
}

// daemon is an in-process windimd serving real HTTP on a loopback port.
type daemon struct {
	srv    *service.Server
	http   *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

func daemonConfig(spool string) (service.Config, error) {
	est, err := core.EstimateOracleBytes(topo.Canada4Class(canada4Rates[0], canada4Rates[1], canada4Rates[2], canada4Rates[3]), exactMaxWin)
	return service.Config{
		Spool:   spool,
		MaxJobs: searchWorkers,
		// Deep enough that the seeded load's bursts are never refused;
		// refusals would count as failed ops.
		QueueDepth: 64,
		// Room for four live exact-engine jobs: the gate is consulted on
		// every exact admission but never trips at this load.
		MemoryBudget: 4 * est,
		Logf:         func(string, ...any) {},
	}, err
}

// startDaemon opens the spool, serves it on 127.0.0.1, and returns once
// /healthz answers 200.
func startDaemon(cfg service.Config) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: searchWorkers, MaxIdleConnsPerHost: searchWorkers, DisableCompression: true}},
	}
	go func() {
		defer close(d.served)
		_ = d.http.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener and the connections, drains the pool, and waits
// for every goroutine the daemon started.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	return errors.Join(err, d.srv.Drain(ctx))
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit posts a job and returns the status and the warm_start flag of an
// accepted one.
func (d *daemon) submit(spec service.JobSpec) (int, bool, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, false, err
	}
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	var ack struct {
		WarmStart bool `json:"warm_start"`
	}
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&ack)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, ack.WarmStart, err
}

// follow reads a job's event feed up to its terminal event. It stops there
// rather than at the end of the stream: the daemon can leave a finished
// job's stream open when the job ends while the stream is between reads.
func (d *daemon) follow(id string) ([]service.Event, error) {
	resp, err := d.client.Get(d.base + "/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	var evs []service.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return evs, fmt.Errorf("events of %s: %w", id, err)
		}
		evs = append(evs, ev)
		switch ev.Type {
		case "done", "failed", "canceled":
			return evs, nil
		}
	}
	if err := sc.Err(); err != nil {
		return evs, err
	}
	return evs, fmt.Errorf("events of %s: stream ended before the job did", id)
}

// submission is what the load generator and the follower saw of one job.
type submission struct {
	job    loadJob
	due    time.Time
	sent   time.Time
	admit  time.Duration // POST round trip: parse, admission, fsynced journal write
	status int
	warm   bool
	err    error
	// From the job's event feed, stamped by the daemon.
	queued, started, done time.Time
	commits               int
	terminal              string
	power                 float64
}

func (s *submission) ok() bool { return s.err == nil && s.terminal == "done" }

// latency runs from when the job was due, not from when the generator got
// round to sending it, so a stalled generator cannot hide a stall.
func (s *submission) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop submits the jobs at their due times from one goroutine while the
// caller follows each accepted job's event feed on a second connection.
func (d *daemon) openLoop(jobs []loadJob) ([]submission, usage) {
	subs := make([]submission, len(jobs))
	accepted := make(chan int, len(jobs)) // one send per job at most
	u0 := readUsage()
	t0 := time.Now()
	go func() {
		defer close(accepted)
		for i := range jobs {
			s := &subs[i]
			s.job, s.due = jobs[i], t0.Add(jobs[i].Due)
			time.Sleep(time.Until(s.due))
			s.sent = time.Now()
			s.status, s.warm, s.err = d.submit(jobs[i].Spec)
			s.admit = time.Since(s.sent)
			if s.err == nil && s.status != http.StatusAccepted {
				s.err = fmt.Errorf("POST /jobs: status %d", s.status)
			}
			if s.err == nil {
				accepted <- i
			}
		}
	}()
	for i := range accepted {
		s := &subs[i]
		evs, err := d.follow(s.job.Spec.ID)
		if err != nil {
			s.err = err
			continue
		}
		for _, ev := range evs {
			switch ev.Type {
			case "queued":
				s.queued = ev.At
			case "started", "resumed":
				s.started = ev.At
			case "commit":
				s.commits++
			default:
				s.terminal, s.done, s.power = ev.Type, ev.At, ev.Power
			}
		}
	}
	u1 := readUsage()
	return subs, usage{cpu: u1.cpu - u0.cpu, maxRSS: u1.maxRSS}
}

// seedSpool fills the spool with finished records cloned from real ones:
// one job of each kind runs on a scratch daemon, and its journal record is
// copied under fresh ids (tenant records under fresh tenant networks).
func seedSpool(r *run, spool string, records int) error {
	tmplSpool := filepath.Join(r.dir, "templates")
	cfg, err := daemonConfig(tmplSpool)
	if err != nil {
		return err
	}
	d, err := startDaemon(cfg)
	if err != nil {
		return err
	}
	tenant, err := tenantSpec("tmpl-redim", 0, canada4Rates)
	if err != nil {
		d.stop()
		return err
	}
	specs := []service.JobSpec{{ID: "tmpl-pattern", Topo: topoJob, TopoSeed: 1}, tenant, exactSpec("tmpl-exact")}
	var tmpl []service.Record
	for _, spec := range specs {
		var rec service.Record
		status, _, err := d.submit(spec)
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("template %s: status %d", spec.ID, status)
		}
		if err == nil {
			_, err = d.follow(spec.ID)
		}
		if err == nil {
			err = d.getJSON("/jobs/"+spec.ID, &rec)
		}
		if err == nil && rec.State != service.StateDone {
			err = fmt.Errorf("template %s ended %s: %s", spec.ID, rec.State, rec.Error)
		}
		if err != nil {
			d.stop()
			return err
		}
		tmpl = append(tmpl, rec)
	}
	if err := d.stop(); err != nil {
		return err
	}

	journal, err := service.OpenJournal(spool)
	if err != nil {
		return err
	}
	created := time.Now().Add(-24 * time.Hour).UTC()
	for i := 0; i < records; i++ {
		var rec service.Record
		var spec service.JobSpec
		id := fmt.Sprintf("seed-%04d", i)
		switch i % 4 {
		case 0, 1:
			rec, spec = tmpl[0], specs[0]
			spec.ID = id
		case 2:
			rec = tmpl[1]
			if spec, err = tenantSpec(id, i/4, canada4Rates); err != nil {
				return err
			}
		default:
			rec, spec = tmpl[2], exactSpec(id)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		rec.ID, rec.Spec, rec.Created = id, raw, created.Add(time.Duration(i)*time.Millisecond)
		if err := journal.Write(&rec); err != nil {
			return err
		}
	}
	return nil
}

// windimdSetup is everything the open loop needs before the daemon starts:
// the seeded spool and the job schedule of each segment, whose
// re-dimensioning jobs may not outnumber the seeded tenants.
func windimdSetup(r *run, spool string, segments []time.Duration, prefixes []string) ([][]loadJob, error) {
	records := seededRecords
	if r.quick {
		records = 40
	}
	if err := seedSpool(r, spool, records); err != nil {
		return nil, fmt.Errorf("seeding the spool: %w", err)
	}
	var out [][]loadJob
	tenant := 0
	for k, d := range segments {
		jobs, err := windimdJobs(r, uint64(k), prefixes[k], d, tenant)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if j.Kind == "redim" {
				tenant++
			}
		}
		out = append(out, jobs)
	}
	if tenant > records/4 {
		return nil, fmt.Errorf("%d re-dimensioning jobs but only %d seeded tenants", tenant, records/4)
	}
	return out, nil
}

func runWindimd(r *run) error {
	spool := filepath.Join(r.dir, "spool")
	segments, prefixes := []time.Duration{r.seconds}, []string{"job"}
	if r.tr != nil {
		// A quarter of the run untraced is the baseline of the tracing
		// overhead; the traced three quarters still offer the 100 jobs a
		// p90 needs.
		segments, prefixes = []time.Duration{r.seconds / 4, r.seconds * 3 / 4}, []string{"untraced", "traced"}
	}
	schedules, err := windimdSetup(r, spool, segments, prefixes)
	if err != nil {
		return err
	}
	cfg, err := daemonConfig(spool)
	if err != nil {
		return err
	}
	// Set-up is the daemon restarting over the seeded spool: service.New
	// scans and re-parses every record, then /healthz must answer.
	var d *daemon
	setups, err := timeSetups(r, func(last bool) error {
		var err error
		if d, err = startDaemon(cfg); err != nil {
			return err
		}
		if !last {
			err = d.stop()
		}
		return err
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	var runs [][]submission
	var usages []usage
	var before, after service.Stats
	for k, jobs := range schedules {
		if k == len(schedules)-1 {
			if err := d.getJSON("/stats", &before); err != nil {
				return err
			}
		}
		subs, u := d.openLoop(jobs)
		runs, usages = append(runs, subs), append(usages, u)
	}
	if err := d.getJSON("/stats", &after); err != nil {
		return err
	}
	for _, subs := range runs {
		for i := range subs {
			r.attempted++
			if !subs[i].ok() {
				r.failed++
			}
		}
	}
	for _, subs := range runs {
		checkWindimd(r, d, subs)
	}
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}

	last := runs[len(runs)-1]
	if r.tr != nil {
		traceWindimd(r, last, setups, &before, &after)
		reportOverhead(r, completed(last), loopWindow(last), completed(runs[0]), loopWindow(runs[0]))
		return nil
	}
	u := usages[len(usages)-1]
	e := endToEnd{setups: setups, cpu: u.cpu, rss: u.maxRSS, window: loopWindow(last)}
	for i := range last {
		s := &last[i]
		if s.ok() {
			e.ops++
			e.latency = append(e.latency, s.latency())
			e.power = append(e.power, s.power)
		}
	}
	e.report(r)
	return nil
}

func completed(subs []submission) int {
	n := 0
	for i := range subs {
		if subs[i].ok() {
			n++
		}
	}
	return n
}

// loopWindow runs from the first due time to the last completion, so the
// open loop's op rate falls only when a backlog grows.
func loopWindow(subs []submission) time.Duration {
	var last time.Time
	for i := range subs {
		if subs[i].ok() && subs[i].done.After(last) {
			last = subs[i].done
		}
	}
	if len(subs) == 0 || last.IsZero() {
		return time.Nanosecond
	}
	return last.Sub(subs[0].due)
}

// checkWindimd re-runs every 8th job that did not warm-start in-process,
// with the options the daemon used, and compares windows, power bits and
// evaluation counts with its journalled result.
func checkWindimd(r *run, d *daemon, subs []submission) {
	cold := 0
	for i := range subs {
		s := &subs[i]
		if !s.ok() || s.warm {
			continue
		}
		cold++
		if (cold-1)%8 != 0 {
			continue
		}
		id := s.job.Spec.ID
		var rec service.Record
		if err := d.getJSON("/jobs/"+id, &rec); err != nil {
			r.mismatch("windimd %s: %v", id, err)
			continue
		}
		parsed, err := service.ParseJob(rec.Spec)
		if err != nil {
			r.mismatch("windimd %s: %v", id, err)
			continue
		}
		var start numeric.IntVector
		if rec.Start != nil {
			start = append(start, rec.Start...)
		}
		want, err := core.Dimension(parsed.Net, core.Options{
			Evaluator: parsed.Evaluator, Objective: parsed.Objective, MaxWindow: parsed.Spec.MaxWindow,
			Workers: parsed.Spec.Workers, ExactEngine: parsed.Spec.ExactEngine, InitialWindows: start,
		})
		if err != nil {
			r.mismatch("windimd %s: in-process core.Dimension: %v", id, err)
			continue
		}
		got := rec.Result
		if got == nil || !numeric.IntVector(got.Windows).Equal(want.Windows) ||
			math.Float64bits(got.Power) != math.Float64bits(want.Metrics.Power) ||
			got.Evaluations != want.Search.Evaluations {
			r.mismatch("windimd %s: daemon %+v, in-process windows %v power %v evaluations %d",
				id, got, want.Windows, want.Metrics.Power, want.Search.Evaluations)
		}
	}
}

// traceWindimd derives the service layer's metrics from the traced
// segment: client-side POST timings, the daemon's event stamps, and the
// /stats counters before and after it.
func traceWindimd(r *run, subs []submission, restarts []time.Duration, before, after *service.Stats) {
	var admits, lags, waits []float64
	runsByKind := map[string][]float64{}
	var runTotal time.Duration
	commits, redim, warm := 0, 0, 0
	for i := range subs {
		s := &subs[i]
		admits = append(admits, ms(s.admit))
		lags = append(lags, ms(s.sent.Sub(s.due)))
		if s.job.Kind == "redim" {
			redim++
			if s.warm {
				warm++
			}
		}
		if !s.ok() {
			continue
		}
		root := r.tr.record(0, "job", i, 0, interval{s.due, s.done})
		r.tr.record(0, "loadgen.lag", i, root, interval{s.due, s.sent})
		r.tr.record(0, "http.POST /jobs", i, root, interval{s.sent, s.sent.Add(s.admit)})
		r.tr.record(0, "service.queue", i, root, interval{s.queued, s.started})
		r.tr.record(0, "service.run", i, root, interval{s.started, s.done})
		waits = append(waits, ms(s.started.Sub(s.queued)))
		run := s.done.Sub(s.started)
		runsByKind[s.job.Kind] = append(runsByKind[s.job.Kind], ms(run))
		runTotal += run
		commits += s.commits
	}
	restartMS := msAll(restarts)
	r.emit("service.restart_ms", median(restartMS), "ms", fmt.Sprintf("median of %d restarts over the seeded spool", len(restartMS)))
	v, n, err := percentile(admits, 0.5)
	r.emitPercentile("service.admit_ms_p50", v, "ms", n, err)
	v, n, err = percentile(admits, 0.9)
	r.emitPercentile("service.admit_ms_p90", v, "ms", n, err)
	r.emit("service.commit_events", float64(commits), "count", "all traced jobs")
	r.emit("service.run_ms_per_commit", ms(runTotal)/float64(max(commits, 1)), "ms", "run time / commit events")
	for _, kind := range []string{"pattern", "redim", "exact"} {
		v, n, err := percentile(runsByKind[kind], 0.5)
		r.emitPercentile("service.run_ms_p50."+kind, v, "ms", n, err)
	}
	v, n, err = percentile(waits, 0.5)
	r.emitPercentile("service.queue_wait_ms_p50", v, "ms", n, err)
	v, n, err = percentile(waits, 0.9)
	r.emitPercentile("service.queue_wait_ms_p90", v, "ms", n, err)
	r.emit("service.warm_start_frac", float64(warm)/float64(max(redim, 1)), "ratio",
		fmt.Sprintf("%d of %d re-dimensioning jobs", warm, redim))
	r.emit("service.oracle_bytes", float64(after.OracleCache.Bytes), "bytes", "at the end")
	r.emit("service.oracle_evictions", float64(after.OracleCache.Evictions-before.OracleCache.Evictions), "count", "during the traced segment")
	r.emit("service.rejected_queue", float64(after.RejectedQueue-before.RejectedQueue), "count", "during the traced segment")
	r.emit("service.rejected_memory", float64(after.RejectedMem-before.RejectedMem), "count", "during the traced segment")
	r.emit("service.retries", float64(after.Retries-before.Retries), "count", "during the traced segment")
	v, n, err = percentile(lags, 0.9)
	r.emitPercentile("loadgen.lag_p90_ms", v, "ms", n, err)
	top := 0.0
	for _, l := range lags {
		top = math.Max(top, l)
	}
	r.emit("loadgen.lag_max_ms", top, "ms", fmt.Sprintf("over %d submissions", len(lags)))
}
