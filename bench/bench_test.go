package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func TestPercentileReportsCountAndRejectsThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	v, n, err := percentile(xs, 0.9)
	if v != 90 || n != 100 || err != nil {
		t.Errorf("p90 of 1..100 = %v, n=%d, err=%v; want 90, 100, nil", v, n, err)
	}
	v, n, err = percentile(xs[:99], 0.9)
	if !errors.Is(err, errFewSamples) || n != 99 || v != 91 { // xs[:99] is 100 down to 2
		t.Errorf("p90 of 99 samples = %v, n=%d, err=%v; want the value with errFewSamples", v, n, err)
	}
	if _, _, err := percentile(xs[:20], 0.5); err != nil {
		t.Errorf("p50 of 20 samples has 10 beyond it, got %v", err)
	}
	if _, _, err := percentile(xs[:19], 0.5); !errors.Is(err, errFewSamples) {
		t.Errorf("p50 of 19 samples has 9 beyond it, got %v", err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples did not fail")
	}
}

func TestSelfTimeOverlappingAndNestedSpans(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	children := []interval{
		at(10, 30), at(20, 40), // overlapping: 30 ms covered
		at(50, 90), at(60, 70), // nested: 40 ms covered
		at(95, 120), // runs past the parent: 5 ms inside it
		at(-5, 2),   // starts before the parent: 2 ms inside it
	}
	if got, want := selfTime(at(0, 100), children), 23*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got, want := unionLength(children), 30*time.Millisecond+40*time.Millisecond+25*time.Millisecond+7*time.Millisecond; got != want {
		t.Errorf("unionLength = %v, want %v", got, want)
	}
	if got := selfTime(at(0, 10), nil); got != 10*time.Millisecond {
		t.Errorf("selfTime without children = %v, want the whole span", got)
	}
}

// TestOpenLoopLatencyFromDueTime serves a daemon stand-in whose admission
// takes 60 ms, so a burst of jobs due at once leaves the generator further
// behind with every POST. Each job's latency must run from its due time and
// so include that lag, not start when the request finally went out.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(60 * time.Millisecond)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"warm_start":false}`)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UTC()
		enc := json.NewEncoder(w)
		for _, typ := range []string{"queued", "started", "done"} {
			enc.Encode(service.Event{Type: typ, At: now, Power: 1})
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	d := &daemon{base: ts.URL, client: ts.Client()}
	jobs := make([]loadJob, 4)
	for i := range jobs {
		jobs[i] = loadJob{Kind: "pattern", Spec: service.JobSpec{ID: fmt.Sprintf("j%d", i)}}
	}
	subs, _ := d.openLoop(jobs)
	for i := range subs {
		s := &subs[i]
		if !s.ok() {
			t.Fatalf("job %d: %v (terminal %q)", i, s.err, s.terminal)
		}
		lag := s.sent.Sub(s.due)
		if i > 0 && lag < time.Duration(i)*50*time.Millisecond {
			t.Errorf("job %d went out %v late; the stand-in should have delayed it by about %d x 60ms", i, lag, i)
		}
		if got := s.latency(); got < lag+s.admit {
			t.Errorf("job %d latency %v excludes the generator's lag %v", i, got, lag)
		}
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	gen := map[string]func(r *run) (any, error){
		"dimension": func(r *run) (any, error) {
			ins := dimensionInputs(r)
			var specs []json.RawMessage
			for _, in := range ins[:6] {
				n, err := in.network()
				if err != nil {
					return nil, err
				}
				spec, err := n.MarshalSpec()
				if err != nil {
					return nil, err
				}
				specs = append(specs, spec)
			}
			return []any{ins, specs}, nil
		},
		"windimd": func(r *run) (any, error) { return windimdJobs(r, 1, "job", 15*time.Second, 0) },
		"shard":   func(r *run) (any, error) { return shardInputs(r), nil },
		"netsim":  func(r *run) (any, error) { return netsimInputs(r), nil },
	}
	for name, g := range gen {
		encode := func(seed uint64) []byte {
			v, err := g(&run{seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return data
		}
		a, b, c := encode(7), encode(7), encode(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations at seed 7 differ", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate identical inputs", name)
		}
	}
}

// TestQuickRuns drives every workload, untraced and traced, through the
// same entry point and code paths as a full run, on small inputs.
func TestQuickRuns(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := benchMain([]string{"-workload", w.Name, "-seed", "3", "-quick", "-trace", trace,
					"-benchmark", "../BENCHMARK.json", "-workdir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}
