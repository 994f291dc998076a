package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/shard/transport"
)

// root is the repository root, seen from this package's directory.
const root = "../.."

// contractRow is one request of the table every front end resolves
// (internal/cliutil/testdata/requests.json): its JSON form, with the
// files it names inlined, and its windim and windim-shard command lines.
type contractRow struct {
	Name          string         `json:"name"`
	Request       map[string]any `json:"request"`
	NetworkFile   string         `json:"network_file"`
	ScenariosFile string         `json:"scenarios_file"`
	Windim        []string       `json:"windim"`
	WindimShard   []string       `json:"windim_shard"`
}

func loadContract(t *testing.T) []contractRow {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "internal/cliutil/testdata/requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []contractRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		r := &rows[i]
		for key, file := range map[string]string{"network": r.NetworkFile, "scenarios": r.ScenariosFile} {
			if file == "" {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(root, file))
			if err != nil {
				t.Fatal(err)
			}
			r.Request[key] = json.RawMessage(raw)
		}
		for j := range r.Windim {
			r.Windim[j] = strings.ReplaceAll(r.Windim[j], "{root}", root)
		}
	}
	return rows
}

// resolution is what a front end makes of a request: the network's spec
// bytes, the scenario set and its criterion, and the core options less
// what is not the request's (context, commit hook, checkpoint paths,
// oracle cache). Workers <= 1 is serial however it is spelled: windim's
// -workers defaults to 1, the JSON field to 0.
type resolution struct {
	Spec      string
	Scenarios []core.Scenario
	Kind      core.RobustKind
	Opts      core.Options
}

func resolve(t *testing.T, job *cliutil.Job, opts core.Options) resolution {
	t.Helper()
	spec, err := job.Net.MarshalSpec()
	if err != nil {
		t.Fatal(err)
	}
	opts.Context, opts.OnCommit, opts.Oracles = nil, nil, nil
	opts.CheckpointPath, opts.ResumePath = "", ""
	opts.Workers = max(opts.Workers, 1)
	return resolution{string(spec), job.Scenarios, job.Kind, opts}
}

// windimdJob runs spec as a job of a fresh in-process windimd (a fresh
// spool, so no warm start applies; shard jobs on an in-process fake
// fleet) and returns its finished result.
func windimdJob(t *testing.T, spec []byte) *service.JobResult {
	t.Helper()
	fleet, err := transport.NewFake([]string{"sim0", "sim1"}, shard.WorkerEnvMain, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Spool: t.TempDir(), ShardTransport: fleet,
		ShardWorkerArgv: []string{"in-process"}, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/jobs", bytes.NewReader(spec)))
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil || w.Code != http.StatusAccepted {
		t.Fatalf("POST %s: %d %s", spec, w.Code, w.Body)
	}
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/jobs/"+ack.ID, nil))
		var rec service.Record
		if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			if rec.State != service.StateDone || rec.Result == nil {
				t.Fatalf("job ended %s: %s", rec.State, rec.Error)
			}
			return rec.Result
		}
	}
	t.Fatal("windimd job did not finish within a minute")
	return nil
}

// TestRequestContract runs the request table through windim and windimd.
// Both resolve each request into the same network bytes, scenarios and
// core options, and report the same windows, evaluation count and power
// bits. windim's robust run seeds its robust search from its nominal
// optimum, so the windimd job of a robust row starts there too. The
// windim-shard half of the contract is in cmd/windim-shard.
func TestRequestContract(t *testing.T) {
	for _, row := range loadContract(t) {
		t.Run(row.Name, func(t *testing.T) {
			spec, err := json.Marshal(row.Request)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := service.ParseJob(spec)
			if err != nil {
				t.Fatalf("windimd refuses %s: %v", spec, err)
			}
			c, err := parseArgs(row.Windim)
			if err != nil {
				t.Fatalf("windim refuses %v: %v", row.Windim, err)
			}
			defer c.stop()
			got, want := resolve(t, c.job, c.opts), resolve(t, parsed, parsed.Options())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("windim resolves\n%+v\nwindimd resolves\n%+v", got, want)
			}

			var windows numeric.IntVector
			var power float64
			var evals int
			if c.job.Robust() {
				nominal, res, err := runRobust(c.job, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				row.Request["start"] = nominal.Windows
				if spec, err = json.Marshal(row.Request); err != nil {
					t.Fatal(err)
				}
				windows, power, evals = res.Windows, res.WeightedPower, res.Search.Evaluations
			} else {
				res, err := runNominal(c.job.Net, c.opts, false)
				if err != nil {
					t.Fatal(err)
				}
				windows, power, evals = res.Windows, res.Metrics.Power, res.Search.Evaluations
			}
			job := windimdJob(t, spec)
			if !windows.Equal(job.Windows) || math.Float64bits(power) != math.Float64bits(job.Power) ||
				evals != job.Evaluations {
				t.Fatalf("windim: windows %v, power %v, %d evaluations; windimd: windows %v, power %v, %d evaluations",
					windows, power, evals, job.Windows, job.Power, job.Evaluations)
			}
		})
	}
}
