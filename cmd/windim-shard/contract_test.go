package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shard"
)

// TestRequestContract runs the exhaustive rows of the request table
// (internal/cliutil/testdata/requests.json) through windim-shard: it
// resolves each into the network bytes and core options of the JSON
// request, and reports the windows, evaluation count and power bits of
// the single-process exhaustive search over them, which is what windim
// runs for the row. cmd/windim's TestRequestContract holds windim to the
// row's windimd job.
func TestRequestContract(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	data, err := os.ReadFile("../../internal/cliutil/testdata/requests.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name        string          `json:"name"`
		Request     json.RawMessage `json:"request"`
		WindimShard []string        `json:"windim_shard"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	exhaustive := 0
	for _, row := range rows {
		if row.WindimShard == nil {
			continue
		}
		exhaustive++
		t.Run(row.Name, func(t *testing.T) {
			parsed, err := service.ParseJob(row.Request)
			if err != nil {
				t.Fatalf("windimd refuses %s: %v", row.Request, err)
			}
			args := append([]string{"-spool", filepath.Join(t.TempDir(), "spool")}, row.WindimShard...)
			c, err := parseArgs(args)
			if err != nil {
				t.Fatalf("windim-shard refuses %v: %v", args, err)
			}
			defer c.stop()
			gotSpec, err := c.job.Net.MarshalSpec()
			if err != nil {
				t.Fatal(err)
			}
			wantSpec, err := parsed.Net.MarshalSpec()
			if err != nil {
				t.Fatal(err)
			}
			// Workers <= 1 is serial however it is spelled: windim-shard's
			// -workers defaults to 1, the JSON field to 0.
			got, want := c.copts, parsed.Options()
			got.Workers, want.Workers = max(got.Workers, 1), max(want.Workers, 1)
			if !bytes.Equal(gotSpec, wantSpec) || !reflect.DeepEqual(got, want) {
				t.Fatalf("windim-shard resolves %s\n%+v\nwindimd resolves %s\n%+v", gotSpec, got, wantSpec, want)
			}

			res, err := shard.Run(c.job.Net, c.copts, c.sopts)
			if err != nil {
				t.Fatal(err)
			}
			single, err := core.Dimension(parsed.Net, parsed.Options())
			if err != nil {
				t.Fatal(err)
			}
			if !single.Windows.Equal(res.Windows) ||
				math.Float64bits(res.Metrics.Power) != math.Float64bits(single.Metrics.Power) ||
				res.Evaluations != single.Search.Evaluations {
				t.Fatalf("windim-shard: windows %v, power %v, %d evaluations; single process: windows %v, power %v, %d evaluations",
					res.Windows, res.Metrics.Power, res.Evaluations, single.Windows, single.Metrics.Power, single.Search.Evaluations)
			}
		})
	}
	if exhaustive == 0 {
		t.Fatal("the request table has no windim-shard rows")
	}
}
