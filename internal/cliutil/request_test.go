package cliutil

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestJobSpecMarshalFixture pins the normalised form windimd journals
// (json.Marshal of a parsed JobSpec) to the bytes earlier daemons wrote,
// so spooled records keep their meaning across upgrades.
func TestJobSpecMarshalFixture(t *testing.T) {
	for i, c := range []struct{ in, want string }{
		{
			`{"id":"fixture-1","kind":"shard","shard":{"procs":3,"slabs":6,"axis":1,"slab_retries":0,"allow_lost":1,"max_hosts_lost":1,"lease_ttl_ms":1500,"slab_deadline_ms":60000},"example":"canada4","rates":[7, 6.5, 5,11e0],"evaluator":"exact","objective":"min-class","max_window":9,"workers":2,"exact_engine":true,"timeout_ms":5000,"max_retries":0,"degrade_after":3,"min_scenarios":2,"checkpoint_every":4}`,
			`{"id":"fixture-1","kind":"shard","shard":{"procs":3,"slabs":6,"axis":1,"slab_retries":0,"allow_lost":1,"max_hosts_lost":1,"lease_ttl_ms":1500,"slab_deadline_ms":60000},"example":"canada4","rates":[7,6.5,5,11],"evaluator":"exact","objective":"min-class","max_window":9,"workers":2,"exact_engine":true,"timeout_ms":5000,"max_retries":0,"degrade_after":3,"min_scenarios":2,"checkpoint_every":4}`,
		},
		{
			`{"network": {"name": "mini",
			  "nodes": ["a", "b"]}, "topo":"mesh:8,3,6","topo_seed":0,"scenarios":{"scenarios":[{"name":"cut","capacity_scale":{"x":0.5}}]}, "robust":"weighted","start":[1,2,1,1,4,3],"eval_timeout_ms":100}`,
			`{"network":{"name":"mini","nodes":["a","b"]},"topo":"mesh:8,3,6","scenarios":{"scenarios":[{"name":"cut","capacity_scale":{"x":0.5}}]},"robust":"weighted","start":[1,2,1,1,4,3],"eval_timeout_ms":100}`,
		},
	} {
		// The first spec is a valid request and goes through admission's
		// parse; the second names two networks and is decoded alone.
		var spec JobSpec
		if i == 0 {
			job, err := ParseJob([]byte(c.in))
			if err != nil {
				t.Fatal(err)
			}
			spec = job.Spec
		} else if err := json.Unmarshal([]byte(c.in), &spec); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("json.Marshal(JobSpec) =\n%s\nwant\n%s", got, c.want)
		}
	}
}

// TestShardOptions: omitted shard knobs take the coordinator's defaults,
// given ones map one to one.
func TestShardOptions(t *testing.T) {
	job, err := ParseJob([]byte(`{"example":"canada2","kind":"shard"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := job.ShardOptions(); got.Axis != -1 || got.MaxRetries != -1 || got.Procs != 0 || got.LeaseTTL != 0 {
		t.Errorf("defaults: %+v", got)
	}
	job, err = ParseJob([]byte(`{"example":"canada2","kind":"shard","shard":{"procs":3,"slabs":5,"axis":1,
		"slab_retries":0,"allow_lost":1,"max_hosts_lost":2,"lease_ttl_ms":1500,"slab_deadline_ms":60000}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := shard.Options{Procs: 3, Slabs: 5, Axis: 1, MaxRetries: 0, AllowLost: 1, MaxHostsLost: 2,
		LeaseTTL: 1500 * time.Millisecond, SlabDeadline: time.Minute}
	if got := job.ShardOptions(); got.Procs != want.Procs || got.Slabs != want.Slabs || got.Axis != want.Axis ||
		got.MaxRetries != want.MaxRetries || got.AllowLost != want.AllowLost || got.MaxHostsLost != want.MaxHostsLost ||
		got.LeaseTTL != want.LeaseTTL || got.SlabDeadline != want.SlabDeadline {
		t.Errorf("ShardOptions = %+v, want %+v", got, want)
	}
}
