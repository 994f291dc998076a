// Command windim-shard runs the fault-tolerant sharded exhaustive
// search: it slab-partitions the window box along one class axis,
// launches worker processes over a fsynced spool directory, supervises
// them (lease-fenced slab ownership, heartbeats, deadlines,
// backoff-paced retries, per-host health with blacklisting, quarantine
// of torn or stale-epoch results, graceful degradation of permanently
// lost slabs and hosts), and merges the per-slab optima into a result
// bit-identical to the single-process `windim -search exhaustive` run.
//
// Usage:
//
//	windim-shard -example canada2 -rates 20,20 -max-window 8 -spool /tmp/spool
//	windim-shard -spec network.json -procs 4 -slabs 8 -evaluator exact -exact-engine
//	windim-shard -example canada2 -max-window 6 -spool s -progress events.ndjson
//	windim-shard -example canada2 -max-window 6 -spool /mnt/nfs/spool \
//	    -transport ssh -hosts node1,node2 -max-hosts-lost 1
//
// Transports. -transport local (default) runs workers as children of
// this process. -transport ssh launches them through the system ssh
// client on the -hosts fleet; the spool must resolve to the same shared
// storage on every host, and the worker binary must exist at the same
// path remotely. -transport fake simulates a multi-host fleet
// in-process (workers are goroutines) for chaos tests and CI smokes;
// the SHARD_FAKE_CHAOS environment variable ("hostdown:slab1",
// "partition:slab2") injects machine loss and network partitions keyed
// on durable spool state.
//
// By default the coordinator re-execs its own binary in worker mode
// (the hidden -shard-worker flag); -worker-cmd points at a different
// worker binary, e.g. `windim -shard-worker`. Re-running over the same
// spool resumes: finished slabs are recovered from their durable
// results without relaunch, slabs whose lease is still live are adopted
// rather than double-launched, and interrupted slabs resume from their
// checkpoint logs. SIGTERM drains — every reachable worker
// checkpoints its slab before exit — so the next run picks up where
// this one stopped.
//
// The SHARD_FAULT environment variable ("crash:slab2,hang:slab0",
// "partition:slab1", "zombie:slab0") is a fault-injection hook honoured
// by worker mode; the chaos tests and the CI chaos smoke jobs use it to
// prove crash recovery, lease fencing and merge determinism.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/shard/transport"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == "-shard-worker" {
		os.Exit(shard.WorkerMain())
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "windim-shard:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	c, err := parseArgs(args)
	if err != nil {
		return err
	}
	defer c.stop()
	res, err := shard.Run(c.job.Net, c.copts, c.sopts)
	if err != nil {
		return err
	}
	n := c.job.Net

	fmt.Printf("network: %s (%d nodes, %d channels, %d classes)\n",
		n.Name, len(n.Nodes), len(n.Channels), len(n.Classes))
	fmt.Printf("evaluator: %v, search: sharded exhaustive (%d slabs on axis %d)\n\n",
		c.copts.Evaluator, res.Slabs, res.Axis)
	fmt.Printf("optimal windows : %s\n", report.Windows(res.Windows))
	fmt.Printf("network power   : %s (throughput %s msg/s, delay %s s)\n",
		report.Float(res.Metrics.Power, 1),
		report.Float(res.Metrics.Throughput, 2),
		report.Float(res.Metrics.Delay, 4))
	fmt.Printf("\nsearch: %d objective evaluations, %d non-converged candidates\n",
		res.Evaluations, res.NonConverged)
	fmt.Printf("shards: %d recovered, %d adopted, %d retries, %d reassigned, %d superseded, %d fenced, %d quarantined\n",
		res.Recovered, res.Adopted, res.Retries, res.Reassigned, res.Superseded, res.Fenced, res.Quarantined)
	for _, d := range res.Degraded {
		fmt.Printf("degraded slab %d: %s\n", d.Slab, d.Reason)
	}
	for _, h := range res.HostsLost {
		fmt.Printf("lost host %s: slabs redistributed\n", h)
	}
	return nil
}

// invocation is one parsed command line: the resolved request and the
// core and coordinator options with the CLI-only settings applied.
type invocation struct {
	job   *cliutil.Job
	copts core.Options
	sopts shard.Options
	stop  func()
}

// parseArgs points the flags at a kind:"shard" request's fields, resolves
// it, and applies the settings only the command line has: -no-fallback,
// the spool, the transport, the worker command, the progress stream and
// the three durations.
func parseArgs(args []string) (*invocation, error) {
	req := cliutil.JobSpec{Kind: "shard", Shard: &cliutil.ShardSpec{Axis: new(int), SlabRetries: new(int)}}
	sh := req.Shard
	fs := flag.NewFlagSet("windim-shard", flag.ContinueOnError)
	spec := fs.String("spec", "", "JSON network spec file")
	fs.StringVar(&req.Example, "example", "", "built-in example: canada2, canada4, tandemN")
	rates := fs.String("rates", "", "override class arrival rates, e.g. 20,20")
	fs.StringVar(&req.Evaluator, "evaluator", "sigma", "candidate evaluator: sigma, schweitzer, linearizer, exact")
	fs.StringVar(&req.Objective, "objective", "power", "criterion: power, min-class, sum-class")
	fs.IntVar(&req.MaxWindow, "max-window", 0, "upper bound on every window (0 = default)")
	fs.IntVar(&req.Workers, "workers", 1, "search goroutines inside each worker process")
	noFallback := fs.Bool("no-fallback", false, "disable the resilient solver chain in the workers")
	fs.BoolVar(&req.ExactEngine, "exact-engine", false, "serve exact evaluations from a slab-bounded convolution lattice per worker")
	spool := fs.String("spool", "", "spool directory for manifest, leases, slab checkpoints and results (required; reuse to resume)")
	transportName := fs.String("transport", "local", "worker transport: local, ssh, fake")
	hosts := fs.String("hosts", "", "comma-separated worker hosts (ssh and fake transports)")
	sshClient := fs.String("ssh", "ssh", "ssh client binary (ssh transport)")
	sshOpts := fs.String("ssh-opts", "", "extra ssh client options, space-separated, e.g. '-p 2222' (ssh transport)")
	fs.IntVar(&sh.Procs, "procs", 2, "concurrently running worker processes")
	fs.IntVar(&sh.Slabs, "slabs", 0, "slab count (0 = 2x procs, clamped to the axis width)")
	fs.IntVar(sh.Axis, "axis", -1, "class axis to partition (-1 = widest)")
	fs.IntVar(sh.SlabRetries, "retries", 2, "relaunches per slab beyond the first attempt before it is lost")
	fs.IntVar(&sh.AllowLost, "allow-lost", 0, "tolerate up to this many lost slabs, degrading gracefully with recorded reasons")
	fs.IntVar(&sh.MaxHostsLost, "max-hosts-lost", 0, "tolerate up to this many permanently lost hosts, redistributing their slabs")
	leaseTTL := fs.Duration("lease-ttl", shard.DefaultLeaseTTL, "slab lease renewal deadline (bounds the zombie window and adoption wait)")
	slabDeadline := fs.Duration("slab-deadline", 2*time.Minute, "per-stride progress deadline before a worker is presumed hung and its slab reassigned")
	killGrace := fs.Duration("kill-grace", 10*time.Second, "how long a kill waits for the worker's exit before the attempt is superseded")
	workerCmd := fs.String("worker-cmd", "", "worker command line (default: this binary with -shard-worker)")
	progress := fs.String("progress", "", "append the NDJSON progress event stream to this file ('-' = stderr)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *spool == "" {
		return nil, fmt.Errorf("-spool is required")
	}
	var err error
	if req.Rates, err = cliutil.ParseRates(*rates); err != nil {
		return nil, err
	}
	if err := req.ReadSpec(*spec); err != nil {
		return nil, err
	}
	n, err := req.ResolveNetwork()
	if err != nil {
		return nil, err
	}
	job, err := req.Resolve(n)
	if err != nil {
		return nil, err
	}
	c := &invocation{job: job, copts: job.Options(), sopts: job.ShardOptions()}
	c.copts.DisableFallback = *noFallback

	c.sopts.WorkerArgv = []string{os.Args[0], "-shard-worker"}
	if *workerCmd != "" {
		c.sopts.WorkerArgv = strings.Fields(*workerCmd)
	}
	if c.sopts.Transport, err = buildTransport(*transportName, *hosts, *sshClient, *sshOpts); err != nil {
		return nil, err
	}
	closeProgress := func() {}
	switch *progress {
	case "":
	case "-":
		c.sopts.Progress = os.Stderr
	default:
		f, err := os.OpenFile(*progress, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		c.sopts.Progress = f
		closeProgress = func() { f.Close() }
	}
	// SIGTERM/Ctrl-C drains: every reachable worker checkpoints its slab
	// before exit, and re-running over the spool resumes the search.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	c.stop = func() { stop(); closeProgress() }
	c.sopts.Dir = *spool
	c.sopts.LeaseTTL = *leaseTTL
	c.sopts.SlabDeadline = *slabDeadline
	c.sopts.KillGrace = *killGrace
	c.sopts.Context = ctx
	c.sopts.Logf = func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	}
	return c, nil
}

// buildTransport resolves the -transport/-hosts flags. nil means the
// local transport (the shard package's default).
func buildTransport(name, hosts, sshClient, sshOpts string) (transport.Transport, error) {
	var fleet []string
	for _, h := range strings.Split(hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			fleet = append(fleet, h)
		}
	}
	switch name {
	case "local":
		if len(fleet) > 0 {
			return nil, fmt.Errorf("-hosts only applies to the ssh and fake transports")
		}
		return nil, nil
	case "ssh":
		if len(fleet) == 0 {
			return nil, fmt.Errorf("-transport ssh requires -hosts")
		}
		return transport.NewSSH(fleet, sshClient, strings.Fields(sshOpts)...)
	case "fake":
		if len(fleet) == 0 {
			fleet = []string{"sim0", "sim1"}
		}
		return transport.NewFake(fleet, shard.WorkerEnvMain, os.Getenv(transport.ChaosEnv))
	}
	return nil, fmt.Errorf("unknown transport %q (local, ssh, fake)", name)
}
