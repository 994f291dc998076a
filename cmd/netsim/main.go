// Command netsim runs the discrete-event simulator on a message-switched
// network with end-to-end window flow control, optionally with local
// (finite-buffer) and isarithmic (global-permit) control:
//
//	netsim -example canada2 -windows 4,4 -duration 5000 -warmup 500
//	netsim -spec net.json -windows 0,0 -buffers 4 -source backlogged
//	netsim -example canada4 -windows 1,1,1,4 -permits 10
//	netsim -example canada2 -windows 4,4 -faults faults.json
//
// A -faults file injects deterministic off-nominal windows (channel
// outages, service-rate degradations, per-class traffic surges) into
// every replication; see examples/faults.json for the format.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/cliutil"
	"repro/internal/netmodel"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	spec := fs.String("spec", "", "JSON network spec file")
	example := fs.String("example", "", "built-in example: canada2, canada4, tandemN")
	rates := fs.String("rates", "", "override class arrival rates, e.g. 20,20")
	windows := fs.String("windows", "", "window vector, e.g. 4,4 (0 disables control for a class)")
	duration := fs.Float64("duration", 5000, "simulated seconds")
	warmup := fs.Float64("warmup", 500, "warmup seconds excluded from statistics")
	seed := fs.Uint64("seed", 1, "random seed")
	source := fs.String("source", "throttled", "source model: throttled, backlogged")
	buffers := fs.Int("buffers", 0, "per-node buffer limit K (0 = infinite)")
	permits := fs.Int("permits", 0, "isarithmic permit pool size (0 = disabled)")
	correlated := fs.Bool("correlated-lengths", false, "carry each message's length across hops (break the independence assumption)")
	lengthCV := fs.Float64("length-cv", 0, "message-length coefficient of variation (0 = exponential)")
	burstiness := fs.Float64("burstiness", 0, "on-off source peak factor B (0 = Poisson)")
	burstOn := fs.Float64("burst-on", 0, "mean on-period seconds when bursty (default 1)")
	faults := fs.String("faults", "", "JSON fault spec file: outage/degradation/surge windows by channel and class name")
	reps := fs.Int("reps", 1, "independent replications (each with a derived sub-seed); >1 reports replication means with 95% CIs")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole batch, e.g. 30s (0 = none); on expiry the completed replications are reported")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", *reps)
	}
	rateVec, err := cliutil.ParseRates(*rates)
	if err != nil {
		return err
	}
	n, err := cliutil.LoadNetwork(*spec, *example, rateVec)
	if err != nil {
		return err
	}
	wv, err := cliutil.ParseWindows(*windows)
	if err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "netsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "netsim:", err)
			}
		}()
	}
	cfg := sim.Config{
		Windows:           wv,
		Seed:              *seed,
		Duration:          *duration,
		Warmup:            *warmup,
		CorrelatedLengths: *correlated,
		GlobalPermits:     *permits,
		LengthCV:          *lengthCV,
		Burstiness:        *burstiness,
		BurstOn:           *burstOn,
	}
	switch *source {
	case "throttled":
		cfg.Source = sim.SourceThrottled
	case "backlogged":
		cfg.Source = sim.SourceBacklogged
	default:
		return fmt.Errorf("unknown source model %q", *source)
	}
	if *faults != "" {
		data, err := os.ReadFile(*faults)
		if err != nil {
			return err
		}
		f, err := sim.ParseFaultSpec(data, n)
		if err != nil {
			return err
		}
		cfg.Faults = f
	}
	if *buffers > 0 {
		cfg.NodeBuffers = make([]int, len(n.Nodes))
		for i := range cfg.NodeBuffers {
			cfg.NodeBuffers[i] = *buffers
		}
	}
	// Ctrl-C / SIGTERM cancels the batch; completed replications are still
	// reported below. A second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	batch, batchErr := sim.RunReplications(ctx, n, cfg, *reps, runtime.NumCPU())
	if batch == nil {
		return batchErr
	}
	if batchErr != nil {
		// Cancelled mid-batch: report what completed.
		fmt.Fprintf(os.Stderr, "netsim: %v\n", batchErr)
	}

	fmt.Printf("network: %s, %s source, %.0f s simulated (%.0f s warmup), seed %d\n\n",
		n.Name, cfg.Source, *duration, *warmup, *seed)
	if *reps > 1 {
		return printBatch(n, batch, *reps)
	}
	res := batch.Reps[0].Result
	if res == nil {
		return batch.Reps[0].Err
	}
	ct := &report.Table{
		Title:   "Per-class results",
		Headers: []string{"Class", "Offered", "Throughput", "Delay (s)", "±CI95", "In network", "Backlog"},
	}
	for r := range res.PerClass {
		c := &res.PerClass[r]
		ct.AddRow(n.Classes[r].Name,
			report.Float(c.Offered, 2), report.Float(c.Throughput, 2),
			report.Float(c.MeanDelay, 5), report.Float(c.DelayCI95, 5),
			report.Float(c.MeanInNetwork, 3), report.Float(c.MeanBacklog, 2))
	}
	if _, err := ct.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	lt := &report.Table{
		Title:   "Per-channel results",
		Headers: []string{"Channel", "Utilisation", "Mean stored"},
	}
	for l := range res.ChannelUtilization {
		lt.AddRow(n.Channels[l].Name,
			report.Float(res.ChannelUtilization[l], 4),
			report.Float(res.ChannelMeanQueue[l], 4))
	}
	if _, err := lt.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nnetwork throughput: %s msg/s, delay: %s s, power: %s\n",
		report.Float(res.Throughput, 3), report.Float(res.Delay, 5), report.Float(res.Power, 1))
	if res.Deadlocked {
		fmt.Println("WARNING: the run ended in store-and-forward deadlock")
	}
	return nil
}

// printBatch renders the aggregate view of a multi-replication run:
// replication means with Student-t 95% half-widths instead of the
// single-run detail tables.
func printBatch(n *netmodel.Network, b *sim.BatchResult, reps int) error {
	fmt.Printf("replications: %d completed, %d failed (of %d requested)\n\n",
		b.Completed, b.Failed, reps)
	ct := &report.Table{
		Title:   "Per-class results (replication means, 95% CI)",
		Headers: []string{"Class", "Throughput", "±CI95", "Delay (s)", "±CI95"},
	}
	for r := range b.PerClass {
		c := &b.PerClass[r]
		ct.AddRow(n.Classes[r].Name,
			report.Float(c.Throughput, 2), report.Float(c.ThroughputCI95, 2),
			report.Float(c.Delay, 5), report.Float(c.DelayCI95, 5))
	}
	if _, err := ct.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nnetwork throughput: %s ±%s msg/s, delay: %s ±%s s, power: %s ±%s\n",
		report.Float(b.Throughput, 3), report.Float(b.ThroughputCI95, 3),
		report.Float(b.Delay, 5), report.Float(b.DelayCI95, 5),
		report.Float(b.Power, 1), report.Float(b.PowerCI95, 1))
	if b.Deadlocked > 0 {
		fmt.Printf("WARNING: %d replication(s) ended in store-and-forward deadlock\n", b.Deadlocked)
	}
	for i := range b.Reps {
		if b.Reps[i].Err != nil {
			fmt.Printf("replication %d failed: %v\n", i, b.Reps[i].Err)
		}
	}
	return nil
}
