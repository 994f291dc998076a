package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for it
// to mean anything: a p90 over 40 samples is the fourth-largest value, not a
// tail.
const minBeyond = 10

var errFewSamples = errors.New("fewer than 10 samples beyond the percentile")

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and the
// sample count. When fewer than minBeyond samples lie beyond it the value is
// still returned, together with an error wrapping errFewSamples.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, errors.New("percentile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(int(math.Ceil(p*float64(n))), 1)
	if beyond := n - rank; beyond < minBeyond {
		return s[rank-1], n, fmt.Errorf("%w: p%g of %d samples has %d beyond it", errFewSamples, 100*p, n, beyond)
	}
	return s[rank-1], n, nil
}

// median is the middle of xs (the mean of the two middles for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// geomean is the geometric mean of positive xs; NaN if any is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// interval is a closed span of wall-clock time.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// unionLength is the total time covered by at least one interval.
func unionLength(ivs []interval) time.Duration {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range s {
		if !iv.end.After(iv.start) {
			continue
		}
		if open && !iv.start.After(cur.end) {
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
			continue
		}
		if open {
			total += cur.dur()
		}
		cur, open = iv, true
	}
	if open {
		total += cur.dur()
	}
	return total
}

// selfTime is the part of parent covered by none of its children: a layer's
// own time once the calls it made into lower layers are taken out. Children
// may overlap (parallel calls) and nest; only their union counts, clipped to
// the parent.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		clipped = append(clipped, c)
	}
	return parent.dur() - unionLength(clipped)
}

// usage is this process's CPU time and peak resident set so far.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss * 1024, // Linux reports kilobytes
	}
}

// endToEnd collects what one workload measured with tracing off; report
// turns it into the end-to-end metrics every workload prints.
type endToEnd struct {
	setups  []time.Duration // one per set-up repetition
	latency []time.Duration // one per completed op
	ops     int             // completed ops
	window  time.Duration   // the wall time ops_per_s divides by
	cpu     time.Duration   // user+sys CPU over the timed loop
	rss     int64           // peak RSS at the end of the timed loop
	power   []float64       // network power of the results power_geomean covers
}

func (e *endToEnd) report(r *run) {
	r.emit("ops_per_s", float64(e.ops)/e.window.Seconds(), "1/s", fmt.Sprintf("%d ops in %.3f s", e.ops, e.window.Seconds()))
	lat := msAll(e.latency)
	for _, q := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}} {
		v, n, err := percentile(lat, q.p)
		r.emitPercentile(q.name, v, "ms", n, err)
	}
	setups := make([]float64, len(e.setups))
	for i, d := range e.setups {
		setups[i] = d.Seconds()
	}
	r.emit("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	r.emit("cpu_ms_per_op", ms(e.cpu)/float64(max(e.ops, 1)), "ms", "user+sys")
	r.emit("peak_rss_mb", float64(e.rss)/(1<<20), "MB", "")
	r.emit("power_geomean", geomean(e.power), "msg/s2", fmt.Sprintf("over %d results", len(e.power)))
}

// addResult counts the i-th op of a closed loop as completed. Only the first
// minTimedOps ops, which every full run times, count towards power_geomean,
// so a faster program that reaches further into the inputs is scored on the
// same ones.
func (e *endToEnd) addResult(i int, power float64) {
	e.ops++
	if i < minTimedOps {
		e.power = append(e.power, power)
	}
}

// timedLoop calls op(0), op(1), ... until d has passed and at least minOps
// calls are made, counting each call as attempted and each error as
// failed. It returns the latencies of the calls that succeeded, the loop's
// wall time, and the CPU it used with the peak RSS at its end.
func timedLoop(r *run, d time.Duration, minOps int, op func(i int) error) ([]time.Duration, time.Duration, usage) {
	var lat []time.Duration
	u0 := readUsage()
	start := time.Now()
	for i := 0; time.Since(start) < d || i < minOps; i++ {
		t0 := time.Now()
		err := op(i)
		took := time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
		} else {
			lat = append(lat, took)
		}
	}
	window := time.Since(start)
	u1 := readUsage()
	return lat, window, usage{cpu: u1.cpu - u0.cpu, maxRSS: u1.maxRSS}
}

// exactOps is how many leading ops of a traced run the exact counts sum
// over, and the fewest ops a traced loop runs: a fixed set of inputs, so
// the counts repeat bit-for-bit at a seed however fast the machine is. A
// quick run counts its first op only.
func (r *run) exactOps() int {
	if r.quick {
		return 1
	}
	return 16
}

// minTimedOps is the fewest ops a closed loop times, past its duration if
// need be, so that latency_p90_ms always has ten samples beyond it.
const minTimedOps = 100

// timedOps is the op floor of a run's timed loop.
func (r *run) timedOps() int {
	if r.quick {
		return 0
	}
	return minTimedOps
}

// setupRepeats is how many times a workload repeats its set-up; setup_s is
// the median, steadier than any single cold start.
const setupRepeats = 9

// timeSetups runs set-up repeatedly and returns each repetition's wall time;
// the last repetition's state is the one the timed loop uses.
func timeSetups(r *run, setup func(last bool) error) ([]time.Duration, error) {
	n := setupRepeats
	if r.quick {
		n = 2
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
