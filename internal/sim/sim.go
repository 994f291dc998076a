// Package sim is a discrete-event simulator of message-switched
// store-and-forward networks with end-to-end window flow control — an
// executable version of the system Chapter 2 of the thesis describes,
// and an independent check on the queueing models of Chapters 3–4.
//
// The simulator covers all three flow-control families the thesis
// surveys:
//
//   - end-to-end windows (credits per virtual channel, §2.2.1);
//   - local flow control (per-node buffer limits with store-and-forward
//     blocking, §2.2.2) — which can produce the congestion collapse and
//     deadlock of Fig. 2.1 when windows are absent or too large;
//   - global (isarithmic) control (a fixed pool of network-wide permits,
//     §2.2.3).
//
// In its default configuration (throttled sources, per-hop resampled
// exponential message lengths, infinite buffers) the simulator realises
// exactly the closed multichain model of Fig. 4.6, so its measurements
// converge to the convolution/MVA solutions; the other knobs deliberately
// break the product-form assumptions to show what the model idealises
// away.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/netmodel"
	"repro/internal/numeric"
)

// SourceModel selects how exogenous traffic reacts to a closed window.
type SourceModel int

const (
	// SourceThrottled shuts the Poisson source off while the window is
	// full and restarts it (memorylessly) when an acknowledgement
	// returns. This is precisely the closed-chain source queue of the
	// Fig. 4.6 model.
	SourceThrottled SourceModel = iota
	// SourceBacklogged keeps the Poisson source running unconditionally;
	// messages that find the window full wait in an infinite host-side
	// backlog. Network-interior behaviour matches SourceThrottled only
	// in light traffic; the backlog exposes host-visible saturation.
	SourceBacklogged
)

func (s SourceModel) String() string {
	switch s {
	case SourceThrottled:
		return "throttled"
	case SourceBacklogged:
		return "backlogged"
	default:
		return fmt.Sprintf("SourceModel(%d)", int(s))
	}
}

// Config parameterises a simulation run.
type Config struct {
	// Windows overrides the classes' Window fields; nil uses them.
	// A window of 0 disables end-to-end control for that class
	// (unbounded credits).
	Windows numeric.IntVector
	// Seed feeds the deterministic random streams.
	Seed uint64
	// Duration is the simulated time in seconds (must be > 0).
	Duration float64
	// Warmup is the initial period excluded from all statistics.
	Warmup float64
	// Source selects the source model (default SourceThrottled).
	Source SourceModel
	// CorrelatedLengths keeps each message's length across hops (the
	// physical behaviour). The default false resamples the length at
	// every hop — Kleinrock's independence assumption, which the
	// analytic model needs.
	CorrelatedLengths bool
	// NodeBuffers[i] is node i's storage limit K_i in messages; 0 means
	// infinite. A message occupies its current node until it finishes
	// transmission to the next one; full downstream buffers block the
	// channel (local flow control).
	NodeBuffers []int
	// GlobalPermits, when > 0, enables isarithmic control: a message
	// needs one of this many permits to enter the network and releases
	// it on delivery.
	GlobalPermits int
	// Batches sets the batch count for delay confidence intervals
	// (default 20).
	Batches int
	// LengthCV sets the coefficient of variation of message lengths.
	// 0 keeps the model's exponential lengths (CV 1). Values in (0, 1)
	// use an Erlang-k approximation (k = round(1/CV^2), deterministic
	// below 0.02); values above 1 use a balanced-means two-phase
	// hyperexponential. Non-exponential lengths leave the product-form
	// model's assumptions — that gap is the point of the robustness
	// experiments.
	LengthCV float64
	// Burstiness B > 1 replaces each Poisson source with an on-off
	// (interrupted Poisson) source of the same mean rate: peak rate
	// B*S_r during exponentially distributed on-periods (mean BurstOn
	// seconds) separated by off-periods of mean BurstOn*(B-1). 0 or 1
	// keeps plain Poisson arrivals. Chapter 1's "inherently bursty"
	// traffic, made literal.
	Burstiness float64
	// BurstOn is the mean on-period in seconds when Burstiness > 1
	// (default 1).
	BurstOn float64
	// Faults, when non-nil, injects link outages, service-rate
	// degradations and per-class arrival-rate surges at scheduled
	// simulated times (see FaultSpec). Faults are deterministic: the
	// same spec and seed reproduce the same run.
	Faults *FaultSpec
}

// ClassStats reports one class's measurements.
type ClassStats struct {
	// Offered is the exogenous arrival rate actually generated
	// (messages/second, post-warmup).
	Offered float64
	// Throughput is the delivery rate (messages/second).
	Throughput float64
	// MeanDelay is the mean network delay per delivered message
	// (admission to delivery, seconds).
	MeanDelay float64
	// DelayCI95 is the 95% batch-means half-width on MeanDelay.
	DelayCI95 float64
	// DelayP95 is the 95th percentile of per-message network delay.
	DelayP95 float64
	// MeanInNetwork is the time-average number of the class's messages
	// inside the network.
	MeanInNetwork float64
	// MeanBacklog is the time-average host backlog (SourceBacklogged
	// only).
	MeanBacklog float64
	// Delivered counts post-warmup deliveries.
	Delivered int64
}

// Result reports a simulation run.
type Result struct {
	PerClass []ClassStats
	// Throughput is the total delivery rate.
	Throughput float64
	// Delay is the network-wide mean delay (delivery-weighted).
	Delay float64
	// Power is Throughput/Delay.
	Power float64
	// ChannelUtilization[l] is the fraction of post-warmup time channel
	// l was transmitting.
	ChannelUtilization []float64
	// ChannelMeanQueue[l] is the time-average number of messages stored
	// on channel l (queued + transmitting + blocked).
	ChannelMeanQueue []float64
	// NodeOccupancy[i][k] is the fraction of post-warmup time node i
	// stored exactly k messages; used for buffer sizing (local flow
	// control dimensioning).
	NodeOccupancy [][]float64
	// Deadlocked reports that the run ended with messages in the network
	// but no scheduled way for any of them to move (store-and-forward
	// deadlock — possible with finite buffers, §2.3).
	Deadlocked bool
	// Clock is the simulated end time.
	Clock float64
	// Events counts executed simulation events (scheduling overhead
	// metric; paperbench divides wall time by it for ns/event).
	Events int64
}

// Run simulates the network. The network is validated first; Config
// errors are reported before any event executes.
func Run(n *netmodel.Network, cfg Config) (*Result, error) {
	cfg, windows, err := prepare(n, cfg)
	if err != nil {
		return nil, err
	}
	s, err := newState(n, cfg, windows)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// prepare validates the network and config and resolves defaults,
// returning the normalised config and per-class windows. Run and
// NewRunner share it so a reusable runner rejects exactly what a one-shot
// run would.
func prepare(n *netmodel.Network, cfg Config) (Config, numeric.IntVector, error) {
	if err := n.Validate(); err != nil {
		return cfg, nil, err
	}
	if cfg.Duration <= 0 {
		return cfg, nil, errors.New("sim: Duration must be positive")
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Duration {
		return cfg, nil, fmt.Errorf("sim: Warmup %v outside [0, Duration)", cfg.Warmup)
	}
	windows := cfg.Windows
	if windows == nil {
		windows = n.Windows()
	}
	if len(windows) != len(n.Classes) {
		return cfg, nil, fmt.Errorf("sim: %d windows for %d classes", len(windows), len(n.Classes))
	}
	for r, w := range windows {
		if w < 0 {
			return cfg, nil, fmt.Errorf("sim: negative window %d for class %d", w, r)
		}
	}
	if cfg.NodeBuffers != nil && len(cfg.NodeBuffers) != len(n.Nodes) {
		return cfg, nil, fmt.Errorf("sim: %d node buffers for %d nodes", len(cfg.NodeBuffers), len(n.Nodes))
	}
	if cfg.NodeBuffers != nil {
		finite := false
		for _, k := range cfg.NodeBuffers {
			if k > 0 {
				finite = true
				break
			}
		}
		if finite {
			for l := range n.Channels {
				if n.Channels[l].PropDelay > 0 {
					return cfg, nil, fmt.Errorf("sim: finite node buffers cannot be combined with propagation delay (channel %s): an in-flight message has no upstream store to block into", n.Channels[l].Name)
				}
			}
		}
	}
	if cfg.GlobalPermits < 0 {
		return cfg, nil, errors.New("sim: negative GlobalPermits")
	}
	if cfg.Batches == 0 {
		cfg.Batches = 20
	}
	if cfg.Batches < 2 {
		return cfg, nil, errors.New("sim: Batches must be at least 2")
	}
	if cfg.LengthCV < 0 || math.IsNaN(cfg.LengthCV) || math.IsInf(cfg.LengthCV, 0) {
		return cfg, nil, fmt.Errorf("sim: LengthCV %v; need a non-negative finite value", cfg.LengthCV)
	}
	if cfg.Burstiness != 0 && (cfg.Burstiness < 1 || math.IsNaN(cfg.Burstiness) || math.IsInf(cfg.Burstiness, 0)) {
		return cfg, nil, fmt.Errorf("sim: Burstiness %v; need 0 (off) or a finite value >= 1", cfg.Burstiness)
	}
	if cfg.BurstOn < 0 || math.IsNaN(cfg.BurstOn) || math.IsInf(cfg.BurstOn, 0) {
		return cfg, nil, fmt.Errorf("sim: BurstOn %v; need non-negative finite seconds", cfg.BurstOn)
	}
	if cfg.Burstiness > 1 && cfg.BurstOn == 0 {
		cfg.BurstOn = 1
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(len(n.Channels), len(n.Classes)); err != nil {
			return cfg, nil, err
		}
	}
	return cfg, windows, nil
}

// resultFinish derives the aggregate fields once per-class stats are in.
func (r *Result) finish() {
	var totalDelay float64
	var delivered int64
	for _, c := range r.PerClass {
		r.Throughput += c.Throughput
		totalDelay += c.MeanDelay * float64(c.Delivered)
		delivered += c.Delivered
	}
	if delivered > 0 {
		r.Delay = totalDelay / float64(delivered)
	}
	if r.Delay > 0 && !math.IsNaN(r.Delay) {
		r.Power = r.Throughput / r.Delay
	}
}
