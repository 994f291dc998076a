package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/convolution"
	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/qnet"
)

// exactOracleCap bounds the population lattice of a single candidate the
// convolution oracle will answer; larger candidates fall through to the
// exact MVA recursion exactly as before the oracle existed. The cap is
// candidate-local — whether a window vector is served by convolution is a
// function of that vector alone, never of what else the search evaluated —
// which keeps the speculative-parallel search deterministic. It matches
// the exact fallback tier's own lattice cap.
const exactOracleCap = exactFallbackLattice

// errOracleDead marks a convOracle whose engine construction failed (for
// example a network outside the convolution solver's product form); every
// later query skips the shared engine and decides on a private box.
var errOracleDead = errors.New("core: convolution oracle disabled")

// convOracle wraps one shared convolution.Engine for one reference
// network: a single normalisation-constant lattice, grown lazily to the
// bounding box of the candidates it has answered, serving every exact
// evaluation of the search (and, via exactCache, every scenario engine of
// DimensionRobust built on the same structure). The lattice is rebuildable
// state derived from the network alone — it is never serialised into
// checkpoints; a resumed run rebuilds it on demand.
type convOracle struct {
	net     *qnet.Network
	workers int
	// maxBox, when non-nil, is a hard per-chain ceiling forwarded to every
	// engine the oracle builds (convolution.EngineOptions.MaxBox): a slab
	// worker of the sharded search sets it to its slab corner so that no
	// candidate — shared box or private fallback — can grow a lattice past
	// the slab's memory budget. Candidates beyond it fall through to the
	// exact MVA recursion, a point-local decision that preserves the
	// oracle's determinism contract.
	maxBox numeric.IntVector

	mu   sync.Mutex
	eng  *convolution.Engine
	dead bool
}

func newConvOracle(ref *qnet.Network, workers int, maxBox numeric.IntVector) *convOracle {
	if workers < 1 {
		workers = 1
	}
	return &convOracle{net: ref, workers: workers, maxBox: maxBox}
}

// solve answers the exact solution at the populations currently set in
// model's chains, or nil when the oracle cannot serve the candidate (a
// too-large lattice, an unsupported network, numerical trouble) and the
// caller should run the exact MVA recursion instead.
//
// Determinism: the capacity coefficients of the lattice are point-local
// (see convolution.capacityAt), so the value returned for a candidate
// never depends on the shared box's growth history — and when the shared
// box cannot answer (cumulative budget, instability introduced while
// growing toward a DIFFERENT candidate) the oracle retries on a private
// box of exactly the candidate's populations, which yields the same
// values. Whether and what the oracle answers is therefore a pure function
// of the candidate, as the speculative-parallel search requires.
func (o *convOracle) solve(model *qnet.Network) *mva.Solution {
	pops := make(numeric.IntVector, len(model.Chains))
	for r := range model.Chains {
		pops[r] = model.Chains[r].Population
	}
	if _, err := numeric.LatticeSize(pops, exactOracleCap); err != nil {
		return nil
	}
	if o.maxBox != nil {
		// Point-local slab guard: a candidate beyond the slab corner is
		// declined before any engine is touched, exactly as a too-large
		// lattice would be.
		for r, p := range pops {
			if r >= len(o.maxBox) || p > o.maxBox[r] {
				return nil
			}
		}
	}
	m, err := o.sharedMeans(pops)
	if err != nil {
		m, err = o.privateMeans(pops)
		if err != nil {
			return nil
		}
	}
	return meansSolution(m, model)
}

// sharedMeans evaluates on the long-lived engine, constructing it at the
// first candidate's box (convolution.Engine grows it from there).
func (o *convOracle) sharedMeans(pops numeric.IntVector) (*convolution.Means, error) {
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return nil, errOracleDead
	}
	if o.eng == nil {
		eng, err := convolution.NewEngine(o.net, pops, convolution.EngineOptions{Workers: o.workers, MaxBox: o.maxBox})
		if err != nil {
			o.dead = true
			o.mu.Unlock()
			return nil, err
		}
		o.eng = eng
	}
	eng := o.eng
	o.mu.Unlock()
	// The engine synchronises internally: reads inside the box share a
	// read lock, growth serialises under a write lock.
	return eng.MeansAt(pops)
}

// reserve sizes the shared engine to box in one build. An exhaustive scan
// queries every point of its box, so lazy growth would end at the same
// box after many incremental extensions; building it up front pays for
// the lattice once. Values never depend on growth history (see solve), so
// reserving changes no answer. A box beyond the oracle's caps is skipped,
// and a failed build leaves the oracle as it was — not dead — so lazy
// growth then proceeds exactly as without the reservation.
func (o *convOracle) reserve(box numeric.IntVector) {
	if _, err := numeric.LatticeSize(box, min(exactOracleCap, convolution.DefaultEngineBudget)); err != nil {
		return
	}
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return
	}
	if o.eng == nil {
		if eng, err := convolution.NewEngine(o.net, box, convolution.EngineOptions{Workers: o.workers, MaxBox: o.maxBox}); err == nil {
			o.eng = eng
		}
		o.mu.Unlock()
		return
	}
	eng := o.eng
	o.mu.Unlock()
	_ = eng.EnsureBox(box)
}

// privateMeans evaluates on a throwaway engine built exactly at the
// candidate — the deterministic fallback when the shared box cannot
// answer for reasons the candidate does not share.
func (o *convOracle) privateMeans(pops numeric.IntVector) (*convolution.Means, error) {
	eng, err := convolution.NewEngine(o.net, pops, convolution.EngineOptions{Workers: o.workers, Budget: exactOracleCap, MaxBox: o.maxBox})
	if err != nil {
		return nil, err
	}
	return eng.MeansAt(pops)
}

// meansSolution converts the engine's means into the mva.Solution shape
// the evaluation pipeline consumes. Queue times follow from Little's law
// per station and chain: t_ir = q_ir / (V_ir * lambda_r).
func meansSolution(m *convolution.Means, model *qnet.Network) *mva.Solution {
	sol := &mva.Solution{
		Throughput: m.Throughput,
		QueueLen:   m.QueueLen,
		QueueTime:  numeric.NewMatrix(model.N(), model.R()),
		Solver:     "convolution",
	}
	for i := 0; i < model.N(); i++ {
		for r := 0; r < model.R(); r++ {
			lam := m.Throughput[r] * model.Chains[r].Visits[i]
			if q := m.QueueLen.At(i, r); lam > 0 && q > 0 {
				sol.QueueTime.Set(i, r, q/lam)
			}
		}
	}
	return sol
}

// memoryBytes reports the oracle's retained lattice memory (0 until the
// first candidate builds the shared engine, or after construction failed).
func (o *convOracle) memoryBytes() int64 {
	o.mu.Lock()
	eng := o.eng
	o.mu.Unlock()
	if eng == nil {
		return 0
	}
	return eng.MemoryBytes()
}

// OracleCache shares convolution oracles across Engines keyed by the
// population-independent structure of their reference networks, so the
// per-scenario engines of one DimensionRobust run — and, in the windimd
// service, concurrent jobs over the same network — reuse a single lattice
// wherever the model structure matches.
//
// The cache is also the unit of memory accounting for multi-tenant
// admission control: Bytes sums the retained lattice memory of every
// cached oracle, and EvictTo drops least-recently-used oracles until the
// total fits a target. Eviction is always safe — an Engine holding an
// evicted oracle keeps using it (the lattice is rebuildable state derived
// from the network alone); eviction only prevents NEW engines from sharing
// it, so the memory is reclaimed when the last holder finishes.
type OracleCache struct {
	mu        sync.Mutex
	budget    int64
	seq       int64
	m         map[string]*oracleEntry
	evictions int64
}

type oracleEntry struct {
	oracle *convOracle
	last   int64 // recency: cache sequence at last oracleFor hit
}

// NewOracleCache builds a cache with the given memory budget in bytes;
// budget <= 0 means unbounded (the DimensionRobust default). The budget is
// advisory — the cache never refuses an oracle — callers enforce it by
// calling EvictTo/TrimToBudget at admission and completion points.
func NewOracleCache(budgetBytes int64) *OracleCache {
	return &OracleCache{budget: budgetBytes, m: map[string]*oracleEntry{}}
}

// Budget returns the configured memory budget (<= 0: unbounded).
func (c *OracleCache) Budget() int64 { return c.budget }

// OracleCacheStats is a point-in-time occupancy snapshot.
type OracleCacheStats struct {
	// Oracles is the number of cached oracles (including not-yet-built
	// ones whose lattices are still empty).
	Oracles int `json:"oracles"`
	// Bytes is the summed retained lattice memory of the cached oracles.
	Bytes int64 `json:"bytes"`
	// Evictions counts oracles dropped by EvictTo since construction.
	Evictions int64 `json:"evictions"`
}

// Stats reports cache occupancy for /stats-style introspection.
func (c *OracleCache) Stats() OracleCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := OracleCacheStats{Oracles: len(c.m), Evictions: c.evictions}
	for _, e := range c.m {
		s.Bytes += e.oracle.memoryBytes()
	}
	return s
}

// EvictTo drops least-recently-used oracles until the cache's retained
// bytes are at most target (target <= 0 empties the cache entirely) and
// returns the bytes freed. Oracles still referenced by running engines
// survive in those engines; only the shared map entry is dropped.
func (c *OracleCache) EvictTo(target int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	type sized struct {
		key   string
		last  int64
		bytes int64
	}
	entries := make([]sized, 0, len(c.m))
	var total int64
	for k, e := range c.m {
		b := e.oracle.memoryBytes()
		entries = append(entries, sized{key: k, last: e.last, bytes: b})
		total += b
	}
	if total <= target {
		return 0
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].last < entries[j].last })
	var freed int64
	for _, e := range entries {
		if total <= target {
			break
		}
		delete(c.m, e.key)
		c.evictions++
		total -= e.bytes
		freed += e.bytes
	}
	return freed
}

// TrimToBudget evicts down to the configured budget (a no-op when the
// cache is unbounded) and returns the bytes freed.
func (c *OracleCache) TrimToBudget() int64 {
	if c.budget <= 0 {
		return 0
	}
	return c.EvictTo(c.budget)
}

func (c *OracleCache) oracleFor(ref *qnet.Network, workers int) *convOracle {
	key := networkKey(ref)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	if e, ok := c.m[key]; ok {
		e.last = c.seq
		return e.oracle
	}
	o := newConvOracle(ref, workers, nil)
	c.m[key] = &oracleEntry{oracle: o, last: c.seq}
	return o
}

// EstimateOracleBytes conservatively estimates the lattice memory a
// convolution oracle for network n would retain if a search explored
// windows up to maxWindow per class — the admission-control gate the
// windimd service applies before letting an ExactEngine job near the
// shared cache. The estimate is the box's lattice point count (capped by
// the engine's own build budget, which the oracle never exceeds) times the
// per-point cost of the materialised arrays: prefix and suffix chains
// (stations+1 each) plus the doubled and leave-one-out convolutions
// (at most 2·stations), all float64.
func EstimateOracleBytes(n *netmodel.Network, maxWindow int) (int64, error) {
	if maxWindow <= 0 {
		maxWindow = DefaultMaxWindow
	}
	ones := numeric.NewIntVector(len(n.Classes))
	for i := range ones {
		ones[i] = 1
	}
	model, _, err := n.ClosedModel(ones)
	if err != nil {
		return 0, err
	}
	closed := model.EffectiveClosed()
	points := 1
	for range closed.Chains {
		if points > convolution.DefaultEngineBudget/(maxWindow+1) {
			points = convolution.DefaultEngineBudget
			break
		}
		points *= maxWindow + 1
	}
	if points > convolution.DefaultEngineBudget {
		points = convolution.DefaultEngineBudget
	}
	stations := closed.N()
	perPoint := int64(8 * (2*(stations+1) + 2*stations))
	return int64(points) * perPoint, nil
}

// networkKey fingerprints everything the convolution lattice depends on
// except the chain populations: station disciplines and capacity
// functions, and per-chain visit ratios and service times, all floats
// taken bit-exactly.
func networkKey(net *qnet.Network) string {
	h := sha256.New()
	for i := range net.Stations {
		st := &net.Stations[i]
		fmt.Fprintf(h, "s%d k=%d srv=%d ol=%x rf=", i, st.Kind, st.Servers, math.Float64bits(st.OpenLoad))
		for _, r := range st.RateFactors {
			fmt.Fprintf(h, "%x,", math.Float64bits(r))
		}
	}
	for r := range net.Chains {
		ch := &net.Chains[r]
		fmt.Fprintf(h, "|c%d v=", r)
		for _, v := range ch.Visits {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
		fmt.Fprintf(h, " st=")
		for _, v := range ch.ServTime {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
	}
	return string(h.Sum(nil))
}
