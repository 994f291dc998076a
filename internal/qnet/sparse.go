package qnet

// Sparse is a compiled, population-independent view of a Network's chain
// structure: per-chain visit lists in increasing station order (CSR over
// chains) plus the station-major transpose (CSR over stations) listing the
// chains visiting each station. Window flow-control chains visit roughly
// hop-count stations out of potentially hundreds, so the solvers' hot
// loops iterate these lists instead of dense Visits arrays, making a
// fixed-point sweep cost O(total route length) rather than O(N·R).
//
// Two contracts make the compiled form a pure accelerator:
//
//   - Entries are stored in increasing station order per chain (and
//     increasing chain order per station) — exactly the order the dense
//     loops visit them. Skipped terms all have visit ratio exactly 0 and
//     contribute an exact +0.0 to every non-negative accumulation, so
//     sparse sums reproduce dense sums bit for bit.
//   - The compiled arrays copy the chain data; populations are NOT
//     captured. A Sparse therefore stays valid across candidate window
//     vectors (core.Engine compiles once at construction and reuses it for
//     every evaluation) as long as the stations, visit ratios and service
//     times are untouched — which the solvers' immutability convention
//     guarantees.
type Sparse struct {
	// NSt and NCh are the compiled network's station and chain counts.
	NSt, NCh int

	// Chain-major CSR: chain r's entries are ChainPtr[r]..ChainPtr[r+1]
	// (exclusive), in increasing station order.
	ChainPtr []int32
	// EntStation[e] is the station index of entry e.
	EntStation []int32
	// EntVisit[e] and EntServ[e] are the chain's visit ratio and mean
	// service time at the entry's station (always Visit > 0).
	EntVisit []float64
	EntServ  []float64
	// EntDemand[e] = EntVisit[e]*EntServ[e], hoisted out of the sweeps so
	// the fixed points never recompute Visits[i]*ServTime[i].
	EntDemand []float64
	// EntIS[e] marks entries at infinite-server (pure delay) stations.
	EntIS []bool

	// Station-major CSR (the transpose): station i's visiting chains are
	// StatPtr[i]..StatPtr[i+1] (exclusive), in increasing chain order.
	StatPtr []int32
	// StatChain[m] is the chain index of transpose entry m.
	StatChain []int32
	// StatEntry[m] is the chain-major entry index of the same
	// (chain, station) pair, giving the transpose loops O(1) access to the
	// precomputed demand/service values.
	StatEntry []int32
	// EntTrans[e] is the transpose slot of entry e, the inverse of
	// StatEntry: StatEntry[EntTrans[e]] == e. The other chains at entry e's
	// station are the two runs StatPtr[i]..EntTrans[e] and
	// EntTrans[e]+1..StatPtr[i+1].
	EntTrans []int32

	// IsIS[i] marks infinite-server stations.
	IsIS []bool
	// DemandSum[r] is chain r's total service demand sum_i V_ir*s_ir,
	// accumulated in increasing station order (the cold-seed throughput
	// denominator).
	DemandSum []float64

	// Identity of the source arrays, for Matches: a network whose station
	// and per-chain slices are the very same backing arrays is guaranteed
	// (by the immutability convention) to carry the same compiled values.
	stations *Station
	visitPtr []*float64
	servPtr  []*float64
}

// Compile builds the sparse view of a validated network. The network's
// populations are ignored; see the type comment for the reuse contract.
func Compile(n *Network) *Sparse {
	nSt, nCh := n.N(), n.R()
	total := 0
	for r := range n.Chains {
		for _, v := range n.Chains[r].Visits {
			if v > 0 {
				total++
			}
		}
	}
	sp := &Sparse{
		NSt:        nSt,
		NCh:        nCh,
		ChainPtr:   make([]int32, nCh+1),
		EntStation: make([]int32, total),
		EntVisit:   make([]float64, total),
		EntServ:    make([]float64, total),
		EntDemand:  make([]float64, total),
		EntIS:      make([]bool, total),
		IsIS:       make([]bool, nSt),
		DemandSum:  make([]float64, nCh),
		visitPtr:   make([]*float64, nCh),
		servPtr:    make([]*float64, nCh),
	}
	if nSt > 0 {
		sp.stations = &n.Stations[0]
	}
	for i := range n.Stations {
		sp.IsIS[i] = n.Stations[i].Kind == IS
	}
	e := 0
	for r := range n.Chains {
		ch := &n.Chains[r]
		sp.ChainPtr[r] = int32(e)
		if len(ch.Visits) > 0 {
			sp.visitPtr[r] = &ch.Visits[0]
		}
		if len(ch.ServTime) > 0 {
			sp.servPtr[r] = &ch.ServTime[0]
		}
		d := 0.0
		for i := 0; i < nSt; i++ {
			// The full-range sum (not just the entries) mirrors the dense
			// cold seed bit for bit; zero-visit terms contribute an exact 0.
			d += ch.Visits[i] * ch.ServTime[i]
			if ch.Visits[i] <= 0 {
				continue
			}
			sp.EntStation[e] = int32(i)
			sp.EntVisit[e] = ch.Visits[i]
			sp.EntServ[e] = ch.ServTime[i]
			sp.EntDemand[e] = ch.Visits[i] * ch.ServTime[i]
			sp.EntIS[e] = sp.IsIS[i]
			e++
		}
		sp.DemandSum[r] = d
	}
	sp.ChainPtr[nCh] = int32(e)

	// Transpose: counting sort over stations keeps chains ascending per
	// station because the chain-major pass above runs in chain order.
	// StatPtr[i+1] first counts station i's entries, then holds its start
	// offset and serves as its fill cursor, which leaves it at station i's
	// end: the CSR bound.
	sp.StatPtr = make([]int32, nSt+1)
	sp.StatChain = make([]int32, total)
	sp.StatEntry = make([]int32, total)
	sp.EntTrans = make([]int32, total)
	for _, i := range sp.EntStation {
		sp.StatPtr[i+1]++
	}
	start := int32(0)
	for i := 0; i < nSt; i++ {
		start, sp.StatPtr[i+1] = start+sp.StatPtr[i+1], start
	}
	for r := 0; r < nCh; r++ {
		for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
			i := sp.EntStation[e]
			m := sp.StatPtr[i+1]
			sp.StatPtr[i+1]++
			sp.StatChain[m] = int32(r)
			sp.StatEntry[m] = e
			sp.EntTrans[e] = m
		}
	}
	return sp
}

// Entries returns the total number of (chain, station) visit pairs — the
// quantity the sparse sweeps scale with.
func (s *Sparse) Entries() int { return len(s.EntStation) }

// Matches reports whether the compiled view was built from this network's
// very backing arrays (station slice and every chain's Visits/ServTime
// data pointers). Under the solvers' immutability convention a match
// guarantees the compiled values are current; populations are free to
// differ. Engine-pooled model copies share the reference network's slices,
// so they match the engine's one compiled Sparse.
func (s *Sparse) Matches(n *Network) bool {
	if n.N() != s.NSt || n.R() != s.NCh {
		return false
	}
	if s.NSt > 0 && &n.Stations[0] != s.stations {
		return false
	}
	for r := range n.Chains {
		ch := &n.Chains[r]
		if len(ch.Visits) != s.NSt || len(ch.ServTime) != s.NSt {
			return false
		}
		if s.NSt > 0 && (&ch.Visits[0] != s.visitPtr[r] || &ch.ServTime[0] != s.servPtr[r]) {
			return false
		}
	}
	return true
}
