package qnet

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

func randomSparseNet(s *rng.Stream) *Network {
	nSt := 2 + s.Intn(12)
	nCh := 1 + s.Intn(6)
	net := &Network{Stations: make([]Station, nSt), Chains: make([]Chain, nCh)}
	for i := range net.Stations {
		kind := FCFS
		switch s.Intn(3) {
		case 1:
			kind = PS
		case 2:
			kind = IS
		}
		net.Stations[i] = Station{Name: fmt.Sprintf("s%d", i), Kind: kind}
	}
	for r := range net.Chains {
		visits := make([]float64, nSt)
		serv := make([]float64, nSt)
		deg := 1 + s.Intn(nSt)
		for placed := 0; placed < deg; {
			i := s.Intn(nSt)
			if visits[i] > 0 {
				continue
			}
			visits[i] = 0.25 * float64(1+s.Intn(8))
			serv[i] = 0.01 + s.Float64()
			placed++
		}
		net.Chains[r] = Chain{
			Name: fmt.Sprintf("c%d", r), Population: s.Intn(5),
			Visits: visits, ServTime: serv,
		}
	}
	return net
}

// TestCompileFidelity checks, over random networks, that the compiled
// sparse view is exactly the dense arrays' support: chain-major entries
// enumerate the positive visits in increasing station order with the
// dense values, the station-major transpose is its exact inverse in
// increasing chain order (EntTrans leading each entry back to its slot),
// and the per-chain demand sums match the dense
// full-range accumulation bitwise.
func TestCompileFidelity(t *testing.T) {
	master := rng.New(0xc0111)
	for trial := 0; trial < 50; trial++ {
		net := randomSparseNet(master.Split(uint64(trial)))
		sp := Compile(net)
		if sp.NSt != net.N() || sp.NCh != net.R() {
			t.Fatalf("trial %d: dims %dx%d, want %dx%d", trial, sp.NSt, sp.NCh, net.N(), net.R())
		}
		entries := 0
		for r := range net.Chains {
			ch := &net.Chains[r]
			e := sp.ChainPtr[r]
			lastStation := -1
			for i := 0; i < net.N(); i++ {
				if ch.Visits[i] <= 0 {
					continue
				}
				entries++
				if e >= sp.ChainPtr[r+1] {
					t.Fatalf("trial %d chain %d: ran out of entries at station %d", trial, r, i)
				}
				if int(sp.EntStation[e]) != i {
					t.Fatalf("trial %d chain %d entry %d: station %d, want %d", trial, r, e, sp.EntStation[e], i)
				}
				if int(sp.EntStation[e]) <= lastStation {
					t.Fatalf("trial %d chain %d: stations not increasing", trial, r)
				}
				lastStation = i
				if sp.EntVisit[e] != ch.Visits[i] || sp.EntServ[e] != ch.ServTime[i] {
					t.Fatalf("trial %d chain %d station %d: visit/serv mismatch", trial, r, i)
				}
				if sp.EntDemand[e] != ch.Visits[i]*ch.ServTime[i] {
					t.Fatalf("trial %d chain %d station %d: demand not bitwise Visits*ServTime", trial, r, i)
				}
				if sp.EntIS[e] != (net.Stations[i].Kind == IS) {
					t.Fatalf("trial %d chain %d station %d: IS flag wrong", trial, r, i)
				}
				e++
			}
			if e != sp.ChainPtr[r+1] {
				t.Fatalf("trial %d chain %d: %d extra entries", trial, r, sp.ChainPtr[r+1]-e)
			}
			sum := 0.0
			for i := 0; i < net.N(); i++ {
				sum += ch.Demand(i)
			}
			if sp.DemandSum[r] != sum {
				t.Fatalf("trial %d chain %d: demand sum %v, want %v (bitwise)", trial, r, sp.DemandSum[r], sum)
			}
		}
		if sp.Entries() != entries {
			t.Fatalf("trial %d: %d entries, want %d", trial, sp.Entries(), entries)
		}
		// Transpose: exact inverse, chains increasing per station.
		seen := make([]bool, entries)
		for i := 0; i < net.N(); i++ {
			lastChain := -1
			for m := sp.StatPtr[i]; m < sp.StatPtr[i+1]; m++ {
				r, e := int(sp.StatChain[m]), sp.StatEntry[m]
				if int(sp.EntStation[e]) != i {
					t.Fatalf("trial %d station %d: transpose entry maps to station %d", trial, i, sp.EntStation[e])
				}
				if e < sp.ChainPtr[r] || e >= sp.ChainPtr[r+1] {
					t.Fatalf("trial %d station %d: transpose entry outside chain %d's range", trial, i, r)
				}
				if r <= lastChain {
					t.Fatalf("trial %d station %d: chains not increasing", trial, i)
				}
				lastChain = r
				if seen[e] {
					t.Fatalf("trial %d: entry %d appears twice in transpose", trial, e)
				}
				if sp.EntTrans[e] != m {
					t.Fatalf("trial %d: EntTrans[%d] = %d, want transpose slot %d", trial, e, sp.EntTrans[e], m)
				}
				seen[e] = true
			}
			if sp.IsIS[i] != (net.Stations[i].Kind == IS) {
				t.Fatalf("trial %d station %d: IsIS wrong", trial, i)
			}
		}
		for e, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: entry %d missing from transpose", trial, e)
			}
		}
	}
}

func TestSparseMatches(t *testing.T) {
	net := randomSparseNet(rng.New(7))
	sp := Compile(net)
	if !sp.Matches(net) {
		t.Fatal("fresh compilation must match its source network")
	}
	// Population-only copies (the engine's pooled models) share backing
	// arrays and must match.
	pops := net.Populations()
	pops[0] += 3
	cand, err := net.WithPopulations(pops)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Matches(cand) {
		t.Fatal("population-only copy must match: backing arrays are shared")
	}
	// A structurally identical but independently allocated network must
	// NOT match — value equality is not checked, identity is.
	clone := &Network{Stations: append([]Station(nil), net.Stations...), Chains: make([]Chain, net.R())}
	copy(clone.Chains, net.Chains)
	for r := range clone.Chains {
		clone.Chains[r].Visits = append([]float64(nil), clone.Chains[r].Visits...)
	}
	if sp.Matches(clone) {
		t.Fatal("reallocated visit arrays must not match")
	}
	// Dimension mismatches.
	if sp.Matches(&Network{Stations: net.Stations}) {
		t.Fatal("chain-count mismatch must not match")
	}
}
