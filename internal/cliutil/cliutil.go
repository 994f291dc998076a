// Package cliutil holds what the command-line tools and windimd share:
// the dimensioning request (JobSpec) with its one validator and its one
// mapping to core and shard options, network loading (from a JSON spec
// file, a named built-in example or a topology generator) and flag
// parsing for window and rate vectors.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/topo"
)

// LoadNetwork returns the network named by either specPath (a JSON file)
// or example (a built-in name: "canada2", "canada4", "tandem<N>"), with
// rates optionally overriding the classes' arrival rates. It is a
// request's network step (JobSpec.ResolveNetwork) for the tools that
// take only a network: qsolve, netsim and flowdim.
func LoadNetwork(specPath, example string, rates []float64) (*netmodel.Network, error) {
	req := JobSpec{Example: example, Rates: rates}
	if err := req.ReadSpec(specPath); err != nil {
		return nil, err
	}
	return req.ResolveNetwork()
}

func builtin(name string) (*netmodel.Network, error) {
	switch {
	case name == "canada2":
		return topo.Canada2Class(20, 20), nil
	case name == "canada4":
		return topo.Canada4Class(6, 6, 6, 12), nil
	case strings.HasPrefix(name, "tandem"):
		hops, err := strconv.Atoi(strings.TrimPrefix(name, "tandem"))
		if err != nil || hops < 1 {
			return nil, fmt.Errorf("cliutil: bad tandem example %q (use tandem1..tandem16)", name)
		}
		if hops > 16 {
			return nil, fmt.Errorf("cliutil: tandem example limited to 16 hops, got %d", hops)
		}
		return topo.Tandem(hops, 50000, 20, 1000)
	default:
		return nil, fmt.Errorf("cliutil: unknown example %q (canada2, canada4, tandemN)", name)
	}
}

// Bounds on a generated network. A topo spec is outside input (windim
// -topo, a windimd job's topo field) and the generators allocate in
// proportion to these counts, so ParseTopo checks them before generating.
// The largest specs in use (mesh:100,50,80, clos:12,6,48) sit about 10x
// below them.
const (
	maxTopoNodes    = 1024
	maxTopoChannels = 16384
	maxTopoClasses  = 1024
)

// ParseTopo generates a synthetic network from a generator spec of the
// form "family:params":
//
//	clos:LEAVES,SPINES,CLASSES      leaf-spine Clos, 2-hop routes
//	scalefree:NODES,M,CLASSES       Barabási–Albert preferential attachment
//	mesh:NODES,EXTRA,CLASSES        ring + EXTRA random chords
//
// The same (spec, seed) pair always generates the identical network.
// Class rates are scaled by the generator so the busiest channel sits at
// 50% utilisation. A spec whose network would exceed maxTopoNodes nodes,
// maxTopoChannels channels or maxTopoClasses classes is an error.
func ParseTopo(spec string, seed uint64) (*netmodel.Network, error) {
	family, params, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("cliutil: topo spec %q: want family:a,b,c (clos, scalefree, mesh)", spec)
	}
	parts := strings.Split(params, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("cliutil: topo spec %q: want exactly 3 comma-separated integers", spec)
	}
	args := make([]int, 3)
	for i, p := range parts {
		x, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("cliutil: topo spec %q: bad integer %q", spec, p)
		}
		args[i] = x
	}
	// Each parameter is bounded first, so the counts below cannot
	// overflow.
	limits := [3]int{maxTopoNodes, maxTopoNodes, maxTopoClasses}
	if family == "mesh" {
		limits[1] = maxTopoChannels // EXTRA chords
	}
	for i, x := range args {
		if x < 0 || x > limits[i] {
			return nil, fmt.Errorf("cliutil: topo spec %q: parameter %d outside the bound [0, %d]", spec, x, limits[i])
		}
	}
	nodes, channels := args[0], 0
	switch family {
	case "clos":
		nodes, channels = args[0]+args[1], args[0]*args[1]
	case "scalefree":
		// An (M+1)-clique, then M channels per further node.
		channels = args[1]*(args[1]+1)/2 + (args[0]-args[1]-1)*args[1]
	case "mesh":
		channels = args[0] + args[1]
	}
	if nodes > maxTopoNodes {
		return nil, fmt.Errorf("cliutil: topo spec %q: %d nodes exceed the bound of %d", spec, nodes, maxTopoNodes)
	}
	if channels > maxTopoChannels {
		return nil, fmt.Errorf("cliutil: topo spec %q: %d channels exceed the bound of %d", spec, channels, maxTopoChannels)
	}
	cfg := topo.GenConfig{Seed: seed}
	switch family {
	case "clos":
		return topo.Clos(args[0], args[1], args[2], cfg)
	case "scalefree":
		return topo.ScaleFree(args[0], args[1], args[2], cfg)
	case "mesh":
		return topo.Mesh(args[0], args[1], args[2], cfg)
	default:
		return nil, fmt.Errorf("cliutil: unknown topology family %q (clos, scalefree, mesh)", family)
	}
}

// ParseWindows parses a comma-separated window vector like "5,5" or
// "1,1,1,4". An empty string returns nil (meaning: use the network's own
// windows).
func ParseWindows(s string) (numeric.IntVector, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	v := numeric.NewIntVector(len(parts))
	for i, p := range parts {
		x, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad window %q: %w", p, err)
		}
		v[i] = x
	}
	return v, nil
}

// ParseRates parses a comma-separated rate vector like "20,20"; empty
// returns nil.
func ParseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	v := make([]float64, len(parts))
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad rate %q: %w", p, err)
		}
		v[i] = x
	}
	return v, nil
}
