package topo

import (
	"fmt"
	"sort"

	"repro/internal/netmodel"
	"repro/internal/rng"
)

// GenConfig parameterises the synthetic topology generators. Every
// generated network is thesis-scale: genCapacity channels without
// propagation delay, MessageLength-bit messages for every class, and
// uniform class rates scaled so the busiest channel runs at genMaxUtil.
type GenConfig struct {
	// Seed drives every random choice through rng substreams, so a fixed
	// (generator, parameters, seed) triple is bit-reproducible.
	Seed uint64
}

const (
	genCapacity = 50_000 // bits/s
	genMaxUtil  = 0.5
)

// Clos returns a two-level leaf–spine (folded Clos / fat-tree pod)
// network: every leaf connects to every spine, giving leaves*spines
// half-duplex channels, and each of the classes virtual channels runs
// leaf→spine→leaf through a uniformly chosen spine. This is the dense,
// shallow-topology stress case: hundreds of channels, 2-hop routes, heavy
// channel sharing.
func Clos(leaves, spines, classes int, cfg GenConfig) (*netmodel.Network, error) {
	if leaves < 2 || spines < 1 {
		return nil, fmt.Errorf("topo: clos needs >= 2 leaves and >= 1 spine, got %d/%d", leaves, spines)
	}
	if classes < 1 {
		return nil, fmt.Errorf("topo: clos needs >= 1 class, got %d", classes)
	}
	net := &netmodel.Network{Name: fmt.Sprintf("clos-%dx%d", leaves, spines)}
	for l := 0; l < leaves; l++ {
		net.Nodes = append(net.Nodes, netmodel.Node{Name: fmt.Sprintf("leaf%d", l)})
	}
	for s := 0; s < spines; s++ {
		net.Nodes = append(net.Nodes, netmodel.Node{Name: fmt.Sprintf("spine%d", s)})
	}
	// Channel l*spines+s joins leaf l and spine s.
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			net.Channels = append(net.Channels, netmodel.Channel{
				Name: fmt.Sprintf("l%ds%d", l, s), From: l, To: leaves + s,
				Capacity: genCapacity,
			})
		}
	}
	cs := rng.New(cfg.Seed).Split(1)
	for k := 0; k < classes; k++ {
		src := cs.Intn(leaves)
		dst := cs.Intn(leaves - 1)
		if dst >= src {
			dst++
		}
		spine := cs.Intn(spines)
		net.Classes = append(net.Classes, netmodel.Class{
			Name: fmt.Sprintf("class%d", k), Rate: 1, MeanLength: MessageLength,
			Route: []int{src*spines + spine, dst*spines + spine},
		})
	}
	scaleRates(net)
	return net, nil
}

// ScaleFree returns a Barabási–Albert preferential-attachment network:
// growth starts from an (m+1)-clique and every new node attaches to m
// distinct existing nodes with probability proportional to degree, giving
// the heavy-tailed degree distribution of real internets — a few hub
// nodes carry most routes. Classes run between uniform random node pairs
// along deterministic BFS shortest paths.
func ScaleFree(nodes, m, classes int, cfg GenConfig) (*netmodel.Network, error) {
	if m < 1 || nodes < m+2 {
		return nil, fmt.Errorf("topo: scale-free needs m >= 1 and nodes >= m+2, got nodes=%d m=%d", nodes, m)
	}
	if classes < 1 {
		return nil, fmt.Errorf("topo: scale-free needs >= 1 class, got %d", classes)
	}
	net := &netmodel.Network{Name: fmt.Sprintf("scalefree-%d", nodes)}
	for i := 0; i < nodes; i++ {
		net.Nodes = append(net.Nodes, netmodel.Node{Name: fmt.Sprintf("n%d", i)})
	}
	gs := rng.New(cfg.Seed).Split(0)
	// targets holds one entry per edge endpoint; sampling it uniformly is
	// degree-proportional attachment.
	var targets []int
	addEdge := func(a, b int) {
		net.Channels = append(net.Channels, netmodel.Channel{
			Name: fmt.Sprintf("e%d", len(net.Channels)), From: a, To: b,
			Capacity: genCapacity,
		})
		targets = append(targets, a, b)
	}
	for a := 0; a <= m; a++ {
		for b := a + 1; b <= m; b++ {
			addEdge(a, b)
		}
	}
	for v := m + 1; v < nodes; v++ {
		chosen := map[int]bool{}
		for len(chosen) < m {
			t := targets[gs.Intn(len(targets))]
			if t != v && !chosen[t] {
				chosen[t] = true
			}
		}
		// Attach in sorted order so the channel list does not depend on
		// map iteration.
		picks := make([]int, 0, m)
		for t := range chosen {
			picks = append(picks, t)
		}
		sort.Ints(picks)
		for _, t := range picks {
			addEdge(v, t)
		}
	}
	if err := addBFSClasses(net, classes, rng.New(cfg.Seed).Split(1)); err != nil {
		return nil, err
	}
	scaleRates(net)
	return net, nil
}

// Mesh returns a seeded random mesh: a ring over all nodes (guaranteeing
// connectivity) plus extra distinct random chords, with classes between
// uniform random node pairs along deterministic BFS shortest paths — the
// irregular wide-area case the Canadian backbone is a 6-node instance of.
func Mesh(nodes, extra, classes int, cfg GenConfig) (*netmodel.Network, error) {
	if nodes < 3 {
		return nil, fmt.Errorf("topo: mesh needs >= 3 nodes, got %d", nodes)
	}
	if classes < 1 {
		return nil, fmt.Errorf("topo: mesh needs >= 1 class, got %d", classes)
	}
	maxExtra := nodes*(nodes-1)/2 - nodes
	if extra < 0 || extra > maxExtra {
		return nil, fmt.Errorf("topo: mesh extra channels %d outside [0, %d]", extra, maxExtra)
	}
	net := &netmodel.Network{Name: fmt.Sprintf("mesh-%d", nodes)}
	for i := 0; i < nodes; i++ {
		net.Nodes = append(net.Nodes, netmodel.Node{Name: fmt.Sprintf("n%d", i)})
	}
	have := map[[2]int]bool{}
	addEdge := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		have[[2]int{a, b}] = true
		net.Channels = append(net.Channels, netmodel.Channel{
			Name: fmt.Sprintf("e%d", len(net.Channels)), From: a, To: b,
			Capacity: genCapacity,
		})
	}
	for i := 0; i < nodes; i++ {
		addEdge(i, (i+1)%nodes)
	}
	gs := rng.New(cfg.Seed).Split(0)
	for added := 0; added < extra; {
		a, b := gs.Intn(nodes), gs.Intn(nodes)
		if a == b {
			continue
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if have[[2]int{lo, hi}] {
			continue
		}
		addEdge(a, b)
		added++
	}
	if err := addBFSClasses(net, classes, rng.New(cfg.Seed).Split(1)); err != nil {
		return nil, err
	}
	scaleRates(net)
	return net, nil
}

// addBFSClasses appends classes between random distinct node pairs, routed
// on the breadth-first shortest path. Adjacency is scanned in channel
// order, so routes are a deterministic function of the topology and the
// stream.
func addBFSClasses(net *netmodel.Network, classes int, s *rng.Stream) error {
	nodes := len(net.Nodes)
	adj := make([][][2]int, nodes) // adj[v] = (neighbor, channel)
	for l, ch := range net.Channels {
		adj[ch.From] = append(adj[ch.From], [2]int{ch.To, l})
		adj[ch.To] = append(adj[ch.To], [2]int{ch.From, l})
	}
	for k := 0; k < classes; k++ {
		src := s.Intn(nodes)
		dst := s.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		route, err := bfsRoute(adj, src, dst)
		if err != nil {
			return fmt.Errorf("topo: %s: %w", net.Name, err)
		}
		net.Classes = append(net.Classes, netmodel.Class{
			Name: fmt.Sprintf("class%d", k), Rate: 1, MeanLength: MessageLength,
			Route: route,
		})
	}
	return nil
}

// bfsRoute returns the channel indices of the first breadth-first
// shortest path from src to dst.
func bfsRoute(adj [][][2]int, src, dst int) ([]int, error) {
	prev := make([][2]int, len(adj)) // (previous node, channel into here)
	seen := make([]bool, len(adj))
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 && !seen[dst] {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range adj[v] {
			if !seen[nb[0]] {
				seen[nb[0]] = true
				prev[nb[0]] = [2]int{v, nb[1]}
				queue = append(queue, nb[0])
			}
		}
	}
	if !seen[dst] {
		return nil, fmt.Errorf("no path from node %d to node %d", src, dst)
	}
	var rev []int
	for v := dst; v != src; v = prev[v][0] {
		rev = append(rev, prev[v][1])
	}
	route := make([]int, len(rev))
	for i, l := range rev {
		route[len(rev)-1-i] = l
	}
	return route, nil
}

// scaleRates sets every class's arrival rate to the uniform value at
// which the busiest channel's offered utilisation equals genMaxUtil,
// keeping generated networks inside the stable region at any scale.
func scaleRates(net *netmodel.Network) {
	peak := 0.0
	util := make([]float64, len(net.Channels))
	for _, c := range net.Classes {
		for _, l := range c.Route {
			util[l] += c.Rate * c.MeanLength / net.Channels[l].Capacity
			if util[l] > peak {
				peak = util[l]
			}
		}
	}
	if peak <= 0 {
		return
	}
	scale := genMaxUtil / peak
	for r := range net.Classes {
		net.Classes[r].Rate *= scale
	}
}
