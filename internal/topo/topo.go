// Package topo provides the thesis's example networks and a few synthetic
// topology generators for tests, examples and benchmarks.
//
// The 6-node Canadian network of Figs. 4.5/4.10 is reconstructed from the
// text: seven half-duplex channels (channels modelled as single FCFS
// queues serving either direction), five at 50 kbit/s and two at
// 25 kbit/s, with 1000-bit exponential messages. The reconstruction is
// pinned down by four facts in the thesis: the 2-class model has 9 queues
// and the 4-class model 11 (so both use the same 7 channels); the class
// hop counts are (4, 4, 3, 1) (the Kleinrock baseline of Table 4.12);
// the two classes of the first example interact at a single queue
// ("little interaction"); and symmetric loads give symmetric optimal
// windows (so each 4-hop route sees capacities {50, 50, 50, 25}).
package topo

import (
	"fmt"

	"repro/internal/netmodel"
)

// Channel indices of the Canadian network, in the order they are created.
const (
	ChEW = iota // Edmonton–Winnipeg, 50 kb/s
	ChWT        // Winnipeg–Toronto, 50 kb/s (the shared channel)
	ChTM        // Toronto–Montreal, 50 kb/s
	ChMW        // Montreal–Winnipeg, 50 kb/s
	ChTE        // Toronto–Edmonton, 50 kb/s
	ChMO        // Montreal–Ottawa, 25 kb/s
	ChEV        // Edmonton–Vancouver, 25 kb/s
)

// canadaBase builds the 6-node, 7-channel backbone shared by both
// Chapter 4 examples.
func canadaBase(name string) *netmodel.Network {
	nodes := []netmodel.Node{
		{Name: "Vancouver"}, // 0
		{Name: "Edmonton"},  // 1
		{Name: "Winnipeg"},  // 2
		{Name: "Toronto"},   // 3
		{Name: "Montreal"},  // 4
		{Name: "Ottawa"},    // 5
	}
	const k = 1000.0
	channels := []netmodel.Channel{
		{Name: "EW", From: 1, To: 2, Capacity: 50 * k},
		{Name: "WT", From: 2, To: 3, Capacity: 50 * k},
		{Name: "TM", From: 3, To: 4, Capacity: 50 * k},
		{Name: "MW", From: 4, To: 2, Capacity: 50 * k},
		{Name: "TE", From: 3, To: 1, Capacity: 50 * k},
		{Name: "MO", From: 4, To: 5, Capacity: 25 * k},
		{Name: "EV", From: 1, To: 0, Capacity: 25 * k},
	}
	return &netmodel.Network{Name: name, Nodes: nodes, Channels: channels}
}

// MessageLength is the mean message length (bits) of all classes in the
// thesis's examples.
const MessageLength = 1000

// Canada2Class returns the Fig. 4.5 network: class 1 Edmonton→Ottawa via
// Winnipeg, Toronto and Montreal; class 2 Montreal→Vancouver via
// Winnipeg, Toronto and Edmonton. s1 and s2 are the Poisson arrival rates
// in messages/second. Windows start at 0 (undimensioned).
func Canada2Class(s1, s2 float64) *netmodel.Network {
	n := canadaBase("canada-2class")
	n.Classes = []netmodel.Class{
		{
			Name: "class1", Rate: s1, MeanLength: MessageLength,
			Route: []int{ChEW, ChWT, ChTM, ChMO},
		},
		{
			Name: "class2", Rate: s2, MeanLength: MessageLength,
			Route: []int{ChMW, ChWT, ChTE, ChEV},
		},
	}
	return n
}

// Canada4Class returns the Fig. 4.10 network: classes 1 and 2 as in
// Canada2Class, class 3 Vancouver→Montreal via Edmonton and Winnipeg,
// class 4 Toronto→Winnipeg direct.
func Canada4Class(s1, s2, s3, s4 float64) *netmodel.Network {
	n := Canada2Class(s1, s2)
	n.Name = "canada-4class"
	n.Classes = append(n.Classes,
		netmodel.Class{
			Name: "class3", Rate: s3, MeanLength: MessageLength,
			Route: []int{ChEV, ChEW, ChMW},
		},
		netmodel.Class{
			Name: "class4", Rate: s4, MeanLength: MessageLength,
			Route: []int{ChWT},
		},
	)
	return n
}

// Tandem returns a linear network of hops channels, one class traversing
// all of them: the p-hop virtual channel of Kleinrock's reference model.
// Every channel has the given capacity (bits/s); messages are meanLength
// bits with Poisson rate rate.
func Tandem(hops int, capacity, rate, meanLength float64) (*netmodel.Network, error) {
	if hops < 1 {
		return nil, fmt.Errorf("topo: tandem needs at least 1 hop, got %d", hops)
	}
	n := &netmodel.Network{Name: fmt.Sprintf("tandem-%d", hops)}
	for i := 0; i <= hops; i++ {
		n.Nodes = append(n.Nodes, netmodel.Node{Name: fmt.Sprintf("n%d", i)})
	}
	route := make([]int, hops)
	for i := 0; i < hops; i++ {
		n.Channels = append(n.Channels, netmodel.Channel{
			Name: fmt.Sprintf("ch%d", i), From: i, To: i + 1, Capacity: capacity,
		})
		route[i] = i
	}
	n.Classes = []netmodel.Class{{
		Name: "class1", Rate: rate, MeanLength: meanLength, Route: route,
	}}
	return n, nil
}
