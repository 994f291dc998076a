package sim

import (
	"fmt"
	"math"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// message is one store-and-forward message in flight. Messages live in
// the state's pool slab (state.msgs) and are referenced by slab index
// everywhere — channel queues, blocked slots, scheduled events — so the
// hot structures carry no pointers and the steady-state event loop
// allocates nothing.
//
// Pool ownership: a message is taken from the free list at admission
// (admit) or background injection (handleBackground) and returned exactly
// once, by whichever path removes it from the network — delivery
// (deliver, reached from the final-hop completion or the final-hop
// propagation landing) or the background single-hop exit in
// handleCompletion. Messages parked in queues, blocked slots or in-flight
// propagation at the end of a run are reclaimed wholesale by reset.
type message struct {
	class int32
	// hop indexes the class's route: the channel the message is queued
	// on or transmitting over. After the final hop the message is
	// delivered.
	hop int32
	// node is the switching node currently storing the message.
	node int32
	// length is the message length in bits when CorrelatedLengths is
	// set; unused otherwise.
	length float64
	// admitted is the admission time (start of network delay).
	admitted float64
}

// msgNone marks an empty message reference (no message).
const msgNone = int32(-1)

// channelState is the runtime state of one half-duplex channel queue.
// The FIFO is a power-of-two ring of pool indices: popping the head is an
// index bump, not a memmove.
type channelState struct {
	q    []int32 // ring storage; len is a power of two (or 0)
	head int
	n    int
	busy bool
	// blockedMsg, when not msgNone, finished transmission but cannot
	// enter its downstream node (full buffer); the channel is stalled.
	blockedMsg int32
	// blockedInto is the node the blocked message waits for.
	blockedInto int
}

func (ch *channelState) pushBack(m int32) {
	if ch.n == len(ch.q) {
		grown := make([]int32, max(4, 2*len(ch.q)))
		for i := 0; i < ch.n; i++ {
			grown[i] = ch.q[(ch.head+i)&(len(ch.q)-1)]
		}
		ch.q = grown
		ch.head = 0
	}
	ch.q[(ch.head+ch.n)&(len(ch.q)-1)] = m
	ch.n++
}

func (ch *channelState) front() int32 { return ch.q[ch.head] }

func (ch *channelState) popFront() {
	ch.head = (ch.head + 1) & (len(ch.q) - 1)
	ch.n--
}

// stored is the number of messages the channel holds (queued, in service
// and blocked) — the quantity ChannelMeanQueue integrates.
func (ch *channelState) stored() int {
	if ch.blockedMsg != msgNone {
		return ch.n + 1
	}
	return ch.n
}

// classState is the runtime state of one class's source.
type classState struct {
	credits        int  // remaining window credits (unlimited if window 0)
	window         int  // 0 = unlimited
	backlog        int  // host-side backlog (SourceBacklogged)
	arrivalPending bool // an evArrival event is scheduled
	// arrivalEpoch invalidates stale arrival events after a burst state
	// flip (the scheduler cannot cancel, so events carry the epoch they
	// were booked under).
	arrivalEpoch int
	// burstOn is the on-off source state (always true for Poisson).
	burstOn bool
	// waitingAdmission marks a generated message waiting for a node
	// buffer slot or a global permit (throttled mode holds at most one).
	waitingAdmission int
	srcNode          int
	sinkNode         int
	route            []int
	arrivals         *rng.Stream
	lengths          *rng.Stream
	bursts           *rng.Stream
}

// state is the runner's working set. newState builds every table that
// depends only on (network, config) ONCE; reset re-arms the mutable parts
// for a fresh seed without reallocating, mirroring core.Engine's pooled
// per-candidate states. The division matters: RunReplications reuses one
// state per worker across hundreds of replications.
type state struct {
	net *netmodel.Network
	cfg Config

	windows numeric.IntVector // resolved per-class windows

	clock  float64
	events *calendarQueue

	classes  []classState
	channels []channelState

	// Message pool: msgs is the slab, freeMsgs the LIFO free list of slab
	// indices. reset truncates both, reclaiming every in-flight message.
	msgs     []message
	freeMsgs []int32

	// nodeCount[i] is the number of messages stored at node i;
	// nodeLimit[i] <= 0 means infinite.
	nodeCount []int
	nodeLimit []int
	// blockedOn[i] lists channels whose head is blocked into node i,
	// FIFO.
	blockedOn [][]int
	// admissionWait lists classes with a message awaiting admission,
	// FIFO.
	admissionWait []int

	permits int // remaining isarithmic permits; -1 = disabled

	// inNet[r] counts class-r messages currently inside the network.
	inNet []int

	// Background cross-traffic (channels with Background > 0): per
	// channel, the Poisson rate (msg/s), mean length (bits) and arrival
	// stream. Background messages are single-hop, bypass node buffers,
	// windows and permits, and appear only in channel statistics.
	bgRate    []float64
	bgMeanLen []float64
	bgStreams []*rng.Stream

	serviceStreams []*rng.Stream // per channel

	// Fault injection (fault.go): chanDown[l] stops channel l from
	// starting new transmissions; rateScale[l] multiplies its capacity
	// for transmissions started now; classRateScale[r] multiplies class
	// r's exogenous arrival rate (traffic surges); faults is the
	// transition schedule (built once, sorted, re-pushed every reset).
	chanDown       []bool
	rateScale      []float64
	classRateScale []float64
	faults         []faultTransition

	// Precomputed inverse rates for the hot sampling sites. Divisions
	// are ~10x a multiply on this class of hardware and the loop draws
	// two or three variates per event, so every per-draw division is
	// hoisted to the (rare) moment its rate actually changes: reset,
	// and the fault transitions that scale a rate.
	svcInv       []float64 // per channel: 1/(Capacity*rateScale)
	arrMean      []float64 // per class: 1/(Rate*classRateScale)
	arrMeanBurst []float64 // per class: arrMean/Burstiness (on-period peak)
	bgMean       []float64 // per channel: 1/bgRate (0 if no background)
	burstOnMean  float64   // mean on-period
	burstOffMean float64   // mean off-period

	// Static per-entity lookups flattened out of the netmodel structs:
	// the hot handlers index these compact arrays instead of striding the
	// wide model structs (a cache line per touch there). Built once in
	// newState; never change mid-run.
	meanLen   []float64 // per class: mean message length
	ackDelay  []float64 // per class: acknowledgement latency
	propDelay []float64 // per channel: propagation delay
	chanFrom  []int32   // per channel: endpoint nodes
	chanTo    []int32

	warmupDone bool
	eventCount int64

	stats *collector
}

// newState builds the per-configuration tables and leaves the state armed
// for cfg.Seed (reset re-arms it for any other seed).
func newState(n *netmodel.Network, cfg Config, windows numeric.IntVector) (*state, error) {
	s := &state{
		net:            n,
		cfg:            cfg,
		windows:        windows,
		events:         newCalendarQueue(),
		classes:        make([]classState, len(n.Classes)),
		channels:       make([]channelState, len(n.Channels)),
		nodeCount:      make([]int, len(n.Nodes)),
		inNet:          make([]int, len(n.Classes)),
		nodeLimit:      make([]int, len(n.Nodes)),
		blockedOn:      make([][]int, len(n.Nodes)),
		chanDown:       make([]bool, len(n.Channels)),
		rateScale:      make([]float64, len(n.Channels)),
		classRateScale: make([]float64, len(n.Classes)),
		svcInv:         make([]float64, len(n.Channels)),
		arrMean:        make([]float64, len(n.Classes)),
		arrMeanBurst:   make([]float64, len(n.Classes)),
		bgMean:         make([]float64, len(n.Channels)),
		meanLen:        make([]float64, len(n.Classes)),
		ackDelay:       make([]float64, len(n.Classes)),
		propDelay:      make([]float64, len(n.Channels)),
		chanFrom:       make([]int32, len(n.Channels)),
		chanTo:         make([]int32, len(n.Channels)),
	}
	for r := range n.Classes {
		s.meanLen[r] = n.Classes[r].MeanLength
		s.ackDelay[r] = n.Classes[r].AckDelay
	}
	for l := range n.Channels {
		s.propDelay[l] = n.Channels[l].PropDelay
		s.chanFrom[l] = int32(n.Channels[l].From)
		s.chanTo[l] = int32(n.Channels[l].To)
	}
	if cfg.Burstiness > 1 {
		s.burstOnMean = cfg.BurstOn
		s.burstOffMean = cfg.BurstOn * (cfg.Burstiness - 1)
	}
	if cfg.NodeBuffers != nil {
		copy(s.nodeLimit, cfg.NodeBuffers)
	}
	for r := range n.Classes {
		nodes, err := n.RouteNodes(r)
		if err != nil {
			return nil, err
		}
		cs := &s.classes[r]
		cs.window = windows[r]
		cs.srcNode = nodes[0]
		cs.sinkNode = nodes[len(nodes)-1]
		cs.route = n.Classes[r].Route
		cs.arrivals = &rng.Stream{}
		cs.lengths = &rng.Stream{}
		cs.bursts = &rng.Stream{}
	}
	s.serviceStreams = make([]*rng.Stream, len(n.Channels))
	for l := range n.Channels {
		s.serviceStreams[l] = &rng.Stream{}
	}
	s.bgRate = make([]float64, len(n.Channels))
	s.bgMeanLen = make([]float64, len(n.Channels))
	s.bgStreams = make([]*rng.Stream, len(n.Channels))
	for l := range n.Channels {
		bg := n.Channels[l].Background
		if bg <= 0 {
			continue
		}
		// Background messages take the mean length of the classes using
		// the channel (all equal by validation), falling back to the
		// first class's length on otherwise-unused channels.
		meanLen := n.Classes[0].MeanLength
		for r := range n.Classes {
			for _, hop := range n.Classes[r].Route {
				if hop == l {
					meanLen = n.Classes[r].MeanLength
					break
				}
			}
		}
		s.bgMeanLen[l] = meanLen
		s.bgRate[l] = bg * n.Channels[l].Capacity / meanLen
		s.bgMean[l] = 1 / s.bgRate[l]
		s.bgStreams[l] = &rng.Stream{}
	}
	if cfg.Faults != nil {
		s.buildFaults(cfg.Faults)
	}
	s.stats = newCollector(n, cfg)
	s.reset(cfg.Seed)
	return s, nil
}

// reset re-arms the state for a fresh replication under seed: every
// stream is re-derived in place, every counter zeroed, every pooled
// buffer truncated with its capacity retained. After reset, run()
// produces exactly what a freshly built state with the same seed would —
// the replication-reset invariant scheduler_test.go pins down.
func (s *state) reset(seed uint64) {
	s.clock = 0
	s.warmupDone = false
	s.eventCount = 0
	s.events.reset()
	var master rng.Stream
	master.Reseed(seed)
	for r := range s.classes {
		cs := &s.classes[r]
		cs.credits = s.windows[r]
		cs.backlog = 0
		cs.arrivalPending = false
		cs.arrivalEpoch = 0
		cs.burstOn = true
		cs.waitingAdmission = 0
		master.SplitInto(uint64(2*r), cs.arrivals)
		master.SplitInto(uint64(2*r+1), cs.lengths)
		master.SplitInto(uint64(9000+r), cs.bursts)
	}
	for l := range s.channels {
		ch := &s.channels[l]
		ch.head, ch.n = 0, 0
		ch.busy = false
		ch.blockedMsg = msgNone
		master.SplitInto(uint64(1000+l), s.serviceStreams[l])
		if s.bgStreams[l] != nil {
			master.SplitInto(uint64(5000+l), s.bgStreams[l])
		}
		s.chanDown[l] = false
		s.rateScale[l] = 1
		s.svcInv[l] = 1 / s.net.Channels[l].Capacity
	}
	for r := range s.classRateScale {
		s.classRateScale[r] = 1
		s.inNet[r] = 0
		s.arrMean[r] = 1 / s.net.Classes[r].Rate
		s.arrMeanBurst[r] = s.arrMean[r] / s.cfg.Burstiness
	}
	for i := range s.nodeCount {
		s.nodeCount[i] = 0
		s.blockedOn[i] = s.blockedOn[i][:0]
	}
	s.admissionWait = s.admissionWait[:0]
	s.permits = -1
	if s.cfg.GlobalPermits > 0 {
		s.permits = s.cfg.GlobalPermits
	}
	s.msgs = s.msgs[:0]
	s.freeMsgs = s.freeMsgs[:0]
	s.stats.reset(0, s)
}

// newMessage takes a message slot from the pool (LIFO), growing the slab
// only when the in-flight population reaches a new high-water mark.
func (s *state) newMessage() int32 {
	if n := len(s.freeMsgs); n > 0 {
		mi := s.freeMsgs[n-1]
		s.freeMsgs = s.freeMsgs[:n-1]
		return mi
	}
	s.msgs = append(s.msgs, message{})
	return int32(len(s.msgs) - 1)
}

// freeMessage returns a slot to the pool. Call sites are exactly the
// network-exit paths; see the message doc comment for the ownership map.
func (s *state) freeMessage(mi int32) {
	s.freeMsgs = append(s.freeMsgs, mi)
}

func (s *state) run() (*Result, error) {
	s.prime()
	for s.events.size != 0 && s.dispatch(s.events.pop()) {
	}
	return s.finishRun(), nil
}

// prime books each class's arrival process, burst modulation, the
// background streams and the fault schedule.
func (s *state) prime() {
	for r := range s.classes {
		if s.cfg.Burstiness > 1 {
			s.events.push(s.clock+s.classes[r].bursts.ExpMean(s.burstOnMean), evBurstFlip, r, 0)
		}
		s.scheduleArrival(r)
	}
	for l := range s.bgRate {
		if s.bgRate[l] > 0 {
			s.events.push(s.clock+s.bgStreams[l].ExpMean(s.bgMean[l]), evBackground, -1, l)
		}
	}
	for i := range s.faults {
		s.events.push(s.faults[i].at, evFault, -1, i)
	}
}

// step executes one event; false means the run is over (horizon reached
// or no events left). It is run's loop body, kept as the single-step form
// tests drive.
func (s *state) step() bool {
	return s.events.size != 0 && s.dispatch(s.events.pop())
}

// dispatch executes one popped event; false means the horizon is reached
// (the event is beyond Duration and is discarded unexecuted).
func (s *state) dispatch(e event) bool {
	if e.at > s.cfg.Duration {
		return false
	}
	if !s.warmupDone && e.at >= s.cfg.Warmup {
		s.stats.reset(s.cfg.Warmup, s)
		s.warmupDone = true
	}
	if e.at > s.clock {
		s.clock = e.at
	}
	s.eventCount++
	switch e.kind {
	case evArrival:
		s.handleArrival(int(e.class), int(e.channel))
	case evCompletion:
		s.handleCompletion(int(e.channel))
	case evAck:
		s.creditReturn(int(e.class))
	case evBackground:
		s.handleBackground(int(e.channel))
	case evPropArrive:
		s.handlePropArrive(e.msg)
	case evBurstFlip:
		s.handleBurstFlip(int(e.class))
	case evFault:
		s.handleFault(int(e.channel))
	}
	return true
}

func (s *state) finishRun() *Result {
	if !s.warmupDone {
		s.stats.reset(s.cfg.Warmup, s)
		s.warmupDone = true
	}
	s.clock = s.cfg.Duration
	res := s.stats.result(s)
	res.Deadlocked = s.isDeadlocked()
	res.Events = s.eventCount
	return res
}

// scheduleArrival books the next exogenous message of class r if the
// source model calls for one and none is pending.
func (s *state) scheduleArrival(r int) {
	cs := &s.classes[r]
	if cs.arrivalPending || !cs.burstOn {
		return
	}
	if s.cfg.Source == SourceThrottled {
		// The source is shut off while the window is exhausted or a
		// generated message is still waiting for admission.
		if cs.window > 0 && cs.credits == 0 {
			return
		}
		if cs.waitingAdmission > 0 {
			return
		}
	}
	mean := s.arrMean[r]
	if s.cfg.Burstiness > 1 {
		mean = s.arrMeanBurst[r] // peak rate during on-periods
	}
	cs.arrivalPending = true
	s.events.push(s.clock+cs.arrivals.ExpMean(mean), evArrival, r, cs.arrivalEpoch)
}

// handleBurstFlip toggles class r's on-off source state and books the
// next flip. Pending arrivals booked under the old state are invalidated
// via the epoch counter.
func (s *state) handleBurstFlip(r int) {
	cs := &s.classes[r]
	cs.burstOn = !cs.burstOn
	cs.arrivalEpoch++
	cs.arrivalPending = false
	var mean float64
	if cs.burstOn {
		mean = s.burstOnMean
		s.scheduleArrival(r)
	} else {
		mean = s.burstOffMean
	}
	s.events.push(s.clock+cs.bursts.ExpMean(mean), evBurstFlip, r, 0)
}

// handleArrival processes one exogenous message of class r. epoch guards
// against events booked before a burst flip.
func (s *state) handleArrival(r, epoch int) {
	cs := &s.classes[r]
	if epoch != cs.arrivalEpoch {
		return // stale: the source flipped state since booking
	}
	cs.arrivalPending = false
	s.stats.generated(r)
	switch s.cfg.Source {
	case SourceBacklogged:
		s.stats.touchClass(s, r)
		cs.backlog++
		s.drainBacklog(r)
		s.scheduleArrival(r)
	default: // SourceThrottled: the arrival consumes a credit directly.
		if cs.window > 0 {
			cs.credits--
		}
		s.tryAdmit(r)
		s.scheduleArrival(r)
	}
}

// drainBacklog admits backlogged messages while credits are available.
func (s *state) drainBacklog(r int) {
	cs := &s.classes[r]
	if cs.backlog > 0 {
		s.stats.touchClass(s, r)
	}
	for cs.backlog > 0 && (cs.window == 0 || cs.credits > 0) {
		if cs.window > 0 {
			cs.credits--
		}
		cs.backlog--
		s.tryAdmit(r)
	}
}

// tryAdmit moves one credit-holding message of class r into the network,
// or queues it for admission if node buffers or permits are exhausted.
func (s *state) tryAdmit(r int) {
	cs := &s.classes[r]
	if !s.admissionResourcesFree(r) {
		cs.waitingAdmission++
		s.admissionWait = append(s.admissionWait, r)
		return
	}
	s.admit(r)
}

// admissionResourcesFree reports whether class r's source node has buffer
// space and a global permit is available.
func (s *state) admissionResourcesFree(r int) bool {
	cs := &s.classes[r]
	if s.permits == 0 {
		return false
	}
	if limit := s.nodeLimit[cs.srcNode]; limit > 0 && s.nodeCount[cs.srcNode] >= limit {
		return false
	}
	return true
}

// admit inserts a new message of class r at its source node.
func (s *state) admit(r int) {
	cs := &s.classes[r]
	if s.permits > 0 {
		s.permits--
	}
	mi := s.newMessage()
	m := &s.msgs[mi]
	*m = message{class: int32(r), hop: 0, node: int32(cs.srcNode), admitted: s.clock}
	s.stats.touchClass(s, r)
	s.inNet[r]++
	if s.cfg.CorrelatedLengths {
		m.length = s.sampleLength(cs.lengths, s.meanLen[r])
	}
	s.stats.touchNode(s, cs.srcNode)
	s.nodeCount[cs.srcNode]++
	s.enqueue(mi, cs.route[0])
}

// enqueue places mi on channel l's FIFO and starts service if idle.
func (s *state) enqueue(mi int32, l int) {
	ch := &s.channels[l]
	s.stats.touchChan(s, l)
	ch.pushBack(mi)
	if !ch.busy && ch.blockedMsg == msgNone && !s.chanDown[l] {
		s.startService(l)
	}
}

// startService begins transmitting channel l's head message.
func (s *state) startService(l int) {
	ch := &s.channels[l]
	m := &s.msgs[ch.front()]
	var bits float64
	switch {
	case s.cfg.CorrelatedLengths:
		bits = m.length
	case m.class < 0:
		bits = s.sampleLength(s.serviceStreams[l], s.bgMeanLen[l])
	default:
		bits = s.sampleLength(s.serviceStreams[l], s.meanLen[m.class])
	}
	s.stats.touchChan(s, l)
	ch.busy = true
	s.events.push(s.clock+bits*s.svcInv[l], evCompletion, -1, l)
}

// handleBackground injects one uncontrolled cross-traffic message on
// channel l and books the next. Background pseudo-messages ride the same
// pool as real messages: their slot returns at the single-hop exit in
// handleCompletion.
func (s *state) handleBackground(l int) {
	mi := s.newMessage()
	m := &s.msgs[mi]
	*m = message{class: -1, hop: -1, node: -1}
	if s.cfg.CorrelatedLengths {
		m.length = s.sampleLength(s.bgStreams[l], s.bgMeanLen[l])
	}
	s.enqueue(mi, l)
	s.events.push(s.clock+s.bgStreams[l].ExpMean(s.bgMean[l]), evBackground, -1, l)
}

// handleCompletion finishes the transmission in progress on channel l.
func (s *state) handleCompletion(l int) {
	ch := &s.channels[l]
	s.stats.touchChan(s, l)
	ch.busy = false
	mi := ch.front()
	m := &s.msgs[mi]
	if m.class < 0 {
		// Background message: leaves the system at the far end.
		s.popHead(l)
		s.freeMessage(mi)
		s.startNextIfAny(l)
		return
	}
	dest := s.otherEnd(l, int(m.node))
	if pd := s.propDelay[l]; pd > 0 {
		// The message has left the upstream store and is in flight; it
		// occupies no node until it lands (Validate forbids combining
		// propagation delay with finite buffers, so landing never
		// blocks).
		s.popHead(l)
		s.releaseNode(int(m.node))
		m.node = int32(dest)
		s.events.pushMsg(s.clock+pd, evPropArrive, int(m.class), l, mi)
		s.startNextIfAny(l)
		return
	}
	cs := &s.classes[m.class]
	lastHop := int(m.hop) == len(cs.route)-1
	if lastHop {
		// Delivery: the message leaves the network at the sink host.
		s.popHead(l)
		s.releaseNode(int(m.node))
		s.deliver(mi)
		s.startNextIfAny(l)
		return
	}
	next := cs.route[m.hop+1]
	if limit := s.nodeLimit[dest]; limit > 0 && s.nodeCount[dest] >= limit {
		// Local flow control: the downstream node is full; the message
		// stays, stalling the channel (store-and-forward blocking).
		s.popHead(l)
		ch.blockedMsg = mi
		ch.blockedInto = dest
		s.blockedOn[dest] = append(s.blockedOn[dest], l)
		return
	}
	s.popHead(l)
	s.moveToNode(mi, dest, next)
	s.startNextIfAny(l)
}

// handlePropArrive lands an in-flight message at m.node: delivery on the
// final hop, otherwise the next channel's queue.
func (s *state) handlePropArrive(mi int32) {
	m := &s.msgs[mi]
	cs := &s.classes[m.class]
	if int(m.hop) == len(cs.route)-1 {
		s.deliver(mi)
		return
	}
	s.stats.touchNode(s, int(m.node))
	s.nodeCount[m.node]++
	m.hop++
	s.enqueue(mi, cs.route[m.hop])
}

// popHead removes channel l's head message. Every call site sits in
// handleCompletion after its touchChan at the same clock, so the stored
// count's integral is already folded to now and no touch is needed here.
func (s *state) popHead(l int) {
	s.channels[l].popFront()
}

// startNextIfAny restarts channel l if messages wait and it is not
// stalled on a blocked message or a link outage.
func (s *state) startNextIfAny(l int) {
	ch := &s.channels[l]
	if ch.blockedMsg == msgNone && !ch.busy && !s.chanDown[l] && ch.n > 0 {
		s.startService(l)
	}
}

// moveToNode advances mi to node dest and queues it on its next channel.
func (s *state) moveToNode(mi int32, dest, nextChannel int) {
	m := &s.msgs[mi]
	s.releaseNode(int(m.node))
	s.stats.touchNode(s, dest)
	s.nodeCount[dest]++
	m.node = int32(dest)
	m.hop++
	s.enqueue(mi, nextChannel)
}

// deliver completes mi: statistics, pool return, isarithmic permit, and
// the window credit (immediately when acknowledgements are instantaneous,
// after the class's AckDelay otherwise). The acknowledgement latency is
// modelled as a deterministic delay; the analytic model uses an
// exponential IS station of the same mean, and by BCMP insensitivity the
// two agree — a property the simulator tests exploit.
func (s *state) deliver(mi int32) {
	m := &s.msgs[mi]
	r := int(m.class)
	s.stats.touchClass(s, r)
	s.inNet[r]--
	s.stats.delivered(r, s.clock-m.admitted, s.clock)
	s.freeMessage(mi)
	if s.permits >= 0 {
		s.permits++
		s.retryAdmissions(-1)
	}
	if ack := s.ackDelay[r]; ack > 0 && s.classes[r].window > 0 {
		s.events.push(s.clock+ack, evAck, r, -1)
		return
	}
	s.creditReturn(r)
}

// creditReturn hands a window credit back to class r's source and wakes
// whatever the credit was gating.
func (s *state) creditReturn(r int) {
	cs := &s.classes[r]
	if cs.window > 0 {
		cs.credits++
	}
	switch s.cfg.Source {
	case SourceBacklogged:
		s.drainBacklog(r)
	default:
		s.scheduleArrival(r)
	}
}

// releaseNode decrements a node's occupancy and unblocks waiters.
func (s *state) releaseNode(node int) {
	s.stats.touchNode(s, node)
	s.nodeCount[node]--
	s.unblockInto(node)
	s.retryAdmissions(node)
}

// unblockInto lets the first channel blocked into node proceed if space
// now exists.
func (s *state) unblockInto(node int) {
	for len(s.blockedOn[node]) > 0 {
		if limit := s.nodeLimit[node]; limit > 0 && s.nodeCount[node] >= limit {
			return
		}
		l := s.blockedOn[node][0]
		s.blockedOn[node] = s.blockedOn[node][1:]
		ch := &s.channels[l]
		mi := ch.blockedMsg
		s.stats.touchChan(s, l)
		ch.blockedMsg = msgNone
		m := &s.msgs[mi]
		cs := &s.classes[m.class]
		s.moveToNode(mi, node, cs.route[m.hop+1])
		s.startNextIfAny(l)
	}
}

// retryAdmissions retries queued admissions: every one when node < 0
// (permit release), otherwise only classes whose source is node (buffer
// release).
func (s *state) retryAdmissions(node int) {
	if len(s.admissionWait) == 0 {
		return
	}
	remaining := s.admissionWait[:0]
	for _, r := range s.admissionWait {
		if (node < 0 || s.classes[r].srcNode == node) && s.admissionResourcesFree(r) {
			s.classes[r].waitingAdmission--
			s.admit(r)
			if s.cfg.Source == SourceThrottled {
				s.scheduleArrival(r)
			}
			continue
		}
		remaining = append(remaining, r)
	}
	s.admissionWait = remaining
}

// sampleLength draws a message length (bits) with the configured
// coefficient of variation: exponential by default, Erlang-k below CV 1
// (deterministic under 0.02), balanced-means hyperexponential above.
func (s *state) sampleLength(stream *rng.Stream, mean float64) float64 {
	cv := s.cfg.LengthCV
	switch {
	case cv == 0 || cv == 1:
		return stream.ExpMean(mean)
	case cv < 0.02:
		return mean
	case cv < 1:
		k := int(1/(cv*cv) + 0.5)
		if k < 1 {
			k = 1
		}
		if k > 64 {
			k = 64
		}
		sum := 0.0
		phaseMean := mean / float64(k)
		for i := 0; i < k; i++ {
			sum += stream.ExpMean(phaseMean)
		}
		return sum
	default:
		// Two-phase hyperexponential with balanced means:
		// p1/mu1 = p2/mu2 = mean/2.
		c2 := cv * cv
		p1 := 0.5 * (1 + math.Sqrt((c2-1)/(c2+1)))
		var p float64
		if stream.Float64() < p1 {
			p = p1
		} else {
			p = 1 - p1
		}
		return stream.ExpMean(mean / (2 * p))
	}
}

// otherEnd returns the endpoint of channel l opposite node.
func (s *state) otherEnd(l, node int) int {
	if int(s.chanFrom[l]) == node {
		return int(s.chanTo[l])
	}
	return int(s.chanFrom[l])
}

// isDeadlocked reports whether messages remain in the network while every
// channel is stalled (blocked or empty) — store-and-forward deadlock.
func (s *state) isDeadlocked() bool {
	inNetwork := 0
	for i := range s.nodeCount {
		inNetwork += s.nodeCount[i]
	}
	if inNetwork == 0 {
		return false
	}
	for l := range s.channels {
		if s.channels[l].busy {
			return false
		}
		if s.channels[l].blockedMsg == msgNone && s.channels[l].n > 0 {
			return false
		}
	}
	return true
}

// sanity panics with a diagnostic if internal invariants break; used by
// tests via the exported debug hooks below.
func (s *state) sanity() error {
	total := 0
	for l := range s.channels {
		ch := &s.channels[l]
		for i := 0; i < ch.n; i++ {
			mi := ch.q[(ch.head+i)&(len(ch.q)-1)]
			if s.msgs[mi].class >= 0 {
				total++
			}
		}
		if ch.blockedMsg != msgNone {
			total++
		}
	}
	inNodes := 0
	for _, c := range s.nodeCount {
		if c < 0 {
			return fmt.Errorf("sim: negative node occupancy")
		}
		inNodes += c
	}
	if total != inNodes {
		return fmt.Errorf("sim: %d messages on channels but %d in node buffers", total, inNodes)
	}
	return nil
}
