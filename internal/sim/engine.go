package sim

// event is a scheduled simulation event. The struct is deliberately free
// of pointers — in-flight messages are referenced by pool index — so that
// scheduler moves take no GC write barriers and a queued backlog of
// events keeps nothing else alive.
type event struct {
	at  float64 // simulated time, seconds
	seq uint64  // tie-break: FIFO among simultaneous events
	// channel is the channel index for completion events (the fault-
	// transition index for evFault, and the arrival epoch for evArrival);
	// msg the message pool index for propagation arrivals (msgNone
	// otherwise); class the class index for arrival events. class is
	// int16 to keep the struct at 32 bytes — scheduler throughput is
	// bounded by event copies, and no model here approaches 32k classes.
	channel int32
	msg     int32
	class   int16
	kind    eventKind
}

type eventKind uint8

const (
	evArrival    eventKind = iota // next exogenous message of a class
	evCompletion                  // channel finishes transmitting its head
	evAck                         // end-to-end acknowledgement reaches the source
	evBackground                  // next uncontrolled cross-traffic message on a channel
	evPropArrive                  // an in-flight message reaches the next node
	evBurstFlip                   // an on-off source toggles state
	evFault                       // a scheduled fault transition fires (fault.go)
)

// eventLess is the scheduler ordering contract: events are served in
// strictly increasing (at, seq) order. seq is assigned by the queue at
// push time, so simultaneous events pop in FIFO push order. The calendar
// queue realises exactly this total order; the tests in engine_test.go
// and scheduler_test.go check its pop sequences against a binary-heap
// reference the way denseref_test.go guards the sparse AMVA.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
