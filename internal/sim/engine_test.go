package sim

import (
	"testing"
	"testing/quick"
)

// eventQueue is the queue surface the ordering tests drive, so each test
// runs against the calendar queue and the heap reference alike.
type eventQueue interface {
	push(at float64, kind eventKind, class, channel int)
	pushMsg(at float64, kind eventKind, class, channel int, msg int32)
	pop() event
	empty() bool
	reset()
}

// heapQueue is a binary min-heap ordered by (at, seq): the reference the
// calendar queue is checked against. It is simple enough to trust by
// inspection, and it assigns seq the same way, so identical push streams
// must yield identical pop streams, seq included.
type heapQueue struct {
	items []event
	seq   uint64
}

func (q *heapQueue) push(at float64, kind eventKind, class, channel int) {
	q.pushMsg(at, kind, class, channel, msgNone)
}

func (q *heapQueue) pushMsg(at float64, kind eventKind, class, channel int, msg int32) {
	q.seq++
	e := event{at: at, seq: q.seq, kind: kind, class: int16(class), channel: int32(channel), msg: msg}
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *heapQueue) less(i, j int) bool {
	return eventLess(&q.items[i], &q.items[j])
}

func (q *heapQueue) empty() bool { return len(q.items) == 0 }

func (q *heapQueue) reset() {
	q.items = q.items[:0]
	q.seq = 0
}

func (q *heapQueue) pop() event {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.items) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.items) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top
}

// eachQueue runs a subtest against the calendar queue and the heap
// reference; the basic ordering properties below must hold for both.
func eachQueue(t *testing.T, body func(t *testing.T, q eventQueue)) {
	t.Helper()
	impls := []struct {
		name string
		mk   func() eventQueue
	}{
		{"heap", func() eventQueue { return &heapQueue{} }},
		{"calendar", func() eventQueue { return newCalendarQueue() }},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) { body(t, impl.mk()) })
	}
}

func TestEventQueueOrdering(t *testing.T) {
	eachQueue(t, func(t *testing.T, q eventQueue) {
		times := []float64{5, 1, 3, 2, 4}
		for _, at := range times {
			q.push(at, evArrival, 0, -1)
		}
		prev := -1.0
		for !q.empty() {
			e := q.pop()
			if e.at < prev {
				t.Fatalf("disorder: %v after %v", e.at, prev)
			}
			prev = e.at
		}
	})
}

func TestEventQueueFIFOTieBreak(t *testing.T) {
	eachQueue(t, func(t *testing.T, q eventQueue) {
		for class := 0; class < 10; class++ {
			q.push(1.0, evArrival, class, -1)
		}
		for class := 0; class < 10; class++ {
			e := q.pop()
			if e.class != int16(class) {
				t.Fatalf("simultaneous events reordered: got class %d at position %d", e.class, class)
			}
		}
	})
}

func TestEventQueueInterleaved(t *testing.T) {
	eachQueue(t, func(t *testing.T, q eventQueue) {
		q.push(2, evCompletion, -1, 0)
		q.push(1, evArrival, 0, -1)
		e := q.pop()
		if e.kind != evArrival {
			t.Fatal("wrong first event")
		}
		q.push(0.5, evAck, 1, -1)
		e = q.pop()
		if e.kind != evAck {
			t.Fatal("wrong second event")
		}
		e = q.pop()
		if e.kind != evCompletion || !q.empty() {
			t.Fatal("wrong final event")
		}
	})
}

// Property: popping returns events in nondecreasing time order for any
// insertion sequence, on either implementation.
func TestEventQueueProperty(t *testing.T) {
	eachQueue(t, func(t *testing.T, q eventQueue) {
		f := func(raw []uint16) bool {
			q.reset()
			for _, r := range raw {
				q.push(float64(r), evArrival, 0, -1)
			}
			prev := -1.0
			for !q.empty() {
				e := q.pop()
				if e.at < prev {
					return false
				}
				prev = e.at
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}
