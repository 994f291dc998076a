package sim

import "math"

// calendarQueue is a calendar queue (Brown 1988): events hash into
// time-width buckets like days into a wall calendar, so push and pop are
// amortised O(1) instead of a binary heap's O(log n). It is the
// simulator's scheduler.
//
// Ordering contract (eventLess): strictly increasing (at, seq), FIFO
// among simultaneous events — the order of the binary-heap reference in
// engine_test.go, which the tests pop against. The contract holds by
// construction: an event's virtual bucket vb = floor(at/width) is
// monotone in at, all events sharing a vb land in the same physical
// bucket (vb & mask) where they are kept sorted by (at, seq) descending
// (minimum at the tail, a pop away), and the dequeue scan visits virtual
// buckets in increasing order. Equal timestamps always share a vb, so
// seq ties are broken inside one sorted bucket, never across buckets.
// (An unsorted-bucket variant with a min-scan at pop was tried and
// measured slower: the pop scan pays the comparator per element per pop,
// while the sorted insert shifts on average half a bucket per push.)
//
// The dequeue scan maintains the invariant that no queued event's vb is
// behind it. Pops preserve it (they serve the minimum), and insertion
// restores it by pulling the scan back whenever a push lands behind —
// rare in simulator use, where pushes are at or after the clock, but
// possible after a width re-estimate and routine in adversarial tests.
type calendarQueue struct {
	seq     uint64
	buckets [][]event // each sorted by (at, seq) descending; minimum at the tail
	// tvb caches each bucket's tail (minimum) virtual bucket (tvbEmpty
	// when the bucket is empty), so the dequeue scan compares integers
	// instead of recomputing vbOf per probe. Distinct buckets always cache
	// distinct values: a virtual bucket maps to exactly one physical
	// bucket.
	tvb   []int64
	mask  int     // len(buckets)-1; bucket count is a power of two
	width float64 // bucket time width
	inv   float64 // 1/width
	size  int
	cur   int   // physical bucket the dequeue scan stands on
	curVB int64 // virtual bucket the scan is serving
	// scratch backs estimateWidth's sampling between resizes.
	scratch []float64
}

// calMinBuckets keeps the directory small enough that the slow-path
// direct search stays cheap for the simulator's typical populations.
const calMinBuckets = 4

// arenaSlot is the per-bucket capacity carved from the shared arena.
const arenaSlot = 8

// tvbEmpty marks an empty bucket in the tvb cache; it compares greater
// than every real virtual bucket.
const tvbEmpty = int64(math.MaxInt64)

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{width: 1}
	q.inv = 1 / q.width
	q.grow(calMinBuckets)
	return q
}

func (q *calendarQueue) grow(nbuckets int) {
	q.buckets = make([][]event, nbuckets)
	// One contiguous arena backs every bucket (arenaSlot events each), so
	// the push/pop hot paths work in one small L1-resident block instead
	// of nbuckets scattered heap allocations. A bucket that outgrows its
	// slot silently regrows off-arena via append — rare (the resize rule
	// keeps mean occupancy at or below two) and only a locality loss,
	// never a correctness one.
	arena := make([]event, nbuckets*arenaSlot)
	for i := range q.buckets {
		q.buckets[i] = arena[i*arenaSlot : i*arenaSlot : (i+1)*arenaSlot]
	}
	q.tvb = make([]int64, nbuckets)
	for i := range q.tvb {
		q.tvb[i] = tvbEmpty
	}
	q.mask = nbuckets - 1
}

// vbOf maps a timestamp to its virtual bucket. Far-future outliers that
// would overflow int64 are clamped onto one shared virtual bucket; since
// the clamp is monotone and shared-vb events land in one physical
// bucket, ordering is preserved. (Negative timestamps would break the
// floor here; simulated time is never negative.)
func (q *calendarQueue) vbOf(at float64) int64 {
	v := at * q.inv
	if v >= float64(int64(1)<<62) {
		return int64(1) << 62
	}
	return int64(v)
}

func (q *calendarQueue) push(at float64, kind eventKind, class, channel int) {
	q.pushMsg(at, kind, class, channel, msgNone)
}

func (q *calendarQueue) pushMsg(at float64, kind eventKind, class, channel int, msg int32) {
	// This is insert() unrolled for the live-push case. A fresh push
	// always carries the largest seq in the queue, so the descending
	// (at, seq) comparison collapses to at alone: every queued event with
	// an equal timestamp is older and sorts ahead of (above) this one.
	q.seq++
	e := event{at: at, seq: q.seq, kind: kind, class: int16(class), channel: int32(channel), msg: msg}
	vb := q.vbOf(at)
	if vb < q.curVB {
		q.curVB = vb
		q.cur = int(vb) & q.mask
	}
	b := int(vb) & q.mask
	s := append(q.buckets[b], e)
	i := len(s) - 1
	for i > 0 && s[i-1].at <= at {
		s[i] = s[i-1]
		i--
	}
	s[i] = e
	q.buckets[b] = s
	if i == len(s)-1 {
		q.tvb[b] = vb // e is the bucket's new minimum
	}
	q.size++
	if q.size > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// insert places e into its bucket, keeping the bucket sorted descending
// by (at, seq) so the bucket minimum is a pop-from-the-back away. Used by
// resize, where reinserted events carry historic seq values and need the
// full comparison; live pushes go through the unrolled copy in pushMsg.
func (q *calendarQueue) insert(e event) {
	vb := q.vbOf(e.at)
	if vb < q.curVB {
		// The event lands behind the dequeue scan (possible after a
		// width change, or under push orders the simulator never
		// produces but the adversarial tests do). Pull the scan back so
		// the invariant curVB <= vb(every queued event) holds again.
		q.curVB = vb
		q.cur = int(vb) & q.mask
	}
	b := int(vb) & q.mask
	s := append(q.buckets[b], e)
	i := len(s) - 1
	for i > 0 && eventLess(&s[i-1], &e) {
		s[i] = s[i-1]
		i--
	}
	s[i] = e
	q.buckets[b] = s
	if i == len(s)-1 {
		q.tvb[b] = vb // e is the bucket's new minimum
	}
	q.size++
}

func (q *calendarQueue) pop() event {
	// Fast path: walk physical buckets from the scan position until one's
	// cached tail virtual bucket matches the virtual bucket the scan is
	// serving. That bucket's tail is the queue minimum: every queued
	// event has vb >= curVB (the scan invariant), all vb == curVB events
	// share this physical bucket, and vb > curVB implies a strictly later
	// timestamp.
	n := len(q.buckets)
	b := -1
	for i := 0; i < n; i++ {
		if q.tvb[q.cur] == q.curVB {
			b = q.cur
			break
		}
		q.cur++
		if q.cur == n {
			q.cur = 0
		}
		q.curVB++
	}
	if b < 0 {
		// Slow path: a full lap found nothing due this calendar year (the
		// next event is far in the future). Jump the scan straight to the
		// global minimum: the bucket with the smallest cached virtual
		// bucket holds it.
		best := 0
		for i := 1; i < n; i++ {
			if q.tvb[i] < q.tvb[best] {
				best = i
			}
		}
		q.cur = best
		q.curVB = q.tvb[best]
		b = best
	}
	// The bucket minimum sits at the tail; the new tail refreshes the
	// bucket's tvb entry after the removal.
	s := q.buckets[b]
	m := len(s) - 1
	e := s[m]
	q.buckets[b] = s[:m]
	if m > 0 {
		q.tvb[b] = q.vbOf(s[m-1].at)
	} else {
		q.tvb[b] = tvbEmpty
	}
	q.size--
	if n > calMinBuckets && q.size < n/4 {
		q.resize(n / 2)
	}
	return e
}

// resize rebuilds the bucket directory at nbuckets buckets with a width
// re-estimated from the current population, then re-anchors the scan at
// the queue minimum. Everything here is a pure function of the queue
// content, so resizes are deterministic — though they only affect
// performance, never pop order, which the ordering contract pins down
// regardless of bucketing.
func (q *calendarQueue) resize(nbuckets int) {
	old := q.buckets
	q.width = q.estimateWidth()
	q.inv = 1 / q.width
	q.grow(nbuckets)
	q.size = 0
	q.cur, q.curVB = 0, 0
	for _, b := range old {
		for i := range b {
			q.insert(b[i])
		}
	}
	q.anchor()
}

// anchor points the scan at the bucket holding the global minimum.
func (q *calendarQueue) anchor() {
	best := 0
	for i := 1; i < len(q.tvb); i++ {
		if q.tvb[i] < q.tvb[best] {
			best = i
		}
	}
	if q.tvb[best] != tvbEmpty {
		q.cur = best
		q.curVB = q.tvb[best]
	} else {
		q.cur, q.curVB = 0, 0
	}
}

// estimateWidth picks a bucket width from up to 64 sampled event times:
// three times the median positive gap between time-sorted neighbours, so
// a bucket holds a handful of events and far-future outliers (which would
// wreck a mean-based estimate) cannot inflate the width.
func (q *calendarQueue) estimateWidth() float64 {
	ts := q.scratch[:0]
	for _, b := range q.buckets {
		for i := range b {
			if len(ts) == 64 {
				break
			}
			ts = append(ts, b[i].at)
		}
		if len(ts) == 64 {
			break
		}
	}
	q.scratch = ts
	// Insertion sort: the sample is tiny and this keeps resize free of
	// sort.Float64s' interface machinery.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	// Collapse the sorted times into their positive gaps in place: the
	// write index trails the read index, so no unread element is
	// clobbered.
	gaps := 0
	for i := 1; i < len(ts); i++ {
		if ts[i] > ts[i-1] {
			ts[gaps] = ts[i] - ts[i-1]
			gaps++
		}
	}
	if gaps == 0 {
		return q.width // all sampled events simultaneous: keep the width
	}
	g := ts[:gaps]
	for i := 1; i < len(g); i++ {
		for j := i; j > 0 && g[j] < g[j-1]; j-- {
			g[j], g[j-1] = g[j-1], g[j]
		}
	}
	w := 3 * g[gaps/2]
	if w < 1e-300 {
		return q.width
	}
	return w
}

// reset discards all events and restarts the seq counter, retaining
// internal capacity so a reused runner schedules without allocating.
func (q *calendarQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
		q.tvb[i] = tvbEmpty
	}
	q.seq = 0
	q.size = 0
	q.cur = 0
	q.curVB = 0
}
