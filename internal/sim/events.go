package sim

import "math/bits"

// Event is a deferred action scheduled on an EventQueue. Events model
// asynchronous hardware activity — a DMA transfer chunk completing, a
// network packet arriving — that must happen at a precise simulated time
// regardless of what the CPU is doing.
//
// Events fire in order of the key (At, pri, seq, sub). seq is the
// queue's scheduling counter, so equal-time events are FIFO; pri ranks
// ahead of it for callers that order same-instant events by content
// (SchedulePri); sub breaks ties among a band of events that share one
// seq (ScheduleBand). The struct stays at 48 bytes — index and pooled
// share a word — because every pending event of every world pays for it.
type Event struct {
	// At is the simulated time the event fires.
	At Time
	// Fire performs the event's effect. It runs with the clock already
	// advanced to at least At.
	Fire func(now Time)

	seq    uint64 // tie-breaker: FIFO among events with equal At
	pri    uint64 // ranks before seq; 0 except via SchedulePri
	sub    uint64 // ranks after seq; 0 except via ScheduleBand
	index  int32  // heap slot; see the sentinels below
	pooled bool   // recycled through the queue's free list after firing
}

// index sentinels. A live event's index is its heap position (>= 0)
// or idxFar while it waits in the far tier; the other negative values
// record why it left the queue, so stale handles can never alias a
// live slot.
const (
	idxFired     = -1 // popped by Step/RunUntil/Drain
	idxCancelled = -2 // removed by Cancel or Reset
	idxFar       = -3 // pending in a far-tier bucket or the overflow
)

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == idxCancelled }

// EventQueue is a deterministic time-ordered queue of events. Events with
// the same timestamp fire in the order they were scheduled (unless
// SchedulePri or ScheduleBand says otherwise), which keeps whole-
// simulation behaviour reproducible.
//
// The queue has two tiers split at the instant hi:
//   - the near tier, a 4-ary min-heap of *Event ordered by the Event
//     key, holds exactly the events with At <= hi;
//   - the far tier holds every later event, unsorted, in a run of
//     equal-width time buckets followed by one overflow slice for
//     everything past the last bucket. A far push is an O(1) append.
//
// When the heap empties, the earliest non-empty bucket is heapified
// into it and hi moves to that bucket's last instant. When the buckets
// run out, the overflow is spread into fresh ones whose power-of-two
// width comes from its own time span and count: bucketFill to
// 2*bucketFill events per bucket. The tiers partition events by At and
// the key is a total order, so the heap's root is always the global
// minimum: the queue fires in exactly the order one heap of every
// pending event would, while each sift touches a heap a bucket deep.
// This is R. Brown's calendar queue (CACM 1988) with the overflow rung
// of Tang et al.'s ladder queue (TOMACS 2005).
//
// The queue does not own a clock; the machine drives it by calling
// RunUntil with the clock's current time after every modelled cost.
type EventQueue struct {
	h  []*Event // near tier: 4-ary heap of the events with At <= hi
	hi Time     // last instant the near tier covers

	// far[i] holds the far events in [base + i<<shift, base +
	// (i+1)<<shift); far[:cur] are consumed, so hi lies past them.
	far   [][]*Event
	cur   int
	base  Time
	shift uint
	over  []*Event // far events past the last bucket
	nfar  int      // events in far[cur:] and over

	seq  uint64
	free []*Event // recycled pooled events (no outstanding handles)
}

// bucketFill is, within a factor of two, the mean occupancy a spread
// gives its buckets: enough events to amortize a refill, few enough
// that the near heap stays shallow.
const bucketFill = 4

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// NewEventQueueSize returns an empty queue whose heap and free list are
// pre-sized for roughly hint simultaneously pending events. Only
// capacity is reserved — no Event objects are allocated up front — so
// construction stays cheap while the first hint schedules avoid the
// append-growth reallocations that would otherwise show up as steady-
// state allocations in tight device loops. The far tier's slices grow
// on first use and keep their capacity from then on.
func NewEventQueueSize(hint int) *EventQueue {
	if hint <= 0 {
		return &EventQueue{}
	}
	return &EventQueue{
		h:    make([]*Event, 0, hint),
		free: make([]*Event, 0, hint),
	}
}

// SnapshotSeq returns the queue's scheduling tie-break counter, for
// world snapshot/restore. Snapshots are only taken with the queue
// settled (Len() == 0), so the counter is the queue's entire state.
func (q *EventQueue) SnapshotSeq() uint64 { return q.seq }

// Reset discards every pending event without firing it and rewinds the
// tie-break counter to seq, as part of restoring a world snapshot.
// Discarded pooled events return to the free list; outstanding handles
// observe Cancelled. The far tier keeps its slices' capacity.
func (q *EventQueue) Reset(seq uint64) {
	q.h = q.discard(q.h)
	for i := q.cur; i < len(q.far); i++ {
		q.far[i] = q.discard(q.far[i])
	}
	q.over = q.discard(q.over)
	q.hi, q.far, q.cur, q.nfar = 0, q.far[:0], 0, 0
	q.seq = seq
}

// discard cancels and releases every event of evs and returns it
// emptied.
func (q *EventQueue) discard(evs []*Event) []*Event {
	for i, e := range evs {
		e.index = idxCancelled
		q.release(e)
		evs[i] = nil
	}
	return evs[:0]
}

// Schedule enqueues fire to run at time at and returns a handle that can
// be passed to Cancel. Handle-returning events are never pooled: the
// caller may hold the handle indefinitely, so recycling could alias a
// stale handle onto a live event. Use ScheduleFunc on hot paths that
// never cancel.
func (q *EventQueue) Schedule(at Time, fire func(now Time)) *Event {
	q.seq++
	e := &Event{At: at, Fire: fire, seq: q.seq}
	q.push(e)
	return e
}

// ScheduleFunc enqueues fire at time at without returning a handle.
// Because no handle escapes, the Event object is recycled through an
// internal free list once it fires, making repeated scheduling
// allocation-free. This is the hot path used by DMA transfer walkers
// and other fire-and-forget device activity.
func (q *EventQueue) ScheduleFunc(at Time, fire func(now Time)) {
	q.seq++
	q.push(q.pooled(at, 0, q.seq, 0, fire))
}

// SchedulePri is ScheduleFunc with an explicit priority word: events
// with equal At fire in (pri, seq) order, so a caller that derives pri
// from event CONTENT gets a same-instant ordering that does not depend
// on scheduling order. The adaptive sharded synchronizer uses this to
// keep message delivery order canonical when different shard layouts
// flush the same messages at different barriers; everything else
// schedules at pri 0 and keeps plain FIFO.
func (q *EventQueue) SchedulePri(at Time, pri uint64, fire func(now Time)) {
	q.seq++
	q.push(q.pooled(at, pri, q.seq, 0, fire))
}

// ScheduleBand is ScheduleFunc for a run of events that must occupy one
// FIFO slot: every event of the run takes seq = band, and among equal-
// time events of the run sub decides. The caller opens a run by taking
// band = SnapshotSeq()+1 before its first call, so the run ranks after
// everything already queued and before anything scheduled after it; the
// counter still advances once per event, so no other event ever gets a
// seq the run consumed and SnapshotSeq moves exactly as it would under
// ScheduleFunc. sub must be unique within the band for the key to stay
// total. The sharded engine's barrier flush uses this to order a
// barrier's deliveries by content without sorting them.
func (q *EventQueue) ScheduleBand(at Time, band, sub uint64, fire func(now Time)) {
	q.seq++
	if band > q.seq {
		panic("sim: ScheduleBand band beyond the queue's sequence counter")
	}
	q.push(q.pooled(at, 0, band, sub, fire))
}

// pooled takes a recycled event (or allocates one that will be
// recycled) and fills in its key and action.
func (q *EventQueue) pooled(at Time, pri, seq, sub uint64, fire func(now Time)) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Event{pooled: true}
	}
	e.At, e.Fire, e.seq, e.pri, e.sub = at, fire, seq, pri, sub
	return e
}

// release returns a pooled event to the free list. Called after the
// event has been popped and its Fire/At copied out.
func (q *EventQueue) release(e *Event) {
	if !e.pooled {
		return
	}
	e.Fire = nil // drop the closure eagerly
	q.free = append(q.free, e)
}

// Cancel removes a scheduled event. Cancelling an event that already
// fired or was already cancelled is a no-op. Cancel validates that the
// handle actually occupies its claimed slot in THIS queue before
// touching it, so a stale or foreign handle can never evict an innocent
// event or corrupt heap order. A far-tier event has no slot index, so
// cancelling one scans its bucket (or the overflow); only tests cancel,
// so the hot paths do not pay to index the far tier.
func (q *EventQueue) Cancel(e *Event) {
	if e == nil {
		return
	}
	if e.index == idxFar {
		if q.removeFar(e) {
			e.index = idxCancelled
		}
		return
	}
	if e.index < 0 || int(e.index) >= len(q.h) || q.h[e.index] != e {
		return
	}
	q.remove(int(e.index))
	e.index = idxCancelled
}

// removeFar deletes e from the far slice its At maps it to, reporting
// whether it was there.
func (q *EventQueue) removeFar(e *Event) bool {
	if e.At <= q.hi {
		return false // a foreign handle: this queue's far tier is later
	}
	p := &q.over
	if i := q.bucket(e.At); i < uint64(len(q.far)) {
		p = &q.far[i]
	}
	s := *p
	for i, x := range s {
		if x == e {
			n := len(s) - 1
			s[i], s[n] = s[n], nil
			*p = s[:n]
			q.nfar--
			return true
		}
	}
	return false
}

// Len reports how many events are pending.
func (q *EventQueue) Len() int { return len(q.h) + q.nfar }

// NextAt returns the timestamp of the earliest pending event, or Never if
// the queue is empty.
func (q *EventQueue) NextAt() Time {
	if !q.ready() {
		return Never
	}
	return q.h[0].At
}

// Step pops and fires exactly the earliest pending event, returning
// its timestamp. It reports false (firing nothing) on an empty queue.
// The sharded engine drives shards one event at a time so it can
// advance the shard clock to each event and count fired events for the
// host-throughput metric; RunUntil remains the single-world fast path.
func (q *EventQueue) Step() (Time, bool) {
	if !q.ready() {
		return Never, false
	}
	e := q.pop()
	fire, at := e.Fire, e.At
	q.release(e) // recycle before firing: fire may reschedule
	fire(at)
	return at, true
}

// RunUntil fires, in order, every event with At <= t. Events fired may
// schedule further events; those are honoured within the same call if
// they also fall at or before t.
func (q *EventQueue) RunUntil(t Time) {
	for q.ready() && q.h[0].At <= t {
		e := q.pop()
		fire, at := e.Fire, e.At
		q.release(e) // recycle before firing: fire may reschedule
		fire(at)
	}
}

// Drain fires every pending event regardless of timestamp, in time order,
// and returns the timestamp of the last event fired (or start if none).
// It is used at end of simulation to let in-flight transfers finish.
func (q *EventQueue) Drain(start Time) Time {
	last := start
	for q.ready() {
		e := q.pop()
		fire, at := e.Fire, e.At
		if at > last {
			last = at
		}
		q.release(e)
		fire(at)
	}
	return last
}

// less reports whether a fires before b.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.sub < b.sub
}

// push files e in the near heap when it falls at or before hi, else
// appends it to its far bucket or the overflow. While the far tier is
// empty and the heap shallower than one bucket, the heap takes e and hi
// rises to cover it, so a queue that never holds more than a few
// events runs as a plain heap.
func (q *EventQueue) push(e *Event) {
	if e.At > q.hi && q.nfar == 0 && len(q.h) < bucketFill {
		q.hi, q.far, q.cur = e.At, q.far[:0], 0
	}
	if e.At <= q.hi {
		q.h = append(q.h, e)
		q.up(len(q.h)-1, e)
		return
	}
	e.index = idxFar
	q.nfar++
	if i := q.bucket(e.At); i < uint64(len(q.far)) {
		q.far[i] = append(q.far[i], e)
		return
	}
	q.over = append(q.over, e)
}

// bucket returns the index of the bucket spanning at, which must be
// later than hi; it is len(far) or more for overflow times. Every
// instant after hi maps at or past cur, because hi is the last instant
// of bucket cur-1 whenever far holds buckets.
func (q *EventQueue) bucket(at Time) uint64 {
	return (uint64(at) - uint64(q.base)) >> q.shift
}

// ready reports whether the near heap holds an event, refilling it from
// the far tier when it has run dry.
func (q *EventQueue) ready() bool { return len(q.h) > 0 || q.nfar > 0 && q.refill() }

// refill moves the earliest far-tier events into the empty near heap
// and reports whether there were any.
func (q *EventQueue) refill() bool {
	for q.nfar > 0 {
		if q.cur == len(q.far) {
			q.spread()
		}
		i := q.cur
		b := q.far[i]
		q.cur++
		q.hi = q.bucketLast(i)
		if len(b) > 0 {
			q.nfar -= len(b)
			q.fill(b)
			q.far[i] = b[:0]
			return true
		}
	}
	return false
}

// spread deals the overflow, which then holds every far event, into
// fresh buckets starting at its earliest event: bucketFill to
// 2*bucketFill events per bucket. The old buckets are all consumed, so
// their slices are reused.
func (q *EventQueue) spread() {
	lo, top := q.over[0].At, q.over[0].At
	for _, e := range q.over[1:] {
		lo, top = min(lo, e.At), max(top, e.At)
	}
	span := uint64(top) - uint64(lo)
	n := uint64(len(q.over)/bucketFill + 1)
	// The narrowest power-of-two width that covers span in n buckets.
	q.base, q.shift, q.cur = lo, uint(bits.Len64(span/n)), 0
	nb := int(span>>q.shift) + 1
	if nb > cap(q.far) {
		q.far = append(q.far[:cap(q.far)], make([][]*Event, nb-cap(q.far))...)
	}
	q.far = q.far[:nb]
	for i, e := range q.over {
		b := q.bucket(e.At)
		q.far[b] = append(q.far[b], e)
		q.over[i] = nil
	}
	q.over = q.over[:0]
}

// bucketLast returns the last instant of bucket i, saturating at Never.
func (q *EventQueue) bucketLast(i int) Time {
	off := uint64(i+1)<<q.shift - 1
	if off > uint64(Never)-uint64(q.base) {
		return Never
	}
	return q.base + Time(off)
}

// fill heapifies evs into the empty near heap and clears evs' slots.
func (q *EventQueue) fill(evs []*Event) {
	q.h = append(q.h[:0], evs...)
	clear(evs)
	h := q.h
	for i, e := range h {
		e.index = int32(i)
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		q.down(i, h[i])
	}
}

// pop removes the earliest event and marks it fired. The heap must be
// non-empty.
func (q *EventQueue) pop() *Event {
	h := q.h
	e := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	q.h = h[:n]
	if n > 0 {
		q.down(0, last)
	}
	e.index = idxFired
	return e
}

// remove deletes the event in slot i; the caller marks it.
func (q *EventQueue) remove(i int) {
	h := q.h
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	q.h = h[:n]
	if i == n {
		return
	}
	if i > 0 && less(last, h[(i-1)/4]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up places e, which belongs in slot i or above, by moving every parent
// that fires after it one level down.
func (q *EventQueue) up(i int, e *Event) {
	h := q.h
	for i > 0 {
		p := (i - 1) / 4
		pe := h[p]
		if !less(e, pe) {
			break
		}
		h[i] = pe
		pe.index = int32(i)
		i = p
	}
	h[i] = e
	e.index = int32(i)
}

// down places e, which belongs in slot i or below, by moving the
// earliest child up one level while it fires before e.
func (q *EventQueue) down(i int, e *Event) {
	h := q.h
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, me := c, h[c]
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if less(h[j], me) {
				m, me = j, h[j]
			}
		}
		if !less(me, e) {
			break
		}
		h[i] = me
		me.index = int32(i)
		i = m
	}
	h[i] = e
	e.index = int32(i)
}
