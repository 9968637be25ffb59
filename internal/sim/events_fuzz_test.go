package sim

import (
	"testing"
	"unsafe"
)

// TestEventSize pins sim.Event at 48 bytes. One more word would round
// the allocation up to the 64-byte size class, and every pending event
// of every world pays for it.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 48 {
		t.Fatalf("sizeof(Event) = %d, want 48", got)
	}
}

// refEvent is one pending event of the reference model.
type refEvent struct {
	at            Time
	pri, seq, sub uint64
	id            int
}

func (a refEvent) before(b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.sub < b.sub
}

// refQueue is the reference model: a plain slice, popped by linear scan
// for the smallest (At, pri, seq, sub).
type refQueue struct {
	evs []refEvent
	seq uint64
}

func (r *refQueue) add(e refEvent) { r.evs = append(r.evs, e) }

func (r *refQueue) min() int {
	m := 0
	for i := range r.evs {
		if r.evs[i].before(r.evs[m]) {
			m = i
		}
	}
	return m
}

func (r *refQueue) take(i int) refEvent {
	e := r.evs[i]
	r.evs = append(r.evs[:i], r.evs[i+1:]...)
	return e
}

func (r *refQueue) find(id int) int {
	for i := range r.evs {
		if r.evs[i].id == id {
			return i
		}
	}
	return -1
}

// Handle states the model tracks for every Schedule handle.
const (
	hPending = iota
	hFired
	hCancelled
)

// childBase starts the id space of events scheduled from inside a Fire,
// so each side numbers them by its own counter and a correct queue
// makes the two counters agree.
const childBase = 1 << 30

// FuzzEventQueue drives the queue and the reference model with one
// byte-coded operation stream — Schedule, ScheduleFunc, SchedulePri,
// ScheduleBand (opening a band or joining the open one), Cancel of
// live, fired and cancelled handles, Step, RunUntil and Reset — and
// demands the same firing order, Len, NextAt, SnapshotSeq and handle
// states after every operation. An event whose id is 2 mod 3 schedules
// a child from inside its Fire, the DMA-walker pattern that recycles
// the event being fired. Timestamps span 16 ticks, so the tie-break
// words decide most comparisons.
//
// Op bytes from 0xe0 up are the far variants, which reach the queue's
// far tier: a schedule lands a<<(b>>4) ticks ahead (up to about 2^23),
// RunUntil jumps as far, and Step becomes Drain. Mixed with the near
// ops they schedule behind hi right after a refill, fill the overflow
// while buckets are live and force it to re-spread, and Cancel, Reset
// and Drain with buckets populated.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 1, 3, 2, 3, 1, 3, 4, 3, 2, 6, 6, 6, 6, 6, 6})
	f.Add([]byte{3, 5, 9, 4, 5, 1, 4, 5, 7, 1, 5, 0, 3, 2, 8, 7, 40})
	f.Add([]byte{0, 9, 0, 9, 0, 9, 5, 1, 5, 1, 7, 3, 5, 0, 8, 2, 1, 4, 7, 99})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1536 {
			ops = ops[:1536]
		}
		q := NewEventQueueSize(4)
		var ref refQueue
		var got, want []int
		type handle struct {
			e  *Event
			id int
		}
		var handles []handle
		state := map[int]int{} // handle event id -> hPending/hFired/hCancelled
		var now Time
		nextID, gotChild, wantChild := 0, childBase, childBase
		var band, bandN uint64
		bandOpen := false

		var fire func(id int) func(Time)
		fire = func(id int) func(Time) {
			return func(at Time) {
				got = append(got, id)
				if id%3 == 2 {
					gotChild++
					q.ScheduleFunc(at+Time(id%5), fire(gotChild))
				}
			}
		}
		// stepRef pops the model's earliest event and mirrors its Fire.
		stepRef := func() {
			e := ref.take(ref.min())
			want = append(want, e.id)
			if _, ok := state[e.id]; ok {
				state[e.id] = hFired
			}
			if e.id%3 == 2 {
				wantChild++
				ref.seq++
				ref.add(refEvent{at: e.at + Time(e.id%5), seq: ref.seq, id: wantChild})
			}
		}
		newID := func() int { nextID++; return nextID - 1 }

		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i]%9, ops[i+1], ops[i+2]
			far := ops[i] >= 0xe0
			at := now + Time(a%16)
			if far {
				at = now + Time(a)<<(b>>4)
			}
			switch op {
			case 0: // Schedule (handle)
				id := newID()
				handles = append(handles, handle{q.Schedule(at, fire(id)), id})
				state[id] = hPending
				ref.seq++
				ref.add(refEvent{at: at, seq: ref.seq, id: id})
			case 1: // ScheduleFunc
				id := newID()
				q.ScheduleFunc(at, fire(id))
				ref.seq++
				ref.add(refEvent{at: at, seq: ref.seq, id: id})
			case 2: // SchedulePri
				id, pri := newID(), uint64(b%4)
				q.SchedulePri(at, pri, fire(id))
				ref.seq++
				ref.add(refEvent{at: at, pri: pri, seq: ref.seq, id: id})
			case 3, 4: // ScheduleBand: open a new band, or join the open one
				if op == 3 || !bandOpen {
					band, bandN, bandOpen = q.SnapshotSeq()+1, 0, true
				}
				bandN++
				id, sub := newID(), uint64(b)<<32|bandN // sub unique within the band
				q.ScheduleBand(at, band, sub, fire(id))
				ref.seq++
				ref.add(refEvent{at: at, seq: band, sub: sub, id: id})
			case 5: // Cancel: live (root or interior), fired or cancelled
				if len(handles) == 0 {
					q.Cancel(nil)
					break
				}
				h := handles[int(a)%len(handles)]
				q.Cancel(h.e)
				if state[h.id] == hPending {
					state[h.id] = hCancelled
					ref.take(ref.find(h.id))
				}
			case 6:
				if far { // Drain
					last := q.Drain(now)
					wantLast := now
					for len(ref.evs) > 0 {
						wantLast = max(wantLast, ref.evs[ref.min()].at)
						stepRef()
					}
					if last != wantLast {
						t.Fatalf("op %d: Drain returned %v, model %v", i/3, last, wantLast)
					}
					now = last
					break
				}
				// Step
				at, ok := q.Step()
				if ok != (len(ref.evs) > 0) {
					t.Fatalf("op %d: Step reported %v with %d model events pending", i/3, ok, len(ref.evs))
				}
				if ok {
					stepRef()
					if at > now {
						now = at
					}
				}
			case 7: // RunUntil
				to := now + Time(a%32)
				if far {
					to = at
				}
				q.RunUntil(to)
				for len(ref.evs) > 0 && ref.evs[ref.min()].at <= to {
					stepRef()
				}
				now = to
			case 8: // Reset, rewinding or advancing the counter
				seq := q.SnapshotSeq() + uint64(a%4)
				if s := uint64(b % 8); s <= q.SnapshotSeq() && a%2 == 0 {
					seq = q.SnapshotSeq() - s
				}
				q.Reset(seq)
				for _, e := range ref.evs {
					if _, ok := state[e.id]; ok {
						state[e.id] = hCancelled
					}
				}
				ref.evs, ref.seq, bandOpen = ref.evs[:0], seq, false
			}

			if q.Len() != len(ref.evs) {
				t.Fatalf("op %d: Len %d, model %d", i/3, q.Len(), len(ref.evs))
			}
			wantNext := Never
			if len(ref.evs) > 0 {
				wantNext = ref.evs[ref.min()].at
			}
			if q.NextAt() != wantNext {
				t.Fatalf("op %d: NextAt %v, model %v", i/3, q.NextAt(), wantNext)
			}
			if q.SnapshotSeq() != ref.seq {
				t.Fatalf("op %d: SnapshotSeq %d, model %d", i/3, q.SnapshotSeq(), ref.seq)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: fired %d events, model %d", i/3, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("op %d: firing order diverges at %d:\n got %v\nwant %v", i/3, k, got, want)
				}
			}
			for _, h := range handles {
				if h.e.Cancelled() != (state[h.id] == hCancelled) {
					t.Fatalf("op %d: handle %d Cancelled()=%v, model state %d", i/3, h.id, h.e.Cancelled(), state[h.id])
				}
			}
		}
	})
}
