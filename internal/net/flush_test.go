package net

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"uldma/internal/sim"
)

// refFlush is the barrier exchange as it was before seq bands, kept as
// the oracle for flush: gather the outboxes, sort by the canonical
// (Arrive, Src, Seq) key, judge each message in that order and schedule
// every copy with a fresh queue seq (by content pri in adaptive mode).
func refFlush(c *ShardedCluster) {
	var p []SMsg
	for s := range c.outbox {
		p = append(p, c.outbox[s]...)
		c.outbox[s] = c.outbox[s][:0]
	}
	slices.SortFunc(p, func(a, b SMsg) int {
		if a.Arrive != b.Arrive {
			return cmp.Compare(a.Arrive, b.Arrive)
		}
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	for _, m := range p {
		verdict := Verdict{N: 1}
		if c.plane != nil {
			verdict = c.plane.Judge(m.Src, m.Dst, m.Sent)
		}
		for k := 0; k < verdict.N; k++ {
			cm := m
			cm.Arrive += verdict.Copies[k].Delay
			ds := c.ShardOf(m.Dst)
			d := c.getDelivery(ds)
			d.m = cm
			if c.cfg.Adaptive {
				c.shards[ds].Events.SchedulePri(cm.Arrive, deliveryPri(cm.Src, cm.Seq), d.fire)
			} else {
				c.shards[ds].Events.ScheduleFunc(cm.Arrive, d.fire)
			}
		}
	}
}

// countPlane is a deterministic fault plane for the flush oracle: it
// drops every 7th judged message and duplicates every 5th, delaying
// copies by 0..2 ticks so some duplicates tie on arrival and others
// overtake later messages.
type countPlane struct{ n int }

func (p *countPlane) Judge(src, dst int, at sim.Time) Verdict {
	p.n++
	switch {
	case p.n%7 == 0:
		return Verdict{}
	case p.n%5 == 0:
		v := Verdict{N: 2}
		v.Copies[0].Delay = sim.Time(p.n % 2)
		v.Copies[1].Delay = sim.Time(p.n % 3)
		return v
	}
	return Verdict{N: 1}
}
func (p *countPlane) SnapshotState() any     { return p.n }
func (p *countPlane) RestoreState(any) error { return nil }

// flushRound is one barrier of the oracle scenario: node-local events
// queued before the exchange, the outbox contents, and events queued
// after it.
type flushRound struct {
	pre, post []localEv
	msgs      []SMsg
}

type localEv struct {
	node int
	at   sim.Time
}

// flushScenario draws rounds barriers of random traffic among nodes
// nodes. Arrivals and local events fall on a handful of ticks so
// same-instant ties — delivery against delivery and delivery against
// local event — are the common case, and each outbox is shuffled so the
// exchange cannot lean on send order.
func flushScenario(nodes, rounds int, seed uint64) []flushRound {
	rng := sim.NewRand(seed)
	seq := make([]uint64, nodes)
	lat := Gigabit().Latency
	out := make([]flushRound, rounds)
	for r := range out {
		base := sim.Time(r) * 10 * lat
		tick := func() sim.Time { return base + lat + sim.Time(rng.Intn(4)) }
		for i := 0; i < 6; i++ {
			out[r].pre = append(out[r].pre, localEv{rng.Intn(nodes), tick()})
			out[r].post = append(out[r].post, localEv{rng.Intn(nodes), tick()})
		}
		for i := 0; i < 40; i++ {
			src, dst := rng.Intn(nodes), rng.Intn(nodes)
			seq[src]++
			out[r].msgs = append(out[r].msgs, SMsg{
				Src: src, Dst: dst, Bytes: 64, Sent: base, Arrive: tick(), Seq: seq[src],
			})
		}
		m := out[r].msgs
		for i := len(m) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			m[i], m[j] = m[j], m[i]
		}
	}
	return out
}

// playFlush replays the scenario on a fresh cluster with the given
// exchange and returns each shard's firing log.
func playFlush(t *testing.T, rounds []flushRound, nodes, shards int, adaptive, faulted bool, exchange func(*ShardedCluster)) [][]string {
	t.Helper()
	c, err := NewShardedCluster(ShardedConfig{Nodes: nodes, Shards: shards, Link: Gigabit(), Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	if faulted {
		c.SetFaultPlane(&countPlane{})
	}
	logs := make([][]string, shards)
	c.SetDeliver(func(m SMsg, now sim.Time) {
		s := c.ShardOf(m.Dst)
		logs[s] = append(logs[s], fmt.Sprintf("deliver %d/%d->%d@%d", m.Src, m.Seq, m.Dst, now))
	})
	local := 0
	queue := func(evs []localEv) {
		for _, e := range evs {
			s, id := c.ShardOf(e.node), local
			local++
			c.At(e.node, e.at, func(now sim.Time) {
				logs[s] = append(logs[s], fmt.Sprintf("local %d@%d", id, now))
			})
		}
	}
	for _, r := range rounds {
		queue(r.pre)
		for _, m := range r.msgs {
			s := c.ShardOf(m.Src)
			c.outbox[s] = append(c.outbox[s], m)
		}
		exchange(c)
		queue(r.post)
	}
	for _, s := range c.shards {
		s.RunWindow(sim.Never - 1)
	}
	return logs
}

// TestBandedFlushMatchesSortReference: on random outboxes at shards
// {1,4,8}, the banded flush fires every delivery and every local event
// in exactly the order of the old sort-then-schedule exchange — in the
// plain, adaptive and fault-plane paths.
func TestBandedFlushMatchesSortReference(t *testing.T) {
	const nodes = 24
	modes := []struct {
		name              string
		adaptive, faulted bool
	}{{"plain", false, false}, {"adaptive", true, false}, {"faulted", false, true}}
	for _, mode := range modes {
		for _, shards := range []int{1, 4, 8} {
			for seed := uint64(1); seed <= 4; seed++ {
				rounds := flushScenario(nodes, 5, seed)
				got := playFlush(t, rounds, nodes, shards, mode.adaptive, mode.faulted, (*ShardedCluster).flush)
				want := playFlush(t, rounds, nodes, shards, mode.adaptive, mode.faulted, refFlush)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s shards=%d seed=%d: banded flush fires in a different order:\n got %v\nwant %v",
						mode.name, shards, seed, got, want)
				}
			}
		}
	}
}

// flushBarrier returns one barrier of a 1000-node, 4-shard world: 128
// messages (about the per-barrier traffic of the 1000-node scale world)
// exchanged by flush and then landed on their shards.
func flushBarrier() func() {
	const nodes, shards = 1000, 4
	c, err := NewShardedCluster(ShardedConfig{Nodes: nodes, Shards: shards, Link: Gigabit()})
	if err != nil {
		panic(err)
	}
	c.SetDeliver(func(SMsg, sim.Time) {})
	var msgs []SMsg
	for _, r := range flushScenario(nodes, 4, 1) {
		msgs = append(msgs, r.msgs...)
	}
	msgs = msgs[:128]
	return func() {
		for _, m := range msgs {
			s := c.nodeShard[m.Src]
			c.outbox[s] = append(c.outbox[s], m)
		}
		c.flush()
		for _, s := range c.shards {
			s.RunWindow(sim.Never - 1)
		}
	}
}

// TestShardedFlushZeroAllocs: once the delivery pools and queue free
// lists are warm, a barrier exchange and its landings allocate nothing.
func TestShardedFlushZeroAllocs(t *testing.T) {
	barrier := flushBarrier()
	barrier()
	if allocs := testing.AllocsPerRun(100, barrier); allocs != 0 {
		t.Fatalf("barrier of 128 messages: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkShardedFlush is one barrier of 128 messages: flush plus the
// landings it schedules.
func BenchmarkShardedFlush(b *testing.B) {
	barrier := flushBarrier()
	barrier()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		barrier()
	}
}
