package net

import (
	"fmt"
	"reflect"
	"testing"

	"uldma/internal/obs"
	"uldma/internal/sim"
)

// gossip is a toy sharded workload for the determinism tests: every
// node periodically fires a message with a random hop budget at a
// random peer; receivers decrement the budget and forward. It touches
// every invariance-critical path — per-node RNG draws on both send and
// receive, egress serialization, same-instant cross-node traffic —
// while staying strictly node-local.
type gossip struct {
	c     *ShardedCluster
	nodes int
	got   []uint64 // per node: messages received (node-local)
}

func newGossip(nodes, shards int, seed uint64) (*gossip, *ShardedCluster) {
	c, err := NewShardedCluster(ShardedConfig{
		Nodes: nodes, Shards: shards, Link: Gigabit(), Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	g := &gossip{c: c, nodes: nodes, got: make([]uint64, nodes)}
	c.SetDeliver(g.deliver)
	c.SetStateHook(g)
	return g, c
}

// prime schedules every node's initial burst. Several nodes fire at
// the SAME instant on purpose: same-time events of different nodes are
// exactly where a layout-dependence bug would show.
func (g *gossip) prime() {
	for n := 0; n < g.nodes; n++ {
		n := n
		at := sim.Time(1+n%3) * sim.Microsecond
		g.c.At(n, at, func(now sim.Time) { g.burst(n, now) })
	}
}

func (g *gossip) burst(n int, now sim.Time) {
	rng := g.c.Rand(n)
	for i := 0; i < 3; i++ {
		dst := rng.Intn(g.nodes - 1)
		if dst >= n {
			dst++
		}
		hops := rng.Uint64() % 4
		g.c.Send(n, dst, 1, 16+rng.Uint64()%64, hops, now)
	}
}

func (g *gossip) deliver(m SMsg, now sim.Time) {
	g.got[m.Dst]++
	if m.Arg == 0 {
		return
	}
	rng := g.c.Rand(m.Dst)
	dst := rng.Intn(g.nodes - 1)
	if dst >= m.Dst {
		dst++
	}
	g.c.Send(m.Dst, dst, 1, m.Bytes, m.Arg-1, now)
}

func (g *gossip) SnapshotState() any {
	return append([]uint64(nil), g.got...)
}

func (g *gossip) RestoreState(state any) error {
	s, ok := state.([]uint64)
	if !ok || len(s) != len(g.got) {
		return fmt.Errorf("gossip: bad state")
	}
	copy(g.got, s)
	return nil
}

// run executes the gossip to quiescence and returns the world's
// observable outcome: fingerprint, totals, per-node receive counts and
// the merged trace.
func (g *gossip) run(t *testing.T, workers int) (uint64, ShardedTotals, []uint64, []obs.Event) {
	t.Helper()
	if err := g.c.Run(workers, 1<<20); err != nil {
		t.Fatalf("run: %v", err)
	}
	return g.c.Fingerprint(), g.c.Totals(), g.got, g.c.MergedEvents()
}

// TestShardEquivalence is the tentpole pin: the sharded run is
// byte-identical to the single-queue run (shards=1) for every shard
// and worker count — same fingerprint, same totals, same per-node
// receive counts, same merged trace events.
func TestShardEquivalence(t *testing.T) {
	const nodes, seed = 24, 99
	ref, refC := newGossip(nodes, 1, seed)
	refC.EnableTrace(1 << 14) // big enough that no ring wraps
	ref.prime()
	refFP, refTotals, refGot, refTrace := ref.run(t, 1)
	if refTotals.Delivered == 0 || refTotals.Windows == 0 {
		t.Fatalf("degenerate reference run: %+v", refTotals)
	}

	for _, shards := range []int{2, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			g, c := newGossip(nodes, shards, seed)
			c.EnableTrace(1 << 14)
			g.prime()
			fp, totals, got, trace := g.run(t, workers)
			if fp != refFP {
				t.Errorf("%s: fingerprint %016x, reference %016x", name, fp, refFP)
			}
			if totals != refTotals {
				t.Errorf("%s: totals %+v, reference %+v", name, totals, refTotals)
			}
			if !reflect.DeepEqual(got, refGot) {
				t.Errorf("%s: per-node receive counts diverge from reference", name)
			}
			if !reflect.DeepEqual(trace, refTrace) {
				t.Errorf("%s: merged trace (%d events) diverges from reference (%d events)",
					name, len(trace), len(refTrace))
			}
		}
	}
}

// TestShardSnapshotRestore pins cross-shard snapshot/restore fidelity:
// capture a quiescent mid-run world, run a second phase, rewind, run
// the second phase again — both passes must be byte-identical, and the
// restored world must not leak post-snapshot state.
func TestShardSnapshotRestore(t *testing.T) {
	const nodes, shards, seed = 16, 4, 7
	g, c := newGossip(nodes, shards, seed)
	c.EnableTrace(1 << 14)
	g.prime()
	if err := c.Run(4, 1<<20); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	fpAtSnap := c.Fingerprint()

	phase2 := func(workers int) uint64 {
		for n := 0; n < nodes; n += 2 {
			n := n
			c.At(n, c.Now(n)+sim.Microsecond, func(now sim.Time) { g.burst(n, now) })
		}
		if err := c.Run(workers, 1<<20); err != nil {
			t.Fatalf("phase 2: %v", err)
		}
		return c.Fingerprint()
	}
	first := phase2(1)
	if first == fpAtSnap {
		t.Fatal("phase 2 changed nothing — test is vacuous")
	}
	if err := c.Restore(sn); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if fp := c.Fingerprint(); fp != fpAtSnap {
		t.Fatalf("restored fingerprint %016x, snapshot had %016x", fp, fpAtSnap)
	}
	if second := phase2(4); second != first {
		t.Fatalf("replayed phase 2 fingerprint %016x, first pass %016x", second, first)
	}
}

// Snapshot must refuse a non-quiescent world.
func TestShardSnapshotRefusesInFlight(t *testing.T) {
	g, c := newGossip(8, 2, 1)
	g.prime()
	if _, err := c.Snapshot(); err == nil {
		t.Fatal("Snapshot() accepted a world with pending events")
	}
}

func TestShardedConfigValidation(t *testing.T) {
	base := ShardedConfig{Nodes: 8, Shards: 2, Link: Gigabit(), Seed: 1}
	if _, err := NewShardedCluster(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ShardedConfig)
	}{
		{"zero nodes", func(c *ShardedConfig) { c.Nodes = 0 }},
		{"zero shards", func(c *ShardedConfig) { c.Shards = 0 }},
		{"more shards than nodes", func(c *ShardedConfig) { c.Shards = 9 }},
		{"zero bandwidth", func(c *ShardedConfig) { c.Link.Bandwidth = 0 }},
		{"zero latency", func(c *ShardedConfig) { c.Link.Latency = 0 }},
		{"lookahead above latency", func(c *ShardedConfig) { c.Lookahead = c.Link.Latency + 1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := NewShardedCluster(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// The partition must cover every node exactly once, contiguously.
func TestShardPartition(t *testing.T) {
	c, err := NewShardedCluster(ShardedConfig{Nodes: 10, Shards: 3, Link: Gigabit(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for n := 0; n < 10; n++ {
		s := c.ShardOf(n)
		if s < prev || s > prev+1 || s >= 3 {
			t.Fatalf("node %d on shard %d after shard %d — not a contiguous partition", n, s, prev)
		}
		prev = s
	}
	if c.ShardOf(0) != 0 || c.ShardOf(9) != 2 {
		t.Fatalf("partition does not span the shard range")
	}
}

// Run without a deliver hook is a model wiring bug and must error.
func TestShardedRunNeedsDeliver(t *testing.T) {
	c, err := NewShardedCluster(ShardedConfig{Nodes: 4, Shards: 2, Link: Gigabit(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1, 100); err == nil {
		t.Fatal("Run without SetDeliver succeeded")
	}
}

// TestSendSerializationNoWrap: a 32 MiB message holds its sender's
// egress port for the full serialization time and arrives a link
// latency after that, not at a wrapped 64-bit product.
func TestSendSerializationNoWrap(t *testing.T) {
	c, err := NewShardedCluster(ShardedConfig{Nodes: 2, Shards: 1, Link: Gigabit(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var arrived []sim.Time
	c.SetDeliver(func(m SMsg, now sim.Time) { arrived = append(arrived, now) })
	c.At(0, 0, func(now sim.Time) { c.Send(0, 1, 1, 32<<20, 0, now) })
	if err := c.Run(1, 100); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{serialization32MiB + Gigabit().Latency}
	if !reflect.DeepEqual(arrived, want) {
		t.Fatalf("32 MiB message arrived at %v, want %v", arrived, want)
	}
}
