package net

// The sharded cluster engine: a conservative parallel discrete-event
// simulation of a NOW far larger than the machine-accurate Cluster can
// carry. Nodes are dealt to shards, each shard owns a sim.Shard (its
// own clock + event queue), and shards advance concurrently inside
// safe time windows granted by a conservative synchronizer whose
// lookahead is the minimum cross-shard link latency: a message sent at
// time t cannot arrive before t + lookahead, so once the globally
// earliest pending event is known, everything up to that instant plus
// the lookahead can run with no coordination at all.
//
// The load-bearing property is BYTE-DETERMINISM ACROSS LAYOUTS: the
// same (nodes, seed, workload) produces an identical run — identical
// fingerprint, totals and merged trace — at ANY shard count and ANY
// worker count. Four disciplines buy that invariance, and each is
// relied on by TestShardEquivalence/TestScaleShardParity:
//
//  1. Per-NODE random streams, split from the world seed by node ID
//     (sim.SplitSeed), never per-shard — re-partitioning must not
//     re-deal anyone's dice.
//  2. ALL inter-node messages — even between two nodes of the same
//     shard — are buffered into per-shard outboxes and exchanged only
//     at window barriers, where each is scheduled under the canonical
//     key (Arrive, Src, per-source Seq): a barrier's deliveries to one
//     shard share a queue seq band and rank by (Src, Seq) within it.
//     Delivery interleaving is therefore a pure function of message
//     content.
//  3. The window horizon is computed from the GLOBAL earliest pending
//     event (min over every shard queue), so the window sequence — and
//     with it flush chronology — does not depend on the partition.
//  4. Model events must be node-local: an event on node n may touch
//     only n's state and send messages. Cross-node interaction happens
//     exclusively through Send, which is what makes same-instant
//     events of different nodes commute.
//
// The engine itself is event-level: nodes are modelled by callbacks,
// which is why it is not bound by machine.MaxNodes and can carry
// thousands of nodes. Those callbacks may be flat cost constants (the
// `scale` experiment) — or they may drive full machine.Machine worlds
// hosted on the shards (HostedMachines in shardmachine.go, the
// `scalemachine` experiment), in which case every delivery pays real
// TLB walks, write-buffer drains and DMA-engine FSM transitions. A
// hosted handler advances the shared shard clock while charging CPU
// time, so each machine keeps its own monotonic time floor and the
// shard clock is reset per event (sim.Shard.RunWindow).

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"uldma/internal/obs"
	"uldma/internal/sim"
)

// ShardedConfig sizes a sharded cluster.
type ShardedConfig struct {
	// Nodes is the cluster size. Not bounded by machine.MaxNodes: the
	// sharded engine models nodes at event level.
	Nodes int
	// Shards is the partition width. Nodes are dealt contiguously:
	// shard i owns [i*Nodes/Shards, (i+1)*Nodes/Shards).
	Shards int
	// Link is the interconnect; Link.Latency is the default lookahead.
	Link LinkConfig
	// Seed is the world seed; per-node streams are split from it.
	Seed uint64
	// QueueHint pre-sizes each shard's event queue (<= 0: a default).
	QueueHint int
	// Lookahead overrides the synchronizer lookahead. Zero selects the
	// minimum link latency (Link.Latency, or the matrix minimum when
	// Latency is set); larger values are rejected because a window wider
	// than the true minimum message delay would let a cross-shard
	// message land inside an already-running window.
	Lookahead sim.Time
	// Latency, when non-nil, gives each ordered node pair its own
	// one-way wire latency (a pure function of (src, dst): topology,
	// never state). Link.Latency is ignored for the wire when set;
	// Link.Bandwidth still serializes every egress port. Construction
	// scans the full pair matrix once to find the global minimum (the
	// synchronizer lookahead — the window formula deliberately stays
	// global so the window sequence, which is part of the fingerprint,
	// remains layout-invariant) and a per-shard-pair minimum matrix
	// used as a causality floor on every flushed message.
	Latency func(src, dst int) sim.Time
	// Adaptive opts into per-shard window horizons: instead of one
	// global bound (earliest pending event + global minimum latency),
	// each shard advances to the earliest instant any OTHER shard's
	// pending work could still influence it, computed from the metric
	// closure of the per-shard-pair latency floors. With a latency
	// matrix whose pairs are far apart, distant shards get much wider
	// windows (fewer barriers); with uniform latency it degenerates to
	// exactly the global bound. The window SEQUENCE becomes layout-
	// dependent, so same-instant deliveries are ordered by message
	// content (sim.EventQueue.SchedulePri) instead of barrier order,
	// and Windows is excluded from the fingerprint. Incompatible with
	// a fault plane: the plane's draw sequence follows barrier
	// composition, which adaptive windows make layout-dependent.
	Adaptive bool
}

// SMsg is one inter-node message in the sharded engine. It carries no
// payload bytes — the event-level model needs sizes and tags, not
// data — so sending never copies buffers.
type SMsg struct {
	Src, Dst int
	Kind     uint8  // model-defined message class
	Bytes    uint64 // modelled payload size (serialization + accounting)
	Arg      uint64 // model-defined tag (e.g. RPC sequence number)
	Sent     sim.Time
	Arrive   sim.Time
	// Seq is the per-SOURCE send sequence number. (Arrive, Src, Seq)
	// is the canonical delivery key: strictly total (Seq is unique per
	// source) and computed from message content only, so delivery order
	// cannot depend on shard layout.
	Seq uint64
}

// SDeliver is the model's receive hook, invoked on the destination
// node's shard when a message lands. It must follow the node-local
// rule: touch only Dst's state, and interact with other nodes only
// via Send/At.
type SDeliver func(m SMsg, now sim.Time)

// ShardState lets a model participate in Snapshot/Restore: whatever it
// returns from SnapshotState is handed back to RestoreState. Same
// contract as the fault-plane hook on the machine-accurate cluster.
type ShardState interface {
	SnapshotState() any
	RestoreState(state any) error
}

// shardCtr is one shard's private traffic counters. Each shard's cells
// are touched only by that shard's goroutine during windows (delivered,
// bytes on the destination; sent on the source) and read only at
// barriers, so they need no atomics.
type shardCtr struct {
	sent      obs.Counter
	delivered obs.Counter
	bytes     obs.Counter
}

// sdelivery is one in-flight flushed message: a pooled record whose
// fire closure is built once. Records are taken from the destination
// shard's free list by the coordinator during flush and returned by
// the destination shard's goroutine when they land — safe without
// locks because coordinator and shard phases strictly alternate.
type sdelivery struct {
	c     *ShardedCluster
	shard int // destination shard (owner of the pool slot)
	m     SMsg
	fire  func(sim.Time)
}

// ShardedTotals is a cluster-wide roll-up of the per-shard counters,
// taken at a barrier (or after Run returns).
type ShardedTotals struct {
	Sent      uint64   // messages sent
	Delivered uint64   // messages landed
	Bytes     uint64   // payload bytes landed
	Events    uint64   // events fired across all shards
	Windows   uint64   // synchronizer windows executed
	Finish    sim.Time // latest shard clock
}

// ShardedCluster is the sharded engine instance.
type ShardedCluster struct {
	cfg       ShardedConfig
	lookahead sim.Time

	shards    []*sim.Shard
	nodeShard []int32 // node -> owning shard
	first     []int   // shard -> first owned node (len Shards+1)

	// Per-node state. Entries are touched only by the owning shard.
	rng    []sim.Rand // split per-node streams
	egress []sim.Time // per-source NIC serialization point
	eseq   []uint64   // per-source send sequence

	// Per-shard state.
	outbox [][]SMsg       // messages sent during the shard's window
	free   [][]*sdelivery // pooled delivery records, per dst shard
	ctr    []shardCtr
	traces []*obs.Trace // nil until EnableTrace

	pending []SMsg   // flushJudged scratch: gathered + sorted outboxes
	band    []uint64 // per destination shard: this barrier's seq band

	deliver SDeliver
	state   ShardState // optional model snapshot hook

	// plane is the optional fault injector on cross-shard links. Every
	// flushed message is judged exactly once, in the canonical
	// (Arrive, Src, Seq) order, on the coordinator — the flushed set per
	// barrier and its sort are layout-invariant, so the injector's draw
	// sequence (and therefore any (plan, seed) replay) is byte-identical
	// at every shard and worker count.
	plane      FaultPlane
	faultDrops uint64 // messages the plane deleted
	faultDups  uint64 // extra copies the plane injected

	// pairMin[i][j] is the minimum wire latency from any node of shard i
	// to any node of shard j (nil when ShardedConfig.Latency is unset —
	// then every pair floors at Link.Latency). latMin/latMax bound the
	// whole matrix; latMin is the synchronizer lookahead default.
	pairMin        [][]sim.Time
	latMin, latMax sim.Time

	// cfloor (adaptive mode only) is the metric closure of the
	// shard-pair floors: cfloor[j][i] bounds from below the latency of
	// ANY causal chain from a pending event on shard j to an arrival on
	// shard i, over any number of intermediate hops. cfloor[i][i] is the
	// cheapest round trip (or the intra-shard pair floor), never zero.
	cfloor [][]sim.Time

	horizons    []sim.Time // per-shard inclusive window bounds (all equal unless Adaptive)
	lastHorizon sim.Time   // causality floor for flushed arrivals
	lastH       []sim.Time // adaptive: per-shard exclusive causality floors
	windows     uint64
}

// NewShardedCluster validates cfg and builds the world. The model must
// then install a receive hook with SetDeliver and prime initial events
// with At before calling Run.
func NewShardedCluster(cfg ShardedConfig) (*ShardedCluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("net: sharded cluster needs at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("net: sharded cluster needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Shards > cfg.Nodes {
		return nil, fmt.Errorf("net: %d shards for %d nodes — a shard must own at least one node", cfg.Shards, cfg.Nodes)
	}
	if cfg.Link.Bandwidth == 0 {
		return nil, fmt.Errorf("net: zero link bandwidth")
	}
	if cfg.Link.Latency <= 0 {
		return nil, fmt.Errorf("net: sharded cluster needs positive link latency (it is the synchronizer lookahead)")
	}
	hint := cfg.QueueHint
	if hint <= 0 {
		hint = 256
	}
	c := &ShardedCluster{
		cfg:       cfg,
		shards:    make([]*sim.Shard, cfg.Shards),
		nodeShard: make([]int32, cfg.Nodes),
		first:     make([]int, cfg.Shards+1),
		rng:       make([]sim.Rand, cfg.Nodes),
		egress:    make([]sim.Time, cfg.Nodes),
		eseq:      make([]uint64, cfg.Nodes),
		outbox:    make([][]SMsg, cfg.Shards),
		free:      make([][]*sdelivery, cfg.Shards),
		ctr:       make([]shardCtr, cfg.Shards),
		horizons:  make([]sim.Time, cfg.Shards),
		band:      make([]uint64, cfg.Shards),
	}
	for s := 0; s < cfg.Shards; s++ {
		c.shards[s] = sim.NewShard(s, hint)
		c.first[s] = s * cfg.Nodes / cfg.Shards
	}
	c.first[cfg.Shards] = cfg.Nodes
	for s := 0; s < cfg.Shards; s++ {
		for n := c.first[s]; n < c.first[s+1]; n++ {
			c.nodeShard[n] = int32(s)
		}
	}
	for n := 0; n < cfg.Nodes; n++ {
		c.rng[n].SetState(sim.SplitSeed(cfg.Seed, uint64(n)))
	}
	c.latMin, c.latMax = cfg.Link.Latency, cfg.Link.Latency
	if cfg.Latency != nil {
		// One full pair scan at construction: the global minimum becomes
		// the lookahead, the per-shard-pair minima become flush-time
		// causality floors. The scan is O(nodes²) of a pure function —
		// amortized over the whole run, and the only place the matrix is
		// ever materialized (flush keeps just the Shards×Shards minima).
		c.pairMin = make([][]sim.Time, cfg.Shards)
		for i := range c.pairMin {
			row := make([]sim.Time, cfg.Shards)
			for j := range row {
				row[j] = sim.Never
			}
			c.pairMin[i] = row
		}
		c.latMin, c.latMax = sim.Never, 0
		for s := 0; s < cfg.Nodes; s++ {
			row := c.pairMin[c.nodeShard[s]]
			for d := 0; d < cfg.Nodes; d++ {
				if d == s {
					continue
				}
				l := cfg.Latency(s, d)
				if l <= 0 {
					return nil, fmt.Errorf("net: latency matrix gives %v for pair (%d,%d); every wire latency must be positive", l, s, d)
				}
				if ds := c.nodeShard[d]; l < row[ds] {
					row[ds] = l
				}
				if l < c.latMin {
					c.latMin = l
				}
				if l > c.latMax {
					c.latMax = l
				}
			}
		}
		if c.latMin == sim.Never {
			// A single-node world has no pairs; fall back to the link.
			c.latMin, c.latMax = cfg.Link.Latency, cfg.Link.Latency
		}
	}
	la := cfg.Lookahead
	if la == 0 {
		la = c.latMin
	}
	if la < 0 || la > c.latMin {
		return nil, fmt.Errorf("net: lookahead %v exceeds minimum link latency %v", la, c.latMin)
	}
	c.lookahead = la
	if cfg.Adaptive {
		// Metric closure of the shard-pair floors (Floyd–Warshall over
		// Shards² entries, run once). The direct floor is pairMin when a
		// latency matrix is set (diagonal = intra-shard pair minimum,
		// Never for a single-node shard with no intra pairs) and the
		// uniform link latency otherwise.
		n := cfg.Shards
		c.cfloor = make([][]sim.Time, n)
		for i := range c.cfloor {
			row := make([]sim.Time, n)
			for j := range row {
				if c.pairMin != nil {
					row[j] = c.pairMin[i][j]
				} else {
					row[j] = cfg.Link.Latency
				}
			}
			c.cfloor[i] = row
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if c.cfloor[i][k] == sim.Never {
					continue
				}
				for j := 0; j < n; j++ {
					if c.cfloor[k][j] == sim.Never {
						continue
					}
					if via := c.cfloor[i][k] + c.cfloor[k][j]; via < c.cfloor[i][j] {
						c.cfloor[i][j] = via
					}
				}
			}
		}
		c.lastH = make([]sim.Time, n)
	}
	return c, nil
}

// Config returns the configuration the cluster was built with.
func (c *ShardedCluster) Config() ShardedConfig { return c.cfg }

// Lookahead returns the synchronizer lookahead in effect.
func (c *ShardedCluster) Lookahead() sim.Time { return c.lookahead }

// LatencyBounds returns the minimum and maximum one-way wire latency
// over all ordered node pairs (equal to Link.Latency twice when no
// latency matrix is configured).
func (c *ShardedCluster) LatencyBounds() (min, max sim.Time) { return c.latMin, c.latMax }

// ShardPairFloor returns the causality floor for messages from shard i
// to shard j: the minimum wire latency over the owned node pairs.
func (c *ShardedCluster) ShardPairFloor(i, j int) sim.Time {
	if c.pairMin == nil {
		return c.cfg.Link.Latency
	}
	return c.pairMin[i][j]
}

// SetFaultPlane attaches a fault injector to the cluster's links. Every
// message is judged once at outbox flush, in canonical order, on the
// coordinator — see the plane field for why that replays byte-
// identically at every layout. Install before Run; a nil plane (or one
// whose plan is empty — fault.Injector short-circuits to one clean
// copy before drawing) leaves the run bit-for-bit unchanged.
func (c *ShardedCluster) SetFaultPlane(p FaultPlane) { c.plane = p }

// FaultStats reports how many messages the fault plane deleted and how
// many extra copies it injected (both zero when no plane is attached).
func (c *ShardedCluster) FaultStats() (drops, dups uint64) { return c.faultDrops, c.faultDups }

// ShardOf returns the shard owning node n.
func (c *ShardedCluster) ShardOf(n int) int { return int(c.nodeShard[n]) }

// Rand returns node n's private random stream. Split per node from the
// world seed, so it is identical under every shard layout. Must only
// be used from node n's own events (or before Run).
func (c *ShardedCluster) Rand(n int) *sim.Rand { return &c.rng[n] }

// Now returns the clock of the shard owning node n — the only notion
// of "current time" a node-local event may consult.
func (c *ShardedCluster) Now(n int) sim.Time { return c.shards[c.nodeShard[n]].Clock.Now() }

// NodeEnv returns the clock and event queue of the shard owning node n
// — what machine.NewHosted / NewFromSnapshotHosted mount a shard-hosted
// machine on. Anything scheduled on the queue must follow the
// node-local rule: touch only node n's state.
func (c *ShardedCluster) NodeEnv(n int) (*sim.Clock, *sim.EventQueue) {
	s := c.shards[c.nodeShard[n]]
	return s.Clock, s.Events
}

// SetDeliver installs the model's receive hook.
func (c *ShardedCluster) SetDeliver(fn SDeliver) { c.deliver = fn }

// SetStateHook installs the model's snapshot/restore participant.
func (c *ShardedCluster) SetStateHook(h ShardState) { c.state = h }

// At schedules a node-local model event for node n at time at, on n's
// shard queue. Call only from n's own events (or from the coordinator
// before Run / between windows): the fn will run on n's shard and must
// follow the node-local rule.
func (c *ShardedCluster) At(n int, at sim.Time, fn func(now sim.Time)) {
	c.shards[c.nodeShard[n]].Events.ScheduleFunc(at, fn)
}

// Send transmits an event-level message from src to dst. The source
// NIC serializes: a message occupies src's egress port for its
// serialization time, so back-to-back sends queue behind each other
// (the per-SOURCE analogue of the machine fabric's wire model). The
// arrival lands no earlier than departure + link latency, which is
// what the synchronizer's lookahead guarantee rests on.
//
// Send must be called from src's own events (or before Run). The
// message is buffered in the executing shard's outbox and scheduled at
// the next barrier — even when dst shares src's shard, so that
// delivery interleaving is identical under every layout.
func (c *ShardedCluster) Send(src, dst int, kind uint8, bytes, arg uint64, now sim.Time) {
	dep := now
	if c.egress[src] > dep {
		dep = c.egress[src]
	}
	dep += c.cfg.Link.serialization(bytes)
	c.egress[src] = dep
	c.eseq[src]++
	lat := c.cfg.Link.Latency
	if c.cfg.Latency != nil {
		lat = c.cfg.Latency(src, dst)
	}
	sh := c.nodeShard[src]
	c.ctr[sh].sent.Inc()
	c.outbox[sh] = append(c.outbox[sh], SMsg{
		Src: src, Dst: dst, Kind: kind, Bytes: bytes, Arg: arg,
		Sent: now, Arrive: dep + lat, Seq: c.eseq[src],
	})
}

// getDelivery takes a pooled record for destination shard ds. Called
// only by the coordinator during flush.
func (c *ShardedCluster) getDelivery(ds int) *sdelivery {
	pool := c.free[ds]
	if n := len(pool); n > 0 {
		d := pool[n-1]
		c.free[ds] = pool[:n-1]
		return d
	}
	d := &sdelivery{c: c, shard: ds}
	d.fire = func(now sim.Time) { d.c.land(d, now) }
	return d
}

// land fires on the destination shard when a flushed message arrives:
// counters, optional trace span, return the record, then the model's
// receive hook.
func (c *ShardedCluster) land(d *sdelivery, now sim.Time) {
	m := d.m
	ctr := &c.ctr[d.shard]
	ctr.delivered.Inc()
	ctr.bytes.Add(m.Bytes)
	if tr := c.traces; tr != nil {
		if t := tr[d.shard]; t != nil {
			t.Span(m.Sent, m.Arrive-m.Sent, obs.CatLink, "deliver",
				int32(m.Dst), -1, uint64(int64(m.Src)), m.Bytes, m.Seq)
		}
	}
	c.free[d.shard] = append(c.free[d.shard], d)
	c.deliver(m, now)
}

// flush is the barrier exchange: schedule every shard's outbox on the
// message's destination shard. Runs on the coordinator with every shard
// parked.
//
// Delivery order needs no sort. All of a barrier's deliveries to one
// destination queue share a seq band (sim.EventQueue.ScheduleBand) taken
// before the first of them is scheduled, so as a group they rank after
// every event already queued and before every event scheduled later —
// exactly where a sort-then-ScheduleFunc pass would put them — and among
// themselves by the canonical (Src, Seq) key of deliverySub. Adaptive
// mode keys deliveries by content in pri instead (deliveryPri). Only a
// fault plane forces a sort: its judge draws must be taken in canonical
// order (flushJudged).
func (c *ShardedCluster) flush() {
	if c.plane != nil {
		c.flushJudged()
		return
	}
	c.openBands()
	for s, ob := range c.outbox {
		for i := range ob {
			m := &ob[i]
			c.check(m)
			c.post(m, m.Arrive, deliverySub(m.Src, m.Seq))
		}
		c.outbox[s] = ob[:0]
	}
}

// flushJudged is flush with a fault plane attached: gather the outboxes
// in shard-index order, sort by the canonical (Arrive, Src, Seq) key so
// the plane judges every message in an order no layout can perturb, and
// band each copy by its position in that order.
func (c *ShardedCluster) flushJudged() {
	c.pending = c.pending[:0]
	for s := range c.outbox {
		c.pending = append(c.pending, c.outbox[s]...)
		c.outbox[s] = c.outbox[s][:0]
	}
	slices.SortFunc(c.pending, func(a, b SMsg) int {
		if a.Arrive != b.Arrive {
			return cmp.Compare(a.Arrive, b.Arrive)
		}
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	c.openBands()
	for i := range c.pending {
		m := &c.pending[i]
		c.check(m)
		verdict := c.plane.Judge(m.Src, m.Dst, m.Sent)
		if verdict.N == 0 {
			c.faultDrops++
			continue
		}
		c.faultDups += uint64(verdict.N - 1)
		for k := 0; k < verdict.N; k++ {
			// A copy's delay can carry it past later messages' arrivals,
			// so the tie-break is the canonical position (then the copy
			// index), which is the order a sequential scheduling pass in
			// sorted order would produce.
			c.post(m, m.Arrive+verdict.Copies[k].Delay, uint64(i)<<1|uint64(k))
		}
	}
}

// openBands records, per destination queue, the seq band this barrier's
// deliveries share.
func (c *ShardedCluster) openBands() {
	for ds, s := range c.shards {
		c.band[ds] = s.Events.SnapshotSeq() + 1
	}
}

// check panics if a flushed message breaks the synchronizer's
// contracts.
func (c *ShardedCluster) check(m *SMsg) {
	ds := int(c.nodeShard[m.Dst])
	floor := c.lastHorizon
	if c.cfg.Adaptive {
		// Adaptive windows are exclusive of their bound, so an arrival
		// exactly AT the destination's floor has not been run past yet.
		floor = c.lastH[ds]
	}
	if m.Arrive < floor {
		// The lookahead contract was violated: a message would land
		// inside a window that already ran. Always a model bug (a Send
		// from another node's event, or a latency floor beaten).
		panic(fmt.Sprintf("net: sharded causality violation: arrival %v before horizon %v (src %d dst %d)",
			m.Arrive, floor, m.Src, m.Dst))
	}
	if c.pairMin != nil {
		if ss := c.nodeShard[m.Src]; m.Arrive-m.Sent < c.pairMin[ss][ds] {
			// A message beat the latency matrix's own floor for its shard
			// pair: the Latency function returned inconsistent values (it
			// must be pure) or a model bypassed Send.
			panic(fmt.Sprintf("net: sharded latency-floor violation: wire time %v under shard-pair floor %v (src %d dst %d)",
				m.Arrive-m.Sent, c.pairMin[ss][ds], m.Src, m.Dst))
		}
	}
}

// post schedules one copy of m, landing at arrive, on its destination
// shard. sub orders it within the barrier's band; adaptive mode ranks it
// by content instead.
func (c *ShardedCluster) post(m *SMsg, arrive sim.Time, sub uint64) {
	ds := int(c.nodeShard[m.Dst])
	d := c.getDelivery(ds)
	d.m = *m
	d.m.Arrive = arrive
	q := c.shards[ds].Events
	if c.cfg.Adaptive {
		// Different layouts flush the same messages at different
		// barriers, so same-instant delivery order must come from message
		// content, not from barrier order.
		q.SchedulePri(arrive, deliveryPri(m.Src, m.Seq), d.fire)
	} else {
		q.ScheduleBand(arrive, c.band[ds], sub, d.fire)
	}
}

// deliverySub packs a message's canonical identity into the band tie-
// break: source node, then per-source sequence.
func deliverySub(src int, seq uint64) uint64 {
	return uint64(src)<<40 | seq&(1<<40-1)
}

// deliveryPri is deliverySub with the high bit set, which puts
// deliveries after pri-0 local events at the same instant.
func deliveryPri(src int, seq uint64) uint64 {
	return 1<<63 | deliverySub(src, seq)
}

// Run drives the synchronizer until every shard is idle and every
// outbox is empty, using up to workers goroutines per window (workers
// <= 1 runs shards serially on the caller's goroutine — byte-identical
// by construction). maxWindows bounds runaway models.
func (c *ShardedCluster) Run(workers int, maxWindows uint64) error {
	if c.deliver == nil {
		return fmt.Errorf("net: sharded cluster has no deliver hook (SetDeliver)")
	}
	if c.cfg.Adaptive && c.plane != nil {
		return fmt.Errorf("net: adaptive windows are incompatible with a fault plane (the plane's draw sequence follows barrier composition, which adaptive windows make layout-dependent)")
	}
	if workers > len(c.shards) {
		workers = len(c.shards)
	}

	var (
		work chan int
		wg   sync.WaitGroup
	)
	if workers > 1 {
		// Persistent pool: one channel of shard indices, reused every
		// window. The horizons entries are written strictly before the
		// sends and read after the receives, so the channel carries the
		// happens-before edge; WaitGroup is the window barrier.
		work = make(chan int, len(c.shards))
		for w := 0; w < workers; w++ {
			go func() {
				for idx := range work {
					c.shards[idx].RunWindow(c.horizons[idx])
					wg.Done()
				}
			}()
		}
		defer close(work)
	}

	next := make([]sim.Time, len(c.shards))
	for {
		c.flush()
		min := sim.Never
		for i, s := range c.shards {
			next[i] = s.Events.NextAt()
			if next[i] < min {
				min = next[i]
			}
		}
		if min == sim.Never {
			return nil
		}
		if c.windows >= maxWindows {
			return fmt.Errorf("net: sharded window budget (%d) exhausted", maxWindows)
		}
		if c.cfg.Adaptive {
			c.adaptiveBounds(next)
		} else {
			horizon := min + c.lookahead
			for i := range c.horizons {
				c.horizons[i] = horizon
			}
		}
		if workers > 1 {
			for idx, s := range c.shards {
				if s.Events.NextAt() <= c.horizons[idx] {
					wg.Add(1)
					work <- idx
				}
			}
			wg.Wait()
		} else {
			for idx, s := range c.shards {
				s.RunWindow(c.horizons[idx])
			}
		}
		c.windows++
		if c.cfg.Adaptive {
			for i := range c.lastH {
				// Arrivals into shard i are provably >= horizons[i]+1 (the
				// exclusive bound); the floor only ever rises.
				if h := c.horizons[i] + 1; h > c.lastH[i] {
					c.lastH[i] = h
				}
			}
		} else {
			c.lastHorizon = c.horizons[0]
		}
	}
}

// adaptiveBounds computes each shard's window bound for this round:
// the earliest instant at which any shard's earliest pending event
// could still influence it, over any chain of messages (the metric
// closure cfloor), minus one — RunWindow is inclusive and an arrival
// exactly at the influence instant may still be in flight. The global
// minimum's owner always gets at least its own next event (every
// closure entry is positive), so every round makes progress.
func (c *ShardedCluster) adaptiveBounds(next []sim.Time) {
	for i := range c.horizons {
		h := sim.Never
		for j := range next {
			if next[j] == sim.Never || c.cfloor[j][i] == sim.Never {
				continue
			}
			if t := next[j] + c.cfloor[j][i]; t < h {
				h = t
			}
		}
		if h == sim.Never {
			// Nothing pending anywhere can ever reach this shard: it may
			// drain completely.
			c.horizons[i] = sim.Never
		} else {
			c.horizons[i] = h - 1
		}
	}
}

// EnableTrace attaches one trace spine per shard (capPerShard <= 0
// selects obs.DefaultTraceCap) and returns them. For a merged timeline
// that is byte-identical across shard layouts the caps must be large
// enough that no ring wraps: which events a full ring retains depends
// on how many landed on that shard, which IS layout-dependent.
func (c *ShardedCluster) EnableTrace(capPerShard int) []*obs.Trace {
	c.traces = make([]*obs.Trace, len(c.shards))
	for i := range c.traces {
		c.traces[i] = obs.NewTrace(capPerShard, obs.Ring)
	}
	return c.traces
}

// MergedEvents merges the per-shard trace spines into one canonical
// timeline (obs.MergeEvents). Empty when tracing is disabled.
func (c *ShardedCluster) MergedEvents() []obs.Event {
	if c.traces == nil {
		return nil
	}
	streams := make([][]obs.Event, len(c.traces))
	for i, t := range c.traces {
		streams[i] = t.Events()
	}
	return obs.MergeEvents(streams...)
}

// TraceEmitted sums the per-shard linear emission counters.
func (c *ShardedCluster) TraceEmitted() uint64 {
	var n uint64
	for _, t := range c.traces {
		if t != nil {
			n += t.Emitted()
		}
	}
	return n
}

// Totals rolls up the per-shard counters. Call at a barrier (between
// Run calls); every component of the result is layout-invariant.
func (c *ShardedCluster) Totals() ShardedTotals {
	var t ShardedTotals
	for i := range c.ctr {
		t.Sent += c.ctr[i].sent.Value()
		t.Delivered += c.ctr[i].delivered.Value()
		t.Bytes += c.ctr[i].bytes.Value()
	}
	for _, s := range c.shards {
		t.Events += s.Fired
		// Reached, not Clock.Now(): a hosted machine handler leaves the
		// shard clock wherever its last CPU charge ended, which need not
		// be the run's maximum. Reached is a per-event property of the
		// node that fired, so its max is layout-invariant.
		if s.Reached > t.Finish {
			t.Finish = s.Reached
		}
	}
	t.Windows = c.windows
	return t
}

// fpMix folds one word into a running fingerprint (SplitMix64-style
// finalizer over an accumulating state).
func fpMix(h, v uint64) uint64 {
	h += v + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Fingerprint digests the cluster's layout-INVARIANT state: per-node
// stream positions, egress points and send sequences (in node order),
// summed counters, total events fired, windows, finish time and trace
// emission count. Deliberately excluded: per-queue scheduling
// sequence numbers and per-shard clocks, which depend on the partition
// without affecting any observable result. Equal fingerprints across
// shard×worker layouts are the engine's determinism pin.
func (c *ShardedCluster) Fingerprint() uint64 {
	h := uint64(len(c.rng))
	for n := range c.rng {
		h = fpMix(h, c.rng[n].State())
		h = fpMix(h, uint64(c.egress[n]))
		h = fpMix(h, c.eseq[n])
	}
	t := c.Totals()
	h = fpMix(h, t.Sent)
	h = fpMix(h, t.Delivered)
	h = fpMix(h, t.Bytes)
	h = fpMix(h, t.Events)
	if !c.cfg.Adaptive {
		// Adaptive window bounds depend on the partition, so the window
		// COUNT is layout-dependent there — every other component stays
		// invariant and keeps the determinism pin meaningful.
		h = fpMix(h, t.Windows)
	}
	h = fpMix(h, uint64(t.Finish))
	h = fpMix(h, c.TraceEmitted())
	return h
}

// ShardedSnapshot is a quiescent capture of a sharded cluster, in the
// settle-then-capture discipline of ClusterSnapshot: every queue
// drained, every outbox flushed. Restoring onto a cluster built with
// the SAME config rewinds it to the captured instant, so a template
// world can be constructed once and re-primed per measurement cell.
type ShardedSnapshot struct {
	nodes, shards int

	rngState []uint64
	egress   []sim.Time
	eseq     []uint64

	clocks  []sim.Time
	seqs    []uint64
	fired   []uint64
	reached []sim.Time

	sent, delivered, bytes []uint64

	lastHorizon sim.Time
	lastH       []sim.Time // adaptive per-shard floors (nil otherwise)
	windows     uint64

	faultDrops, faultDups uint64
	plane                 any // FaultPlane state payload

	traces []*obs.TraceState // nil when tracing disabled
	model  any               // ShardState hook payload
}

// Snapshot captures the cluster. It refuses a non-quiescent world:
// pending events or unflushed outboxes mean in-flight closures that no
// snapshot can re-create.
func (c *ShardedCluster) Snapshot() (*ShardedSnapshot, error) {
	for _, s := range c.shards {
		if s.Events.Len() != 0 {
			return nil, fmt.Errorf("net: sharded snapshot with %d pending events on shard %d", s.Events.Len(), s.ID)
		}
	}
	for i, ob := range c.outbox {
		if len(ob) != 0 {
			return nil, fmt.Errorf("net: sharded snapshot with %d unflushed messages on shard %d", len(ob), i)
		}
	}
	sn := &ShardedSnapshot{
		nodes: c.cfg.Nodes, shards: c.cfg.Shards,
		rngState:    make([]uint64, len(c.rng)),
		egress:      append([]sim.Time(nil), c.egress...),
		eseq:        append([]uint64(nil), c.eseq...),
		clocks:      make([]sim.Time, len(c.shards)),
		seqs:        make([]uint64, len(c.shards)),
		fired:       make([]uint64, len(c.shards)),
		reached:     make([]sim.Time, len(c.shards)),
		sent:        make([]uint64, len(c.shards)),
		delivered:   make([]uint64, len(c.shards)),
		bytes:       make([]uint64, len(c.shards)),
		lastHorizon: c.lastHorizon,
		lastH:       append([]sim.Time(nil), c.lastH...),
		windows:     c.windows,
		faultDrops:  c.faultDrops,
		faultDups:   c.faultDups,
	}
	for n := range c.rng {
		sn.rngState[n] = c.rng[n].State()
	}
	for i, s := range c.shards {
		sn.clocks[i] = s.Clock.Now()
		sn.seqs[i] = s.Events.SnapshotSeq()
		sn.fired[i] = s.Fired
		sn.reached[i] = s.Reached
		sn.sent[i] = c.ctr[i].sent.Value()
		sn.delivered[i] = c.ctr[i].delivered.Value()
		sn.bytes[i] = c.ctr[i].bytes.Value()
	}
	if c.plane != nil {
		sn.plane = c.plane.SnapshotState()
	}
	if c.traces != nil {
		sn.traces = make([]*obs.TraceState, len(c.traces))
		for i, t := range c.traces {
			sn.traces[i] = t.State()
		}
	}
	if c.state != nil {
		sn.model = c.state.SnapshotState()
	}
	return sn, nil
}

// Restore rewinds the cluster to a snapshot taken from a cluster of
// the same shape (nodes and shards must match; the snapshot stores
// per-shard state positionally).
func (c *ShardedCluster) Restore(sn *ShardedSnapshot) error {
	if sn.nodes != c.cfg.Nodes || sn.shards != c.cfg.Shards {
		return fmt.Errorf("net: restore: snapshot of %d nodes/%d shards onto %d nodes/%d shards",
			sn.nodes, sn.shards, c.cfg.Nodes, c.cfg.Shards)
	}
	if sn.traces != nil && c.traces == nil {
		return fmt.Errorf("net: restore: snapshot has traces but tracing is disabled")
	}
	for n := range c.rng {
		c.rng[n].SetState(sn.rngState[n])
	}
	copy(c.egress, sn.egress)
	copy(c.eseq, sn.eseq)
	for i, s := range c.shards {
		s.Clock.Reset(sn.clocks[i])
		s.Events.Reset(sn.seqs[i])
		s.Fired = sn.fired[i]
		s.Reached = sn.reached[i]
		c.ctr[i].sent = obs.Counter(sn.sent[i])
		c.ctr[i].delivered = obs.Counter(sn.delivered[i])
		c.ctr[i].bytes = obs.Counter(sn.bytes[i])
		c.outbox[i] = c.outbox[i][:0]
	}
	if (sn.lastH != nil) != (c.lastH != nil) {
		return fmt.Errorf("net: restore: adaptive-mode snapshot mismatch")
	}
	c.lastHorizon = sn.lastHorizon
	copy(c.lastH, sn.lastH)
	c.windows = sn.windows
	c.faultDrops = sn.faultDrops
	c.faultDups = sn.faultDups
	if c.plane != nil && sn.plane != nil {
		if err := c.plane.RestoreState(sn.plane); err != nil {
			return fmt.Errorf("net: restore fault plane: %w", err)
		}
	}
	if sn.traces != nil {
		for i, ts := range sn.traces {
			if err := c.traces[i].RestoreState(ts); err != nil {
				return fmt.Errorf("net: restore shard %d trace: %w", i, err)
			}
		}
	}
	if c.state != nil && sn.model != nil {
		if err := c.state.RestoreState(sn.model); err != nil {
			return fmt.Errorf("net: restore model state: %w", err)
		}
	}
	return nil
}
