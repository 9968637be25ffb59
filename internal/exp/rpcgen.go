package exp

// The open-loop RPC generator both scale experiments run: every node
// hosts Tenants independent Poisson-ish arrival streams (integer-
// jittered uniform inter-arrival — deliberately no floating point in
// the event path, so the stream is exact on every host); each arrival
// picks a uniform remote peer and issues one request, each delivered
// request is served with a response, and each delivered response
// closes a client-observed latency sample. What a node does to issue,
// serve and complete an RPC is the node model's business (rpcNode): a
// fixed Table-1-cost model for `scale`, a full hosted machine per node
// for `scalemachine`.
//
// Everything the generator records is indexed by node and touched only
// by that node's events — the node-local rule the sharded engine's
// determinism rests on — and every fold runs in node order, so the
// observation is byte-identical at every shard and worker count.

import (
	"fmt"

	"uldma/internal/net"
	"uldma/internal/par"
	"uldma/internal/sim"
	"uldma/internal/stats"
)

const (
	// scaleMaxWindows bounds a runaway synchronizer.
	scaleMaxWindows = 1 << 40
	// Message kinds on the sharded fabric.
	scaleKindReq  uint8 = 1
	scaleKindResp uint8 = 2
)

// ScalePoint is one scale run's complete observation.
type ScalePoint struct {
	Nodes   int
	Shards  int
	Arrival int // per-node RPC arrival rate, RPCs/s
	Tenants int
	Bytes   uint64   // request payload size
	Dur     sim.Time // arrival-window length

	Issued    uint64 // RPCs issued inside the arrival window
	Completed uint64 // RPCs whose completion write landed

	Mean sim.Time // client-observed RPC latency (arrival -> completion)
	P50  sim.Time
	P99  sim.Time

	// GoodputMBps is completed request payload per simulated second.
	GoodputMBps float64
	// GoodputRPCs is completed RPCs per simulated second.
	GoodputRPCs float64

	Deliveries uint64   // link deliveries (requests + responses)
	Events     uint64   // events fired across all shards
	Windows    uint64   // synchronizer windows
	Finish     sim.Time // last event's timestamp

	// Fingerprint digests the world's layout-invariant final state
	// (net.ShardedCluster.Fingerprint); the parity tests pin it across
	// shard and worker counts.
	Fingerprint uint64
}

// rpcConfig is the resolved scale knobs.
type rpcConfig struct {
	nodes, shards, arrival, tenants int
	bytes                           uint64
	dur                             sim.Time
	seed                            uint64
	// interval is the per-tenant mean inter-arrival: Tenants streams
	// per node add up to the per-node rate. Integer picoseconds only.
	interval sim.Time
}

// scaleParams resolves the scale knobs with their conventional
// defaults (the cmd/clustersim flag defaults mirror these).
func scaleParams(p Params) (rpcConfig, error) {
	cfg := rpcConfig{
		nodes: p.Nodes, shards: p.Shards, arrival: p.Arrival, tenants: p.Tenants,
		bytes: p.ScaleBytes, dur: p.ScaleDur, seed: p.ScaleSeed,
	}
	if cfg.nodes == 0 {
		cfg.nodes = 32
	}
	if cfg.shards == 0 {
		cfg.shards = 4
	}
	if cfg.arrival == 0 {
		cfg.arrival = 20000
	}
	if cfg.tenants == 0 {
		cfg.tenants = 2
	}
	if cfg.bytes == 0 {
		cfg.bytes = 64
	}
	if cfg.dur == 0 {
		cfg.dur = 2 * sim.Millisecond
	}
	if cfg.seed == 0 {
		cfg.seed = 1
	}
	switch {
	case cfg.nodes < 2:
		return cfg, fmt.Errorf("exp: scale needs at least 2 nodes (RPCs need a remote peer), got %d", cfg.nodes)
	case cfg.shards < 1 || cfg.shards > cfg.nodes:
		return cfg, fmt.Errorf("exp: scale shard count %d out of range 1..%d (one node per shard minimum)", cfg.shards, cfg.nodes)
	case cfg.arrival < 0:
		return cfg, fmt.Errorf("exp: scale arrival rate must be positive, got %d", cfg.arrival)
	case cfg.tenants < 1:
		return cfg, fmt.Errorf("exp: scale needs at least 1 tenant, got %d", cfg.tenants)
	case cfg.dur < 0:
		return cfg, fmt.Errorf("exp: scale duration must be positive, got %v", cfg.dur)
	}
	cfg.interval = sim.Time(uint64(sim.Second) * uint64(cfg.tenants) / uint64(cfg.arrival))
	if cfg.interval <= 0 {
		return cfg, fmt.Errorf("exp: scale arrival rate %d/node too high for %d tenants (zero inter-arrival)", cfg.arrival, cfg.tenants)
	}
	return cfg, nil
}

// rpcNode is a node model: what a node does to issue, serve and
// complete one RPC. Each method runs inside the named node's event and
// touches only that node's state; an error fails the whole world.
type rpcNode interface {
	// request issues RPC seq from client n to server dst at its arrival
	// instant now. The model sends the request message.
	request(n, dst int, seq uint64, now sim.Time) error
	// serve turns a delivered request around; the model sends the
	// response message, carrying req.Arg back to req.Src.
	serve(req net.SMsg, now sim.Time) error
	// complete absorbs a delivered response at its client. The
	// generator has already closed the latency sample.
	complete(resp net.SMsg, now sim.Time) error
}

// rpcGen is the generator's state. err latches the first node-model
// failure (event handlers cannot return errors; run reports it).
type rpcGen struct {
	rpcConfig
	c    *net.ShardedCluster
	node rpcNode
	boot sim.Time // arrivals start after it
	end  sim.Time // arrival window close (boot + dur)

	issueAt [][]sim.Time // per client: arrival instant of RPC seq i
	lats    [][]sim.Time // per client: completed RPC latencies
	err     error
}

// newRPCGen builds the sharded cluster for cfg — per-pair wire latency
// from latency, or the uniform Gigabit link when it is nil — and
// installs the generator as its receive hook. The caller sets the node
// model before priming.
func newRPCGen(cfg rpcConfig, boot sim.Time, latency func(src, dst int) sim.Time) (*rpcGen, error) {
	c, err := net.NewShardedCluster(net.ShardedConfig{
		Nodes:     cfg.nodes,
		Shards:    cfg.shards,
		Link:      net.Gigabit(),
		Seed:      cfg.seed,
		QueueHint: 4 * cfg.nodes / cfg.shards,
		Latency:   latency,
	})
	if err != nil {
		return nil, err
	}
	g := &rpcGen{
		rpcConfig: cfg,
		c:         c,
		boot:      boot,
		end:       boot + cfg.dur,
		issueAt:   make([][]sim.Time, cfg.nodes),
		lats:      make([][]sim.Time, cfg.nodes),
	}
	c.SetDeliver(g.deliver)
	return g, nil
}

// prime schedules every tenant stream's jittered first arrival past
// boot. Draws happen in fixed (node, tenant) order on each node's own
// stream, so priming is layout-invariant by construction.
func (g *rpcGen) prime() {
	for n := 0; n < g.nodes; n++ {
		for t := 0; t < g.tenants; t++ {
			g.scheduleArrival(n, g.jitter(n, g.boot))
		}
	}
}

// run drives the primed world to completion.
func (g *rpcGen) run(workers int) error {
	if err := g.c.Run(par.Workers(workers), scaleMaxWindows); err != nil {
		return err
	}
	return g.err
}

// latch keeps the first node-model error. A nil err writes nothing:
// shards run concurrently and every event reads g.err.
func (g *rpcGen) latch(err error) {
	if err != nil && g.err == nil {
		g.err = err
	}
}

// jitter draws the next inter-arrival gap for a stream on node n:
// uniform in [interval/2, 3*interval/2), mean = interval, all-integer.
func (g *rpcGen) jitter(n int, now sim.Time) sim.Time {
	return now + g.interval/2 + sim.Time(g.c.Rand(n).Uint64()%uint64(g.interval))
}

func (g *rpcGen) scheduleArrival(n int, at sim.Time) {
	g.c.At(n, at, func(now sim.Time) { g.arrive(n, now) })
}

// arrive is one RPC arrival on node n: keep the stream alive, pick a
// uniform remote peer, record the issue, hand the RPC to the model.
func (g *rpcGen) arrive(n int, now sim.Time) {
	rng := g.c.Rand(n)
	if next := g.jitter(n, now); next < g.end {
		g.scheduleArrival(n, next)
	}
	if g.err != nil {
		return
	}
	dst := rng.Intn(g.nodes - 1)
	if dst >= n {
		dst++ // uniform over the other nodes, never self
	}
	seq := uint64(len(g.issueAt[n]))
	g.issueAt[n] = append(g.issueAt[n], now)
	g.latch(g.node.request(n, dst, seq, now))
}

// deliver is the fabric receive hook: requests go to the server's
// model, responses close the client's latency sample first.
func (g *rpcGen) deliver(m net.SMsg, now sim.Time) {
	if g.err != nil {
		return
	}
	switch m.Kind {
	case scaleKindReq:
		g.latch(g.node.serve(m, now))
	case scaleKindResp:
		d := m.Dst
		g.lats[d] = append(g.lats[d], now-g.issueAt[d][m.Arg])
		g.latch(g.node.complete(m, now))
	}
}

// rpcState is the generator's snapshot payload (net.ShardState).
type rpcState struct {
	issueAt [][]sim.Time
	lats    [][]sim.Time
	err     error
}

// SnapshotState implements net.ShardState: a cluster Snapshot/Restore
// must rewind issue times and latency samples with the world, or a
// restored world double-counts.
func (g *rpcGen) SnapshotState() any {
	st := &rpcState{
		issueAt: make([][]sim.Time, g.nodes),
		lats:    make([][]sim.Time, g.nodes),
		err:     g.err,
	}
	for n := 0; n < g.nodes; n++ {
		st.issueAt[n] = append([]sim.Time(nil), g.issueAt[n]...)
		st.lats[n] = append([]sim.Time(nil), g.lats[n]...)
	}
	return st
}

// RestoreState implements net.ShardState.
func (g *rpcGen) RestoreState(state any) error {
	st, ok := state.(*rpcState)
	if !ok {
		return fmt.Errorf("exp: rpc generator: foreign snapshot payload %T", state)
	}
	if len(st.issueAt) != g.nodes {
		return fmt.Errorf("exp: rpc generator: snapshot of %d nodes onto %d", len(st.issueAt), g.nodes)
	}
	for n := 0; n < g.nodes; n++ {
		g.issueAt[n] = append(g.issueAt[n][:0], st.issueAt[n]...)
		g.lats[n] = append(g.lats[n][:0], st.lats[n]...)
	}
	g.err = st.err
	return nil
}

// observe folds the finished world into a ScalePoint, goodput over
// Finish - boot. Per-node samples concatenate in node order, so the
// fold is layout-invariant.
func (g *rpcGen) observe() ScalePoint {
	var sample stats.Sample
	var issued, completed uint64
	for n := 0; n < g.nodes; n++ {
		issued += uint64(len(g.issueAt[n]))
		completed += uint64(len(g.lats[n]))
		for _, l := range g.lats[n] {
			sample.Add(l)
		}
	}
	t := g.c.Totals()
	pt := ScalePoint{
		Nodes:   g.nodes,
		Shards:  g.shards,
		Arrival: g.arrival,
		Tenants: g.tenants,
		Bytes:   g.bytes,
		Dur:     g.dur,

		Issued:    issued,
		Completed: completed,
		Mean:      sample.Mean(),
		P50:       sample.Percentile(50),
		P99:       sample.Percentile(99),

		Deliveries:  t.Delivered,
		Events:      t.Events,
		Windows:     t.Windows,
		Finish:      t.Finish,
		Fingerprint: g.c.Fingerprint(),
	}
	if t.Finish > g.boot {
		secs := float64(t.Finish-g.boot) / 1e12
		pt.GoodputMBps = float64(completed) * float64(g.bytes) / secs / 1e6
		pt.GoodputRPCs = float64(completed) / secs
	}
	return pt
}
