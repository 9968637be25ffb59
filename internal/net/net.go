// Package net is the cluster substrate: it connects several machine
// instances into a Network of Workstations (the paper's deployment
// context) with a point-to-point fabric modelled after the Telegraphos
// switch — fixed per-hop latency plus serialization at link bandwidth.
//
// Every node's DMA engine hands remote payloads (whole DMA transfers or
// single-word remote writes) to the Fabric, which schedules delivery
// into the destination node's physical memory on the cluster's shared
// event queue. All nodes share one simulated clock, so causality across
// nodes is exact: a receiver polling its memory sees a flag no earlier
// than initiation + transfer + link time.
package net

import (
	"fmt"
	"math/bits"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
)

// LinkConfig models one hop of the interconnect.
type LinkConfig struct {
	// Latency is the fixed per-message delay (switching + wire).
	Latency sim.Time
	// Bandwidth is the serialization rate in bytes/second.
	Bandwidth uint64
}

// serialization is how long bytes take to clock onto the link:
// bytes·1s/Bandwidth, floored. The product is taken at 128 bits, since
// at picosecond resolution a 64-bit one wraps from 2^64/10^12 B
// (about 18.4 MB) up; a time past Never saturates there.
func (l LinkConfig) serialization(bytes uint64) sim.Time {
	hi, lo := bits.Mul64(bytes, uint64(sim.Second))
	if hi >= l.Bandwidth {
		return sim.Never
	}
	q, _ := bits.Div64(hi, lo, l.Bandwidth)
	return sim.Time(min(q, uint64(sim.Never)))
}

// Gigabit returns a mid-90s "Gigabit LAN" link: ~1 µs switch latency,
// 1 Gbit/s serialization — the class of network whose rise motivates
// the paper.
func Gigabit() LinkConfig {
	return LinkConfig{Latency: sim.Microsecond, Bandwidth: 125_000_000}
}

// ATM155 returns the paper's "common today" comparison point: a 155
// Mbit/s ATM link.
func ATM155() LinkConfig {
	return LinkConfig{Latency: 10 * sim.Microsecond, Bandwidth: 19_375_000}
}

// FabricStats counts fabric traffic. The last four counters are only
// ever advanced by an attached fault plane (SetFaultPlane); on a
// fault-free fabric Delivered is the only one that moves.
//
// FabricStats is a read-only compatibility view over the fabric's obs
// counter cells (see internal/obs); the storage lives in counters and
// participates in the cluster-wide metrics registry.
type FabricStats struct {
	Messages  uint64
	Bytes     uint64
	Dropped   uint64 // deliveries refused (bad node or address)
	RemoteMax int    // highest node id addressed

	Delivered    uint64 // payloads that actually landed in a node's memory
	FaultDropped uint64 // payloads the fault plane swallowed
	Duplicated   uint64 // extra copies the fault plane injected
	Reordered    uint64 // copies released from the per-destination FIFO
}

// counters is the fabric's live metric storage, copied by value into
// cluster snapshots so it rewinds with the world.
type counters struct {
	messages     obs.Counter
	bytes        obs.Counter
	dropped      obs.Counter
	remoteMax    obs.Gauge // highest node id addressed (Max semantics)
	delivered    obs.Counter
	faultDropped obs.Counter
	duplicated   obs.Counter
	reordered    obs.Counter
}

// Arrival describes one delivered copy of a faulted message: an extra
// delay on top of the fault-free arrival time, and whether the copy is
// released from the per-destination FIFO order (so it may overtake
// earlier traffic into the same node).
type Arrival struct {
	Delay     sim.Time
	Unordered bool
}

// Verdict is a fault plane's ruling on one message: how many copies
// arrive (0 = dropped, 1 = normal, 2 = duplicated) and how each copy
// travels. The fixed-size array keeps judging allocation-free on the
// delivery hot path.
type Verdict struct {
	Copies [2]Arrival
	N      int
}

// FaultPlane interposes on the fabric's delivery path. Judge is called
// once per remote payload at send time with the source and destination
// node ids and the simulated send instant; it must be deterministic
// (any randomness seeded, never host state) because the fabric replays
// byte-identically from a seed. Snapshot/RestoreState capture whatever
// the plane needs (RNG position, per-link counters) so net.Cluster
// snapshots can rewind the plane along with the nodes.
//
// Remote atomics (RMWRemote) are deliberately NOT judged: they model
// Telegraphos' synchronous locked transactions, which either complete
// or fail visibly at the issuing CPU — they are the reliable control
// channel the recovery protocols in internal/msg and internal/coll
// stand on.
type FaultPlane interface {
	Judge(src, dst int, at sim.Time) Verdict
	SnapshotState() any
	RestoreState(state any) error
}

// Cluster is a set of machines on a shared clock, connected by a
// Fabric.
type Cluster struct {
	Clock  *sim.Clock
	Events *sim.EventQueue
	Nodes  []*machine.Machine
	Fabric *Fabric
	// Obs is the cluster-level metrics registry: the fabric's traffic
	// counters under "net.*". Per-node counters live in each node's own
	// registry (Nodes[i].Obs).
	Obs *obs.Registry
	// Tracer is the cluster-wide trace spine shared by every node and
	// the fabric; nil until EnableTrace.
	Tracer *obs.Trace
}

// NewCluster builds n nodes from cfg and wires their engines to a
// shared fabric. n must fit the machine's remote window.
func NewCluster(n int, cfg machine.Config, link LinkConfig) (*Cluster, error) {
	if n < 1 || n > machine.MaxNodes {
		return nil, fmt.Errorf("net: cluster size %d out of range 1..%d", n, machine.MaxNodes)
	}
	if link.Bandwidth == 0 {
		return nil, fmt.Errorf("net: zero link bandwidth")
	}
	clock := sim.NewClock()
	// One shared queue serves every node: size it for the whole cluster
	// (per-node completions plus in-flight fabric packets).
	events := sim.NewEventQueueSize(n * machine.EventQueueHint)
	c := &Cluster{Clock: clock, Events: events}
	c.Fabric = &Fabric{cluster: c, link: link}
	c.Obs = obs.NewRegistry()
	c.Fabric.RegisterMetrics(c.Obs)
	for i := 0; i < n; i++ {
		m, err := machine.NewWithClock(cfg, clock, events)
		if err != nil {
			return nil, fmt.Errorf("net: node %d: %w", i, err)
		}
		m.NodeID = i
		m.Engine.SetRemoteHandler(&nodePort{fabric: c.Fabric, src: i})
		c.Nodes = append(c.Nodes, m)
	}
	return c, nil
}

// MustNewCluster is NewCluster that panics on error.
func MustNewCluster(n int, cfg machine.Config, link LinkConfig) *Cluster {
	c, err := NewCluster(n, cfg, link)
	if err != nil {
		panic(err)
	}
	return c
}

// EnableTrace turns on the structured trace spine cluster-wide: ONE
// shared trace (max <= 0 means obs.DefaultTraceCap) attached to every
// node's bus/scheduler/kernel and to the fabric, so syscalls, bus
// transactions, DMA windows, link deliveries and fault verdicts from
// all nodes interleave on one timeline. Returns the trace for export.
func (c *Cluster) EnableTrace(max int, policy obs.Policy) *obs.Trace {
	tr := obs.NewTrace(max, policy)
	c.AttachTracer(tr)
	return tr
}

// AttachTracer attaches an existing trace to every node and the
// fabric, or detaches with nil.
func (c *Cluster) AttachTracer(tr *obs.Trace) {
	c.Tracer = tr
	for _, m := range c.Nodes {
		m.AttachTracer(tr)
	}
	c.Fabric.SetTracer(tr)
}

// Run interleaves every node's scheduler, one instruction slot per node
// per round, until all processes on all nodes finish or the slot budget
// runs out. Per-node policies keep each node's scheduling independent.
func (c *Cluster) Run(policies []proc.Policy, maxSlots uint64) error {
	if len(policies) != len(c.Nodes) {
		return fmt.Errorf("net: %d policies for %d nodes", len(policies), len(c.Nodes))
	}
	granted := uint64(0)
	for {
		progress := false
		for i, m := range c.Nodes {
			if granted >= maxSlots {
				return fmt.Errorf("net: cluster slot budget (%d) exhausted", maxSlots)
			}
			if m.Runner.StepPolicy(policies[i]) {
				progress = true
				granted++
			}
		}
		if !progress {
			// No node has a runnable process. If any process is merely
			// blocked, advance shared idle time to the earliest wakeup
			// or pending event; otherwise everything finished.
			earliest := sim.Never
			blocked := false
			for _, m := range c.Nodes {
				if t, ok := m.Runner.EarliestWakeup(); ok {
					blocked = true
					if t < earliest {
						earliest = t
					}
				}
			}
			if !blocked {
				return nil
			}
			if next := c.Events.NextAt(); next < earliest {
				earliest = next
			}
			if earliest == sim.Never {
				return proc.ErrDeadlock
			}
			c.Clock.AdvanceTo(earliest)
			c.Events.RunUntil(c.Clock.Now())
		}
	}
}

// RunRoundRobin runs every node under a quantum-q round-robin policy.
func (c *Cluster) RunRoundRobin(q int, maxSlots uint64) error {
	policies := make([]proc.Policy, len(c.Nodes))
	for i := range policies {
		policies[i] = proc.NewRoundRobin(q)
	}
	return c.Run(policies, maxSlots)
}

// Settle fires all outstanding events (in-flight transfers and
// deliveries) and advances the shared clock past the last one.
func (c *Cluster) Settle() sim.Time {
	t := c.Events.Drain(c.Clock.Now())
	c.Clock.AdvanceTo(t)
	return c.Clock.Now()
}

// Fabric is the interconnect: it implements dma.RemoteHandler for every
// node's engine. Delivery into one node is FIFO: a message cannot
// overtake an earlier message to the same node (the wire serializes).
type Fabric struct {
	cluster  *Cluster
	link     LinkConfig
	lastInto map[int]sim.Time // per-destination FIFO point
	ctr      counters
	plane    FaultPlane
	free     []*delivery // pooled in-flight payload records
	tr       *obs.Trace  // nil = tracing disabled
}

// Stats returns a snapshot of the counters.
func (f *Fabric) Stats() FabricStats {
	return FabricStats{
		Messages:     f.ctr.messages.Value(),
		Bytes:        f.ctr.bytes.Value(),
		Dropped:      f.ctr.dropped.Value(),
		RemoteMax:    int(f.ctr.remoteMax.Value()),
		Delivered:    f.ctr.delivered.Value(),
		FaultDropped: f.ctr.faultDropped.Value(),
		Duplicated:   f.ctr.duplicated.Value(),
		Reordered:    f.ctr.reordered.Value(),
	}
}

// RegisterMetrics registers the fabric's counters with the cluster-wide
// registry.
func (f *Fabric) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("net.messages", &f.ctr.messages)
	r.RegisterCounter("net.bytes", &f.ctr.bytes)
	r.RegisterCounter("net.dropped", &f.ctr.dropped)
	r.RegisterGauge("net.remote_max", &f.ctr.remoteMax)
	r.RegisterCounter("net.delivered", &f.ctr.delivered)
	r.RegisterCounter("net.fault_dropped", &f.ctr.faultDropped)
	r.RegisterCounter("net.duplicated", &f.ctr.duplicated)
	r.RegisterCounter("net.reordered", &f.ctr.reordered)
}

// SetTracer attaches (or detaches, with nil) the structured trace
// spine. Enabled, every remote payload emits a CatLink span from send
// to landing, and every fault-plane verdict that changes the delivery
// emits a CatFault instant.
func (f *Fabric) SetTracer(t *obs.Trace) { f.tr = t }

// SetFaultPlane attaches (or, with nil, detaches) a fault plane. With
// no plane — or a plane whose Judge always returns the identity verdict
// {N: 1, Copies[0]: {0, false}} — the fabric's behaviour is bit-for-bit
// identical to a fabric without the hook: same arrival times, same
// event-queue scheduling order. The fault path is pay-for-what-you-use.
func (f *Fabric) SetFaultPlane(p FaultPlane) { f.plane = p }

// FaultPlane returns the attached plane (nil when none) so cluster
// snapshots can capture and rewind its state.
func (f *Fabric) FaultPlane() FaultPlane { return f.plane }

// nodePort is the per-node face of the fabric: each node's DMA engine
// gets its own port so the fabric learns the SOURCE of every payload
// (dma.RemoteHandler only names the destination). Per-link fault plans
// and per-link scripts need it.
type nodePort struct {
	fabric *Fabric
	src    int
}

func (p *nodePort) Deliver(node int, addr phys.Addr, data []byte, at sim.Time) error {
	return p.fabric.deliver(p.src, node, addr, data, at)
}

func (p *nodePort) RMWRemote(node int, addr phys.Addr, op int, size phys.AccessSize, val uint64) (uint64, error) {
	return p.fabric.RMWRemote(node, addr, op, size, val)
}

// delivery is one in-flight payload. Records are pooled on the fabric
// and reused once the payload lands, so the steady-state delivery path
// does not allocate: the fire closure is built once per record and
// captures only the record itself.
type delivery struct {
	f    *Fabric
	node int
	addr phys.Addr
	buf  []byte
	fire func(sim.Time)
}

func (f *Fabric) getDelivery() *delivery {
	if n := len(f.free); n > 0 {
		d := f.free[n-1]
		f.free = f.free[:n-1]
		return d
	}
	d := &delivery{f: f}
	d.fire = func(sim.Time) { d.f.land(d) }
	return d
}

// land writes an arrived payload into the destination's memory and
// returns the record to the pool. Memory size was checked at send time;
// a failure here is a model bug.
func (f *Fabric) land(d *delivery) {
	dst := f.cluster.Nodes[d.node]
	if err := dst.Mem.WriteBytes(d.addr, d.buf); err != nil {
		panic(err)
	}
	f.ctr.delivered.Inc()
	// Receive interrupt: wake any process sleeping on this range.
	dst.Kernel.NotifyRemoteWrite(d.addr, len(d.buf))
	d.buf = d.buf[:0]
	f.free = append(f.free, d)
}

// enqueue schedules one copy for arrival at `arrive`. Ordered copies
// respect the per-destination FIFO floor (and raise it); unordered
// copies — a fault plane's reordered duplicates — skip the floor, so
// they may overtake earlier traffic into the same node.
func (f *Fabric) enqueue(node int, addr phys.Addr, data []byte, arrive sim.Time, ordered bool) {
	if ordered {
		if f.lastInto == nil {
			f.lastInto = make(map[int]sim.Time)
		}
		if prev := f.lastInto[node]; arrive < prev {
			arrive = prev // FIFO: no overtaking into the same node
		}
		f.lastInto[node] = arrive
	}
	d := f.getDelivery()
	d.node, d.addr = node, addr
	d.buf = append(d.buf[:0], data...)
	// Fire-and-forget: arrival events are never cancelled, so use the
	// queue's pooled no-handle path.
	f.cluster.Events.ScheduleFunc(arrive, d.fire)
}

// RMWRemote implements dma.RemoteAtomicHandler: an atomic operation on
// another node's memory. The issuing CPU stalls for the full round trip
// (request latency + operation + reply latency), accounted on the
// shared clock here.
func (f *Fabric) RMWRemote(node int, addr phys.Addr, op int, size phys.AccessSize, val uint64) (uint64, error) {
	if node < 0 || node >= len(f.cluster.Nodes) {
		f.ctr.dropped.Inc()
		return 0, fmt.Errorf("net: remote atomic to nonexistent node %d", node)
	}
	// Request travels, the remote engine applies the operation, the
	// reply travels back.
	f.cluster.Clock.Advance(2 * f.link.Latency)
	f.ctr.messages.Add(2)
	f.ctr.bytes.Add(16) // request + reply words
	old, err := dma.ApplyAtomic(f.cluster.Nodes[node].Mem, addr, op, size, val)
	if err != nil {
		f.ctr.dropped.Inc()
		return 0, err
	}
	return old, nil
}

// Deliver implements dma.RemoteHandler: the payload arrives in the
// destination node's memory after link latency plus serialization.
//
// Tie-break rule: when two messages compute the SAME arrival tick for
// the same node (e.g. two zero-length remote writes issued back to
// back, or a FIFO floor that lifts a later message onto an earlier
// one's arrival time), they land in the order their arrival events were
// scheduled — the shared event queue breaks equal-time ties by schedule
// sequence, i.e. fabric issue order. Combined with the per-destination
// FIFO floor this makes delivery order into any one node a pure
// function of issue order, pinned by TestSameTickDeliveryOrder.
//
// Deliver is the source-anonymous entry point (src = -1, used by tests
// that poke the fabric directly); engine traffic arrives through each
// node's nodePort, which stamps the true source for per-link faults.
func (f *Fabric) Deliver(node int, addr phys.Addr, data []byte, at sim.Time) error {
	return f.deliver(-1, node, addr, data, at)
}

func (f *Fabric) deliver(src, node int, addr phys.Addr, data []byte, at sim.Time) error {
	if node < 0 || node >= len(f.cluster.Nodes) {
		f.ctr.dropped.Inc()
		return fmt.Errorf("net: delivery to nonexistent node %d", node)
	}
	dst := f.cluster.Nodes[node]
	if uint64(addr)+uint64(len(data)) > uint64(dst.Mem.Size()) {
		f.ctr.dropped.Inc()
		return fmt.Errorf("net: delivery to node %d at %v overruns its memory", node, addr)
	}
	f.ctr.messages.Inc()
	f.ctr.bytes.Add(uint64(len(data)))
	f.ctr.remoteMax.Max(int64(node))
	arrive := at + f.link.Latency + f.link.serialization(uint64(len(data)))
	if f.plane == nil {
		if f.tr != nil {
			f.tr.Span(at, arrive-at, obs.CatLink, "deliver",
				int32(node), -1, uint64(addr), uint64(len(data)), uint64(int64(src)))
		}
		f.enqueue(node, addr, data, arrive, true)
		return nil
	}
	v := f.plane.Judge(src, node, at)
	if v.N <= 0 {
		f.ctr.faultDropped.Inc()
		if f.tr != nil {
			f.tr.Instant(at, obs.CatFault, "drop",
				int32(node), -1, uint64(addr), uint64(len(data)), uint64(int64(src)))
		}
		return nil
	}
	if v.N > len(v.Copies) {
		v.N = len(v.Copies)
	}
	if v.N > 1 {
		f.ctr.duplicated.Add(uint64(v.N - 1))
		if f.tr != nil {
			f.tr.Instant(at, obs.CatFault, "dup",
				int32(node), -1, uint64(addr), uint64(v.N), uint64(int64(src)))
		}
	}
	for i := 0; i < v.N; i++ {
		a := v.Copies[i]
		if a.Unordered {
			f.ctr.reordered.Inc()
			if f.tr != nil {
				f.tr.Instant(at, obs.CatFault, "reorder",
					int32(node), -1, uint64(addr), uint64(a.Delay), uint64(int64(src)))
			}
		}
		if f.tr != nil {
			f.tr.Span(at, arrive+a.Delay-at, obs.CatLink, "deliver",
				int32(node), -1, uint64(addr), uint64(len(data)), uint64(int64(src)))
		}
		f.enqueue(node, addr, data, arrive+a.Delay, !a.Unordered)
	}
	return nil
}
