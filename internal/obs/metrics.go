// Package obs is the simulator's unified observability plane: ONE
// metrics registry and ONE structured trace spine shared by every
// component (phys, bus, dma, proc, kernel, net, msg).
//
// Before obs, the model had five generations of ad-hoc telemetry —
// phys access statistics, bus cycle counters, the DMA engine's
// transfer tallies, per-process CPU accounting, net.Fabric.Stats()
// and a standalone bus recorder — each with its own
// struct shape and its own snapshot story, and no way to correlate
// events across layers. obs replaces the *storage* behind those
// structs with typed Counter/Gauge cells registered in a Registry
// (the exported Stats structs survive as thin compatibility
// accessors, so no experiment output changes), and adds a
// ring-buffered, sim-clocked event stream (Trace) with spans that
// exports Chrome/Perfetto trace_event JSON.
//
// Two invariants the rest of the repo builds on:
//
//   - Rewind-with-the-world: every registered metric and the trace
//     spine's state are captured by machine.Snapshot /
//     net.Cluster.Snapshot and rewound by Restore/NewFromSnapshot,
//     exactly like the architectural state they describe. A clone
//     hydrated from a snapshot reports the counters AS OF the
//     snapshot — never the origin's later activity
//     (TestCounterRewindRule).
//
//   - Pay-for-what-you-use: a nil *Trace is the disabled state; every
//     emission site is a nil-check plus nothing. The Table-1
//     initiation hot path shows a zero allocation delta and a zero
//     simulated-cycle delta with obs present — disabled or enabled —
//     versus the pre-obs baseline (BenchmarkObsDisabled,
//     TestObsZeroMarginalAllocDelta, TestObsTracingNoCycleDelta in
//     internal/core).
package obs

import (
	"fmt"
	"strings"
)

// Counter is a monotonically increasing event count. Increment is a
// plain machine add — no atomics (the simulator is single-threaded per
// world by design), no indirection, no allocation (asserted by
// BenchmarkCounterInc).
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value reads the count.
func (c *Counter) Value() uint64 { return uint64(*c) }

// Gauge is a signed accumulator for cycle/time tallies and
// level-style values (e.g. the highest node id addressed).
type Gauge int64

// Add accumulates d.
func (g *Gauge) Add(d int64) { *g += Gauge(d) }

// Set overwrites the value.
func (g *Gauge) Set(v int64) { *g = Gauge(v) }

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v int64) {
	if Gauge(v) > *g {
		*g = Gauge(v)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return int64(*g) }

// MetricValue is one (name, value) pair of a registry snapshot.
// Signed gauges are widened into uint64 (they are non-negative in
// every component that registers one; the registry does not reinterpret).
type MetricValue struct {
	Name  string
	Value uint64
}

// Registry is the machine-wide metric directory. Components register
// their counters at construction under dotted names ("bus.loads");
// Snapshot renders every metric in registration order — one
// deterministic, ordered view of the whole world's counters, replacing
// the six bespoke per-component stats structs as the instrument panel.
//
// Reads go through closures captured at registration, so the registry
// always reflects live component state (including state rewound by
// machine.Restore) without the components writing through it.
// Registration happens once per world at construction; nothing on any
// hot path touches the registry.
type Registry struct {
	names []string
	reads []func() uint64
	index map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Register adds a metric read through fn. Names must be unique;
// duplicates are a wiring bug and panic.
func (r *Registry) Register(name string, fn func() uint64) {
	if fn == nil {
		panic("obs: nil read func for metric " + name)
	}
	if _, dup := r.index[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.index[name] = len(r.names)
	r.names = append(r.names, name)
	r.reads = append(r.reads, fn)
}

// RegisterCounter registers a Counter cell.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if c == nil {
		panic("obs: nil counter for metric " + name)
	}
	r.Register(name, c.Value)
}

// RegisterGauge registers a Gauge cell (widened to uint64 in
// snapshots).
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	if g == nil {
		panic("obs: nil gauge for metric " + name)
	}
	r.Register(name, func() uint64 { return uint64(g.Value()) })
}

// Len reports how many metrics are registered.
func (r *Registry) Len() int { return len(r.names) }

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Get reads one metric by name.
func (r *Registry) Get(name string) (uint64, bool) {
	i, ok := r.index[name]
	if !ok {
		return 0, false
	}
	return r.reads[i](), true
}

// Snapshot reads every metric, in registration order. The order is a
// pure function of construction order, so two identically built worlds
// render byte-identical snapshots.
func (r *Registry) Snapshot() []MetricValue {
	out := make([]MetricValue, len(r.names))
	for i, name := range r.names {
		out[i] = MetricValue{Name: name, Value: r.reads[i]()}
	}
	return out
}

// Render formats the snapshot as an aligned name/value listing.
func (r *Registry) Render() string {
	var b strings.Builder
	width := 0
	for _, n := range r.names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, mv := range r.Snapshot() {
		fmt.Fprintf(&b, "%-*s %d\n", width, mv.Name, mv.Value)
	}
	return b.String()
}
