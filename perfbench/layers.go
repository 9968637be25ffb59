package main

import (
	"fmt"
	"time"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/iommu"
	"uldma/internal/machine"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// Per-layer host-time probes. Each drives one layer's public functions
// from a benchmark-owned loop, records a span per batch, and reports
// the median batch's cost per operation. They run in their own child
// process during the traced run; none of them depends on the workload.

const microBatches = 5

// layerProbe is one probe: it returns its metrics by name.
type layerProbe func(tr *tracer) (map[string]float64, error)

var layerProbes = []layerProbe{probeSimStep, probeNetDelivery, probeProcSlot, probeDMA, probeClone, probeTranslate}

// perOp builds a batch with prep (untimed), runs the returned body
// inside a span named name, and returns the median over batches of
// span duration / ops, in the given unit.
func perOp(tr *tracer, name string, ops int, unit time.Duration, prep func() (func() error, error)) (float64, error) {
	var per []float64
	for b := 0; b < microBatches; b++ {
		body, err := prep()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		tr.begin(name)
		err = body()
		d := tr.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(d)/float64(unit)/float64(ops))
	}
	return median(per), nil
}

// probeSimStep times EventQueue.Step firing an event that reschedules
// itself through ScheduleFunc, at now_rpc's per-shard pending depth:
// 250 nodes per shard, each with 2 tenant arrival streams.
func probeSimStep(tr *tracer) (map[string]float64, error) {
	const depth, steps = 500, 200_000
	gap := uint64(sim.Second) * 2 / 55000 // one tenant's mean inter-arrival
	rng := sim.NewRand(1)
	q := sim.NewEventQueueSize(depth)
	var fire func(now sim.Time)
	fire = func(now sim.Time) { q.ScheduleFunc(now+sim.Time(gap/2+rng.Uint64()%gap), fire) }
	for i := 0; i < depth; i++ {
		q.ScheduleFunc(sim.Time(rng.Uint64()%gap), fire)
	}
	ns, err := perOp(tr, "sim.EventQueue.Step", steps, time.Nanosecond, func() (func() error, error) {
		return func() error {
			for i := 0; i < steps; i++ {
				q.Step()
			}
			return nil
		}, nil
	})
	return map[string]float64{"sim.step_ns": ns}, err
}

// probeNetDelivery times ShardedCluster.Run on now_rpc's fabric (1000
// nodes, 4 shards, Gigabit links) under a benchmark-owned model: each
// node's two tenant streams send 64 B messages to uniform peers for
// 1 ms, and deliveries do nothing. The model's own time is summed with
// a clock-read pair per callback and recorded as one child span, so
// the Run span's self time is the engine's: windows, barrier flushes,
// queueing and delivery.
func probeNetDelivery(tr *tracer) (map[string]float64, error) {
	const nodes, shards, tenants = 1000, 4, 2
	const window = sim.Millisecond
	interval := sim.Time(uint64(sim.Second) * tenants / 55000)
	var per []float64
	for b := 0; b < microBatches; b++ {
		c, err := net.NewShardedCluster(net.ShardedConfig{Nodes: nodes, Shards: shards, Link: net.Gigabit(), Seed: uint64(b + 1), QueueHint: 4 * nodes / shards})
		if err != nil {
			return nil, err
		}
		var model time.Duration
		c.SetDeliver(func(net.SMsg, sim.Time) {
			t := time.Now()
			model += time.Since(t)
		})
		var arrive func(n int) func(now sim.Time)
		arrive = func(n int) func(now sim.Time) {
			return func(now sim.Time) {
				t := time.Now()
				rng := c.Rand(n)
				next := now + interval/2 + sim.Time(rng.Uint64()%uint64(interval))
				dst := rng.Intn(nodes - 1)
				if dst >= n {
					dst++
				}
				model += time.Since(t)
				if next < window {
					c.At(n, next, arrive(n))
				}
				c.Send(n, dst, 1, 64, 0, now)
			}
		}
		for n := 0; n < nodes; n++ {
			for t := 0; t < tenants; t++ {
				c.At(n, sim.Time(c.Rand(n).Uint64()%uint64(interval)), arrive(n))
			}
		}
		run := len(tr.spans)
		tr.begin("net.ShardedCluster.Run")
		err = c.Run(1, 1<<40)
		tr.child("net.model_callbacks", model)
		tr.end()
		if err != nil {
			return nil, err
		}
		per = append(per, float64(selfNs(tr.spans, run))/float64(c.Totals().Delivered))
	}
	return map[string]float64{"net.ns_per_delivery": median(per)}, nil
}

// probeProcSlot times guest instruction slots under the process
// scheduler: one process issuing cached 8-byte loads, each a
// Context.Load slot granted by machine.Run.
func probeProcSlot(tr *tracer) (map[string]float64, error) {
	const slots = 50_000
	const va = vm.VAddr(0x10000)
	ns, err := perOp(tr, "machine.Run/proc.Context.Load", slots, time.Nanosecond, func() (func() error, error) {
		m, err := machine.New(machine.Alpha3000TC(dma.ModePaired, 0))
		if err != nil {
			return nil, err
		}
		p := m.NewProcess("slots", func(c *proc.Context) error {
			for i := 0; i < slots; i++ {
				if _, err := c.Load(va, phys.Size64); err != nil {
					return err
				}
			}
			return nil
		})
		if _, err := m.SetupPages(p, va, 1, vm.Read|vm.Write); err != nil {
			return nil, err
		}
		return func() error { return runProcess(m, p) }, nil
	})
	return map[string]float64{"proc.slot_ns": ns}, err
}

var protocolMethods = map[string]userdma.Method{
	"kernel":    userdma.KernelLevel{},
	"extshadow": userdma.ExtShadow{},
	"keybased":  userdma.KeyBased{},
	"repeated":  userdma.RepeatedPassing{Len: 5, Barriers: true},
}

const dmaSrc, dmaDst = vm.VAddr(0x10000), vm.VAddr(0x20000)

// dmaWorld is a Table 1 machine for method: one process running body,
// attached to the method's engine, with a source and a destination
// page.
func dmaWorld(method userdma.Method, body func(h *userdma.Handle, c *proc.Context) error) (*machine.Machine, *proc.Process, error) {
	m, err := machine.New(userdma.ConfigFor(method))
	if err != nil {
		return nil, nil, err
	}
	var h *userdma.Handle
	p := m.NewProcess("dma", func(c *proc.Context) error { return body(h, c) })
	if h, err = method.Attach(m, p); err != nil {
		return nil, nil, err
	}
	return m, p, mapPages(m, p)
}

func mapPages(m *machine.Machine, p *proc.Process) error {
	for _, va := range []vm.VAddr{dmaSrc, dmaDst} {
		if _, err := m.SetupPages(p, va, 1, vm.Read|vm.Write); err != nil {
			return err
		}
	}
	return nil
}

// runProcess runs m's processes to completion and returns p's error.
func runProcess(m *machine.Machine, p *proc.Process) error {
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		return err
	}
	return p.Err()
}

// template is the hosted_rpc template recipe on a Table 1 machine: an
// idle process runs to completion first (so its exit cannot release
// the context Attach assigns), then the method attaches, the pages are
// mapped and the machine is snapshotted for hosted clones.
func template(method userdma.Method) (*machine.Snapshot, *proc.Process, *userdma.Handle, error) {
	m, err := machine.New(userdma.ConfigFor(method))
	if err != nil {
		return nil, nil, nil, err
	}
	p := m.NewProcess("dma", func(*proc.Context) error { return nil })
	if err := runProcess(m, p); err != nil {
		return nil, nil, nil, err
	}
	h, err := method.Attach(m, p)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := mapPages(m, p); err != nil {
		return nil, nil, nil, err
	}
	snap, err := m.Snapshot()
	return snap, p, h, err
}

// probeDMA times one zero-length initiation per protocol, the Table 1
// loop without its fast-forward: through the scheduler (Handle.DMA in a
// guest process) and directly on the CPU (Handle.DirectDMA on a hosted
// clone, as hosted_rpc's RPCs do). The gap is the scheduler's cost per
// initiation.
func probeDMA(tr *tracer) (map[string]float64, error) {
	const inits = 5_000
	out := map[string]float64{}
	for _, proto := range hostedProtocols {
		method := protocolMethods[proto]
		loop := func(h *userdma.Handle, c *proc.Context) error {
			for i := 0; i < inits; i++ {
				off := vm.VAddr((i % 64) * 16)
				st, err := h.DMA(c, dmaSrc+off, dmaDst+off, 0)
				if err != nil {
					return err
				}
				if st == dma.StatusFailure {
					return fmt.Errorf("initiation %d refused", i)
				}
			}
			return nil
		}
		ns, err := perOp(tr, "core.Handle.DMA/"+proto, inits, time.Nanosecond, func() (func() error, error) {
			m, p, err := dmaWorld(method, loop)
			if err != nil {
				return nil, err
			}
			return func() error { return runProcess(m, p) }, nil
		})
		if err != nil {
			return nil, err
		}
		out["core.dma_ns."+proto] = ns

		snap, p, h, err := template(method)
		if err != nil {
			return nil, err
		}
		ns, err = perOp(tr, "core.Handle.DirectDMA/"+proto, inits, time.Nanosecond, func() (func() error, error) {
			clock, events := sim.NewClock(), sim.NewEventQueue()
			clock.AdvanceTo(snap.Time())
			mm, err := machine.NewFromSnapshotHosted(snap, clock, events)
			if err != nil {
				return nil, err
			}
			cpu := &userdma.DirectCPU{M: mm, P: p}
			return func() error {
				for i := 0; i < inits; i++ {
					off := vm.VAddr((i % 64) * 16)
					st, err := h.DirectDMA(cpu, dmaSrc+off, dmaDst+off, 0)
					if err != nil {
						return err
					}
					if st == dma.StatusFailure {
						return fmt.Errorf("direct initiation %d refused", i)
					}
					// Serialize behind the transfer, as hosted_rpc does.
					if t := mm.Engine.LastTransfer(); t != nil && t.End > clock.Now() {
						clock.AdvanceTo(t.End)
					}
					events.RunUntil(clock.Now())
				}
				return nil
			}, nil
		})
		if err != nil {
			return nil, err
		}
		out["core.direct_dma_ns."+proto] = ns
	}
	return out, nil
}

// probeClone times machine.NewFromSnapshotHosted: hydrating one
// shard-hosted machine from an extended-shadow Table 1 template.
func probeClone(tr *tracer) (map[string]float64, error) {
	const clones = 500
	snap, _, _, err := template(userdma.ExtShadow{})
	if err != nil {
		return nil, err
	}
	fleet := make([]*machine.Machine, clones)
	us, err := perOp(tr, "machine.NewFromSnapshotHosted", clones, time.Microsecond, func() (func() error, error) {
		clock, events := sim.NewClock(), sim.NewEventQueue()
		return func() error {
			for i := range fleet {
				m, err := machine.NewFromSnapshotHosted(snap, clock, events)
				if err != nil {
					return err
				}
				fleet[i] = m
			}
			return nil
		}, nil
	})
	return map[string]float64{"machine.clone_us": us}, err
}

// probeTranslate times IOMMU.Translate on an IOTLB hit (one page) and
// on a miss (cycling 64 pages through the default 32-entry IOTLB,
// LRU's worst case).
func probeTranslate(tr *tracer) (map[string]float64, error) {
	const ops, pages = 200_000, 64
	const page = 8192
	io, err := iommu.New(iommu.Config{Contexts: 1, PageSize: page})
	if err != nil {
		return nil, err
	}
	for i := 0; i < pages; i++ {
		if err := io.Map(0, uint64(i)*page, phys.Addr(i)*page, vm.Read|vm.Write); err != nil {
			return nil, err
		}
	}
	translate := func(wantHit bool, va func(i int) uint64) func() (func() error, error) {
		return func() (func() error, error) {
			return func() error {
				for i := 0; i < ops; i++ {
					_, hit, err := io.Translate(0, va(i), vm.AccessLoad)
					if err != nil {
						return err
					}
					if hit != wantHit && i >= pages {
						return fmt.Errorf("translate %d: hit=%v, want %v", i, hit, wantHit)
					}
				}
				return nil
			}, nil
		}
	}
	hit, err := perOp(tr, "iommu.Translate/hit", ops, time.Nanosecond, translate(true, func(int) uint64 { return 0x100 }))
	if err != nil {
		return nil, err
	}
	miss, err := perOp(tr, "iommu.Translate/miss", ops, time.Nanosecond, translate(false, func(i int) uint64 { return uint64(i%pages) * page }))
	return map[string]float64{"iommu.translate_ns.hit": hit, "iommu.translate_ns.miss": miss}, err
}

// runProbes runs every layer probe and merges their metrics.
func runProbes(tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, probe := range layerProbes {
		ms, err := probe(tr)
		if err != nil {
			return nil, err
		}
		for k, v := range ms {
			out[k] = v
		}
	}
	return out, nil
}
