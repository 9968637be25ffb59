package exp

// The `scalemachine` experiment: the scale workload re-run with a FULL
// machine.Machine per cluster node instead of the flat Table-1-cost
// model. Every RPC pays the selected protocol's real initiation
// sequence — shadow stores through the TLB and write buffer, kernel
// traps, engine acceptance — on the node's own CPU, and every request
// and response moves through the node's actual DMA engine (payload
// snapshotted at acceptance, shipped at the engine's computed End) into
// the sharded fabric. The method axis of the two-node clustersim
// comparison becomes a cluster-scale axis: per-protocol goodput and
// latency percentiles at 128-1000 nodes.
//
// World construction amortizes through a pristine-snapshot template
// pool: ONE standalone machine per (protocol, cluster size) is built,
// attached, mapped (a remote req/resp window per peer) and snapshotted;
// every node is then hydrated with machine.NewFromSnapshotHosted onto
// its shard's clock and queue, sharing the template's memory
// copy-on-write and its page tables by pointer. A 1000-node world costs
// one template build plus 1000 cheap hydrations.
//
// Time discipline: machines on the same shard share the shard clock, so
// each machine floors the clock to its own high-water mark before
// executing and records where it left it (net.HostedMachines
// Floor/Leave), and serializes behind its engine's last transfer End
// (Bump). Clones carry template-era substrate timestamps, so all
// arrivals are primed after the template's snapshot time ("boot").
// Everything reported is layout-invariant: byte-identical output at
// every shard and worker count (TestScaleMachineShardParity), same as
// the flat scale experiment.

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
	"uldma/internal/vm"
)

func init() {
	Register(&Experiment{
		Name:  "scalemachine",
		Doc:   "machines at cluster scale: per-protocol RPC traffic through real per-node DMA engines",
		Cells: scaleMachineCells,
		Render: map[Format]RenderFunc{
			Text: scaleMachineText,
		},
	})
}

const (
	// scaleMNodeShift narrows each node's remote window to 16 KiB (two
	// 8 KiB pages: request landing + response landing), which stretches
	// the 32 MiB remote address space to 2048 nodes.
	scaleMNodeShift = 14
	// scaleMMaxNodes = remote window size >> scaleMNodeShift.
	scaleMMaxNodes = 2048
	// scaleMRespBytes is the completion write the server returns.
	scaleMRespBytes = 16
	// scaleMSrvCycles is the server-side request-validation spin (CPU
	// cycles) charged before the response initiation.
	scaleMSrvCycles = 300
	// scaleMRackSize groups nodes into racks for the latency matrix;
	// cross-rack wires are scaleMRackCross times the base link latency.
	scaleMRackSize  = 32
	scaleMRackCross = 3
	// scaleMPage is the Alpha page size the address map below is built
	// on; the template build asserts the preset agrees.
	scaleMPage = 8192
)

// Template address map (one process per node, cloned from the
// template, so every node sees the same layout).
const (
	// scaleMReqVA/scaleMRespVA are the node's OWN payload pages: the
	// client writes its request tag into reqVA's frame, the server its
	// response tag into respVA's frame, and DMAs read from them.
	scaleMReqVA  = vm.VAddr(0x0010_0000)
	scaleMRespVA = scaleMReqVA + scaleMPage
	// scaleMLandReqVA/scaleMLandRespVA are read-only views of the two
	// landing pages (physical 0 and scaleMPage — below the kernel's
	// frame allocator, so otherwise unused). Incoming payloads land
	// there; the CPU validates them with real loads.
	scaleMLandReqVA  = vm.VAddr(0x0020_0000)
	scaleMLandRespVA = scaleMLandReqVA + scaleMPage
	// scaleMPeerBase starts the per-peer remote windows: peer d's
	// request page maps at scaleMPeerVA(d), its response page one page
	// further, 16 KiB stride.
	scaleMPeerBase = vm.VAddr(0x0400_0000)

	// Landing offsets inside a node's remote window: the fabric address
	// is also the destination physical address, mirroring net.Fabric.
	scaleMReqOff  = phys.Addr(0)
	scaleMRespOff = phys.Addr(scaleMPage)
)

// scaleMPeerVA returns the VA of peer d's remote request page; +8192 is
// its response page.
func scaleMPeerVA(d int) vm.VAddr {
	return scaleMPeerBase + vm.VAddr(d)<<scaleMNodeShift
}

// ScaleMachinePoint is one scalemachine run's complete observation: the
// flat scale metrics plus the machine-world extras.
type ScaleMachinePoint struct {
	ScalePoint
	Protocol string
	// Boot is the template's snapshot time: arrivals start after it,
	// and goodput is computed over Finish - Boot.
	Boot sim.Time
	// Lookahead/LatMin/LatMax describe the rack latency matrix the
	// synchronizer ran under.
	Lookahead sim.Time
	LatMin    sim.Time
	LatMax    sim.Time
	// Engine totals summed over every node's real DMA engine.
	EngStarted    uint64
	EngRejected   uint64
	EngCompleted  uint64
	EngBytesMoved uint64
	// MachineDigest folds every node's engine counters and CPU
	// high-water mark in node order — the machine-level analogue of the
	// fabric Fingerprint, pinned by the parity tests.
	MachineDigest uint64
}

// scaleMTemplate is one pooled pristine world: a standalone machine
// built, attached and mapped for a (protocol, cluster size) pair, plus
// the precomputed pieces every clone shares.
type scaleMTemplate struct {
	snap   *machine.Snapshot // clones must not run before its Time
	h      *userdma.Handle
	p      *proc.Process
	reqPA  phys.Addr // client request payload frame
	respPA phys.Addr // server response payload frame
}

var (
	scaleMMu    sync.Mutex
	scaleMCache = map[string]*scaleMTemplate{}
)

// scaleMTemplateFor builds (or returns the pooled) template for method
// at the given cluster size. Safe for concurrent cells: the build is
// serialized, and hydration from the returned snapshot is read-only.
func scaleMTemplateFor(method userdma.Method, nodes int) (*scaleMTemplate, error) {
	key := fmt.Sprintf("%s/%d", method.Name(), nodes)
	scaleMMu.Lock()
	defer scaleMMu.Unlock()
	if t, ok := scaleMCache[key]; ok {
		return t, nil
	}
	cfg := userdma.ConfigFor(method)
	cfg.Engine.NodeShift = scaleMNodeShift
	if cfg.PageSize != scaleMPage {
		return nil, fmt.Errorf("exp: scalemachine address map assumes %d-byte pages, preset has %d", scaleMPage, cfg.PageSize)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	// The library process: its body is empty (RPC events drive the CPU
	// directly through userdma.DirectCPU), but running it to completion
	// leaves a settled record the snapshot can carry, and its address
	// space holds every mapping below.
	p := m.NewProcess("rpc", func(c *proc.Context) error { return nil })
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		return nil, err
	}
	if p.Err() != nil {
		return nil, p.Err()
	}
	// Attach first: context-carrying protocols burn their context id
	// into the shadow mappings created below.
	h, err := method.Attach(m, p)
	if err != nil {
		return nil, err
	}
	frames, err := m.SetupPages(p, scaleMReqVA, 2, vm.Read|vm.Write)
	if err != nil {
		return nil, err
	}
	m.Mem.Fill(frames[0], scaleMPage, 0xab)
	m.Mem.Fill(frames[1], scaleMPage, 0xcd)
	// Local read-only views of the landing pages.
	if err := m.Kernel.MapFrame(p.AddressSpace(), scaleMLandReqVA, scaleMReqOff, vm.Read); err != nil {
		return nil, err
	}
	if err := m.Kernel.MapFrame(p.AddressSpace(), scaleMLandRespVA, scaleMRespOff, vm.Read); err != nil {
		return nil, err
	}
	// One remote req/resp window per peer (self included, for a uniform
	// map), each with its shadow alias for the user-level sequences.
	for d := 0; d < nodes; d++ {
		va := scaleMPeerVA(d)
		if err := m.Kernel.MapRemote(p, va, d, scaleMReqOff); err != nil {
			return nil, err
		}
		if err := m.Kernel.MapShadow(p, va); err != nil {
			return nil, err
		}
		if err := m.Kernel.MapRemote(p, va+scaleMPage, d, scaleMRespOff); err != nil {
			return nil, err
		}
		if err := m.Kernel.MapShadow(p, va+scaleMPage); err != nil {
			return nil, err
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	t := &scaleMTemplate{snap: snap, h: h, p: p, reqPA: frames[0], respPA: frames[1]}
	scaleMCache[key] = t
	return t, nil
}

// hostedNode is the hosted-machine node model: one full shard-hosted
// machine per node, all cloned from one template, so every node runs
// the same process with the same address map.
type hostedNode struct {
	*scaleMTemplate
	hm       *net.HostedMachines
	protocol string
	bytes    uint64
}

// scaleMPort is one node's fabric attachment: the engine's remote ships
// become cluster messages. The landing offset classifies the message
// and the payload's first eight bytes carry the RPC tag — the tag rides
// the actual DMA payload through the engine's acceptance-time snapshot.
type scaleMPort struct {
	c    *net.ShardedCluster
	node int
}

// Deliver implements dma.RemoteHandler. data is not retained.
func (pt *scaleMPort) Deliver(node int, addr phys.Addr, data []byte, at sim.Time) error {
	var kind uint8
	switch addr {
	case scaleMReqOff:
		kind = scaleKindReq
	case scaleMRespOff:
		kind = scaleKindResp
	default:
		return fmt.Errorf("exp: scalemachine ship to unknown landing offset %v", addr)
	}
	if len(data) < 8 {
		return fmt.Errorf("exp: scalemachine ship of %d bytes cannot carry the RPC tag", len(data))
	}
	pt.c.Send(pt.node, node, kind, uint64(len(data)), binary.LittleEndian.Uint64(data[:8]), at)
	return nil
}

// scaleMachineParams resolves the shared scale knobs, then applies the
// machine world's own bounds.
func scaleMachineParams(p Params) (rpcConfig, error) {
	cfg, err := scaleParams(p)
	if err != nil {
		return cfg, err
	}
	if err := ValidScaleMachineWorld(cfg.nodes, cfg.bytes); err != nil {
		return cfg, fmt.Errorf("exp: scalemachine: %w", err)
	}
	return cfg, nil
}

// protocolNamed resolves a -protocol short name to its line-up entry.
func protocolNamed(name string) (scaleProtocol, error) {
	for _, sp := range scaleProtocols {
		if sp.name == name {
			return sp, nil
		}
	}
	return scaleProtocol{}, fmt.Errorf("exp: unknown protocol %q (kernel, extshadow, keybased, repeated, all)", name)
}

// protocolsFor expands a -protocol selector: "" and "all" select the
// whole line-up, anything else must name one protocol.
func protocolsFor(selector string) ([]scaleProtocol, error) {
	if selector == "" || selector == "all" {
		return scaleProtocols, nil
	}
	sp, err := protocolNamed(selector)
	if err != nil {
		return nil, err
	}
	return []scaleProtocol{sp}, nil
}

// ValidProtocol rejects -protocol flag values the scalemachine
// experiment would refuse ("" and "all" select the full line-up) —
// the tools call it for flag-level exit-2 messages before any world
// is built.
func ValidProtocol(name string) error {
	_, err := protocolsFor(name)
	return err
}

// ValidScaleMachineWorld applies the machine world's extra flag-level
// bounds — the node ceiling imposed by the 16 KiB per-node remote
// window and the request-size band (must carry the 8-byte RPC tag,
// must fit one landing page) — so the tools can exit 2 before any
// template is built. scaleMachineParams applies the same bounds.
func ValidScaleMachineWorld(nodes int, bytes uint64) error {
	switch {
	case nodes > scaleMMaxNodes:
		return fmt.Errorf("the machine world supports at most %d nodes (16 KiB remote window per node)", scaleMMaxNodes)
	case bytes < 8:
		return fmt.Errorf("machine-world requests must carry the 8-byte RPC tag")
	case bytes > scaleMPage:
		return fmt.Errorf("machine-world requests must fit one %d-byte landing page", scaleMPage)
	}
	return nil
}

// ScaleProtocolNames expands a -protocol selector into the short names
// it runs ("" / "all" → the full line-up) — what the tools iterate for
// per-protocol bench ladders.
func ScaleProtocolNames(selector string) ([]string, error) {
	sps, err := protocolsFor(selector)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(sps))
	for i, sp := range sps {
		names[i] = sp.name
	}
	return names, nil
}

// RunScaleMachineNamed resolves one protocol short name and runs its
// hosted-machine world — the tools' per-protocol entry point.
func RunScaleMachineNamed(protocol string, p Params, workers int) (ScaleMachinePoint, error) {
	sp, err := protocolNamed(protocol)
	if err != nil {
		return ScaleMachinePoint{}, err
	}
	return RunScaleMachine(sp.method, p, workers)
}

// RunScaleMachine builds one hosted-machine world for the method under
// p and runs it with the given intra-world worker count. Like RunScale,
// the result is byte-identical at every shards/workers combination.
func RunScaleMachine(method userdma.Method, p Params, workers int) (ScaleMachinePoint, error) {
	g, hn, err := newScaleMachineWorld(method, p)
	if err != nil {
		return ScaleMachinePoint{}, err
	}
	g.prime()
	if err := g.run(workers); err != nil {
		return ScaleMachinePoint{}, err
	}
	return hn.observe(g), nil
}

// newScaleMachineWorld assembles the full hosted fleet — template,
// clones, ports, state hook — behind the generator but does not prime
// arrivals or run; the split is what lets tests capture the quiescent
// pre-traffic world, or attach a fault plane, through the cluster's
// own machinery. Clones carry template-era substrate timestamps, so
// the generator's boot is the template's snapshot time.
func newScaleMachineWorld(method userdma.Method, p Params) (*rpcGen, *hostedNode, error) {
	cfg, err := scaleMachineParams(p)
	if err != nil {
		return nil, nil, err
	}
	tpl, err := scaleMTemplateFor(method, cfg.nodes)
	if err != nil {
		return nil, nil, err
	}
	// Rack topology: racks of scaleMRackSize nodes, cross-rack wires 3x
	// the base latency. A pure function of the node ids, so identical
	// under every shard layout.
	base := net.Gigabit().Latency
	g, err := newRPCGen(cfg, tpl.snap.Time(), func(src, dst int) sim.Time {
		if src/scaleMRackSize == dst/scaleMRackSize {
			return base
		}
		return scaleMRackCross * base
	})
	if err != nil {
		return nil, nil, err
	}
	fleet := make([]*machine.Machine, cfg.nodes)
	for n := range fleet {
		clock, events := g.c.NodeEnv(n)
		mm, err := machine.NewFromSnapshotHosted(tpl.snap, clock, events)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: scalemachine node %d: %w", n, err)
		}
		mm.Engine.SetRemoteHandler(&scaleMPort{c: g.c, node: n})
		fleet[n] = mm
	}
	hm, err := net.NewHostedMachines(g.c, fleet)
	if err != nil {
		return nil, nil, err
	}
	// Chain the generator's RPC bookkeeping behind the fleet snapshot.
	hm.Inner = g
	hn := &hostedNode{scaleMTemplate: tpl, hm: hm, protocol: protocolName(method), bytes: cfg.bytes}
	g.node = hn
	return g, hn, nil
}

// scaleMTag writes the RPC tag into the first word of a payload frame
// — the application-level "produce the message" step (free, like the
// flat model's payload; the DMA that moves it pays full price).
func scaleMTag(m *machine.Machine, pa phys.Addr, seq uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return m.Mem.WriteBytes(pa, b[:])
}

// initiate runs the protocol's REAL initiation sequence on node n's
// CPU; the engine ships the payload to the fabric at its computed End.
// It then records the CPU high-water mark and serializes the node
// behind that transfer (the engine and payload buffers are a serial
// per-node resource). what and id name the RPC on the error path only.
func (hn *hostedNode) initiate(n int, m *machine.Machine, src, dst vm.VAddr, bytes uint64, what string, id uint64) error {
	st, err := hn.h.DirectDMA(&userdma.DirectCPU{M: m, P: hn.p}, src, dst, bytes)
	if err != nil {
		err = fmt.Errorf("exp: scalemachine node %d %s %d: %w", n, what, id, err)
	} else if st == dma.StatusFailure {
		err = fmt.Errorf("exp: scalemachine node %d %s %d refused", n, what, id)
	}
	hn.hm.Leave(n)
	if t := m.Engine.LastTransfer(); t != nil {
		hn.hm.Bump(n, t.End)
	}
	return err
}

// request tags the client's payload frame and DMAs it to the server's
// request landing page.
func (hn *hostedNode) request(n, dst int, seq uint64, now sim.Time) error {
	m := hn.hm.Machine(n)
	hn.hm.Floor(n, now)
	if err := scaleMTag(m, hn.reqPA, seq); err != nil {
		return err
	}
	return hn.initiate(n, m, scaleMReqVA, scaleMPeerVA(dst), hn.bytes, "request", seq)
}

// serve lands the request tag at the request landing page (fabric
// address = destination physical address, as in net.Fabric), validates
// it with a real CPU load, and initiates the response DMA back to the
// client's response landing page.
func (hn *hostedNode) serve(req net.SMsg, now sim.Time) error {
	d := req.Dst
	m := hn.hm.Machine(d)
	hn.hm.Floor(d, now)
	if err := scaleMTag(m, scaleMReqOff, req.Arg); err != nil {
		return err
	}
	if _, err := m.CPU.Load(hn.p.AddressSpace(), scaleMLandReqVA, phys.Size64); err != nil {
		return err
	}
	m.CPU.Spin(scaleMSrvCycles)
	if err := scaleMTag(m, hn.respPA, req.Arg); err != nil {
		return err
	}
	return hn.initiate(d, m, scaleMRespVA, scaleMPeerVA(req.Src)+scaleMPage, scaleMRespBytes, "response to", uint64(req.Src))
}

// complete lands the response tag and performs the client's completion
// read.
func (hn *hostedNode) complete(resp net.SMsg, now sim.Time) error {
	d := resp.Dst
	m := hn.hm.Machine(d)
	hn.hm.Floor(d, now)
	if err := scaleMTag(m, scaleMRespOff, resp.Arg); err != nil {
		return err
	}
	if _, err := m.CPU.Load(hn.p.AddressSpace(), scaleMLandRespVA, phys.Size64); err != nil {
		return err
	}
	hn.hm.Leave(d)
	return nil
}

// observe folds the finished world into a ScaleMachinePoint: the
// generator's ScalePoint plus the fleet's engine totals and machine
// digest, node order throughout so the fold is layout-invariant.
func (hn *hostedNode) observe(g *rpcGen) ScaleMachinePoint {
	latMin, latMax := g.c.LatencyBounds()
	pt := ScaleMachinePoint{
		ScalePoint: g.observe(),
		Protocol:   hn.protocol,
		Boot:       g.boot,
		Lookahead:  g.c.Lookahead(),
		LatMin:     latMin,
		LatMax:     latMax,
	}
	// Machine digest: FNV-1a over every node's engine counters and CPU
	// high-water mark, in node order.
	digest := uint64(1469598103934665603)
	mix := func(v uint64) {
		digest ^= v
		digest *= 1099511628211
	}
	for n := 0; n < g.nodes; n++ {
		st := hn.hm.Machine(n).Engine.Stats()
		mix(st.ShadowStores)
		mix(st.ShadowLoads)
		mix(st.KeyMismatches)
		mix(st.SeqResets)
		mix(st.Started)
		mix(st.Rejected)
		mix(st.Completed)
		mix(st.BytesMoved)
		mix(st.AtomicOps)
		mix(st.RemoteStarted)
		mix(st.AbortedPending)
		mix(uint64(hn.hm.Busy(n)))
		pt.EngStarted += st.Started
		pt.EngRejected += st.Rejected
		pt.EngCompleted += st.Completed
		pt.EngBytesMoved += st.BytesMoved
	}
	pt.MachineDigest = digest
	return pt
}

// scaleMachineCells expands the experiment: one cell per selected
// protocol, each a complete hosted-machine world. Like the flat scale
// experiment, p.Procs is the INTRA-world worker count; the protocol
// cells themselves also fan out on the cell runner.
func scaleMachineCells(p Params) ([]Cell, error) {
	cfg, err := scaleMachineParams(p)
	if err != nil {
		return nil, err
	}
	sps, err := protocolsFor(p.Protocol)
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("%dn/%ds", cfg.nodes, cfg.shards)
	cells := make([]Cell, len(sps))
	for i, sp := range sps {
		method := sp.method
		cells[i] = Cell{Method: method.Name(), Config: label, Run: func() (Obs, bool, error) {
			pt, err := RunScaleMachine(method, p, p.Procs)
			if err != nil {
				return Obs{}, false, fmt.Errorf("%s: %w", method.Name(), err)
			}
			return Obs{ScaleM: []ScaleMachinePoint{pt}}, false, nil
		}}
	}
	return cells, nil
}

func scaleMachineText(r *Result, p Params) string {
	pts := r.ScaleMachinePoints()
	var b strings.Builder
	if len(pts) > 0 {
		pt := pts[0]
		fmt.Fprintf(&b, "Machines at cluster scale — %d nodes, %d shards, %d tenants/node, %d RPC/s/node, %dB requests, %v window\n",
			pt.Nodes, pt.Shards, pt.Tenants, pt.Arrival, pt.Bytes, pt.Dur)
		fmt.Fprintf(&b, "racks of %d (cross-rack %v, intra %v), lookahead %v, boot %v\n\n",
			scaleMRackSize, pt.LatMax, pt.LatMin, pt.Lookahead, pt.Boot)
	}
	tb := stats.NewTable("initiation protocol", "completed", "goodput", "p50", "p99", "rejected", "digest")
	for _, pt := range pts {
		tb.AddRow(pt.Protocol,
			fmt.Sprintf("%d/%d", pt.Completed, pt.Issued),
			fmt.Sprintf("%.1f MB/s (%.0f RPC/s)", pt.GoodputMBps, pt.GoodputRPCs),
			pt.P50, pt.P99,
			pt.EngRejected,
			fmt.Sprintf("%016x", pt.MachineDigest))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	for _, pt := range pts {
		fmt.Fprintf(&b, "%s: engine started/completed %d/%d, %d B moved, %d deliveries, %d windows, finish %v, fingerprint %016x\n",
			pt.Protocol, pt.EngStarted, pt.EngCompleted, pt.EngBytesMoved,
			pt.Deliveries, pt.Windows, pt.Finish, pt.Fingerprint)
	}
	b.WriteString("\nOne full machine per node: every RPC runs the protocol's real initiation\n")
	b.WriteString("sequence and moves through the node's actual DMA engine; identical output\n")
	b.WriteString("at every shard and worker count (the determinism pin).\n")
	return b.String()
}
