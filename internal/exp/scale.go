package exp

// The `scale` experiment: the paper's per-transfer numbers extrapolated
// to a datacenter-scale NOW on the sharded engine (net.ShardedCluster).
// The open-loop, multi-tenant RPC generator (rpcgen.go) drives the flat
// node model: each RPC serializes through the client's user-level
// initiation port, crosses the fabric, occupies the server's engine for
// a service turnaround, and returns a small completion write. The
// experiment reports goodput and the client-observed latency
// distribution (mean/p50/p99), plus the engine-side totals (deliveries,
// events, windows) the host events/sec throughput metric is computed
// from.
//
// Everything reported here is layout-invariant: the same (nodes, seed,
// workload) yields byte-identical results at every shard count and
// every worker count (TestScaleShardParity), which is what makes the
// experiment safe to golden and to benchdiff.

import (
	"fmt"
	"strings"

	"uldma/internal/net"
	"uldma/internal/sim"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "scale",
		Doc:   "sharded NOW at scale: open-loop multi-tenant user-level DMA RPC traffic",
		Cells: scaleCells,
		Render: map[Format]RenderFunc{
			Text: scaleText,
		},
	})
}

// The flat node model: Table-1-magnitude costs for a user-level DMA
// RPC, fixed so the experiment's axis is scale, not method.
const (
	// scaleInitCost is the client-side user-level initiation cost per
	// RPC (the few-microsecond store sequence the paper measures).
	// Back-to-back RPCs from one node queue behind each other on it.
	scaleInitCost = 2 * sim.Microsecond
	// scaleSrvCost is the server-side turnaround: validate the request,
	// start the response DMA. The server engine is a serial resource.
	scaleSrvCost = 4 * sim.Microsecond
	// scaleRespBytes is the completion write the server returns.
	scaleRespBytes = 16
)

// flatNode is the fixed-cost node model: each node's initiation port
// and server engine are serial resources with a busy-until time.
type flatNode struct {
	c        *net.ShardedCluster
	bytes    uint64
	nextFree []sim.Time // client initiation port busy-until
	srvFree  []sim.Time // server engine busy-until
}

// request queues the RPC through the client initiation port and sends
// it when the initiation completes.
func (f *flatNode) request(n, dst int, seq uint64, now sim.Time) error {
	done := max(now, f.nextFree[n]) + scaleInitCost
	f.nextFree[n] = done
	f.c.Send(n, dst, scaleKindReq, f.bytes, seq, done)
	return nil
}

// serve occupies the server engine, then returns a completion write.
func (f *flatNode) serve(req net.SMsg, now sim.Time) error {
	d := req.Dst
	done := max(now, f.srvFree[d]) + scaleSrvCost
	f.srvFree[d] = done
	f.c.Send(d, req.Src, scaleKindResp, scaleRespBytes, req.Arg, done)
	return nil
}

func (f *flatNode) complete(net.SMsg, sim.Time) error { return nil }

// RunScale builds one sharded world under p and runs it to completion
// with the given intra-world worker count (<= 0 selects GOMAXPROCS).
// The result is identical for every workers value — the sharded
// engine's contract — so callers choose workers purely for host speed.
func RunScale(p Params, workers int) (ScalePoint, error) {
	pt, _, _, err := RunScaleFaulted(p, workers, nil)
	return pt, err
}

// RunScaleFaulted runs the same world with a fault plane attached to
// the cross-shard links (judged per message in canonical flush order on
// the coordinator) and additionally returns the plane's drop and
// duplicate tallies. A nil plane — or one whose plan is empty, like a
// zero-plan fault.Injector — reproduces RunScale byte for byte.
func RunScaleFaulted(p Params, workers int, plane net.FaultPlane) (pt ScalePoint, drops, dups uint64, err error) {
	cfg, err := scaleParams(p)
	if err != nil {
		return ScalePoint{}, 0, 0, err
	}
	g, err := newRPCGen(cfg, 0, nil)
	if err != nil {
		return ScalePoint{}, 0, 0, err
	}
	g.c.SetFaultPlane(plane)
	g.node = &flatNode{
		c:        g.c,
		bytes:    cfg.bytes,
		nextFree: make([]sim.Time, cfg.nodes),
		srvFree:  make([]sim.Time, cfg.nodes),
	}
	g.prime()
	if err := g.run(workers); err != nil {
		return ScalePoint{}, 0, 0, err
	}
	drops, dups = g.c.FaultStats()
	return g.observe(), drops, dups, nil
}

// scaleCells expands the experiment: one cell, one sharded world. The
// grid stays width-one because the world already spans the whole
// cluster; p.Procs becomes the INTRA-world worker count instead of the
// usual cell fan-out (there is nothing else to fan out).
func scaleCells(p Params) ([]Cell, error) {
	cfg, err := scaleParams(p)
	if err != nil {
		return nil, err
	}
	return []Cell{{Config: fmt.Sprintf("%dn/%ds", cfg.nodes, cfg.shards), Run: func() (Obs, bool, error) {
		pt, err := RunScale(p, p.Procs)
		if err != nil {
			return Obs{}, false, err
		}
		return Obs{Scale: []ScalePoint{pt}}, false, nil
	}}}, nil
}

func scaleText(r *Result, p Params) string {
	var b strings.Builder
	for _, pt := range r.ScalePoints() {
		fmt.Fprintf(&b, "NOW at scale — %d nodes, %d shards, %d tenants/node, %d RPC/s/node, %dB requests, %v window\n\n",
			pt.Nodes, pt.Shards, pt.Tenants, pt.Arrival, pt.Bytes, pt.Dur)
		tb := stats.NewTable("metric", "value")
		tb.AddRow("RPCs issued", pt.Issued)
		tb.AddRow("RPCs completed", pt.Completed)
		tb.AddRow("goodput", fmt.Sprintf("%.1f MB/s (%.0f RPC/s)", pt.GoodputMBps, pt.GoodputRPCs))
		tb.AddRow("latency p50", pt.P50)
		tb.AddRow("latency p99", pt.P99)
		tb.AddRow("latency mean", pt.Mean)
		tb.AddRow("link deliveries", pt.Deliveries)
		tb.AddRow("events fired", pt.Events)
		tb.AddRow("sync windows", pt.Windows)
		tb.AddRow("finish", pt.Finish)
		tb.AddRow("fingerprint", fmt.Sprintf("%016x", pt.Fingerprint))
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	b.WriteString("One open-loop multi-tenant RPC generator per node on the sharded engine;\n")
	b.WriteString("identical output at every shard and worker count (the determinism pin).\n")
	return b.String()
}
