package exp

import (
	"strings"
	"testing"

	userdma "uldma/internal/core"
	"uldma/internal/fault"
	"uldma/internal/net"
	"uldma/internal/sim"
)

// normalizeScaleM strips the one configuration field that legitimately
// differs across layouts (the shard count) so ScaleMachinePoints from
// different partitions of the same world can be compared whole —
// including the engine aggregates and the per-node machine digest.
func normalizeScaleM(pt ScaleMachinePoint) ScaleMachinePoint {
	pt.Shards = 0
	return pt
}

// TestScaleMachineShardParity is the tentpole pin: a 128-node world of
// FULL machines — every RPC running the extshadow initiation sequence
// through its node's real DMA engine — produces an IDENTICAL
// observation (latencies, engine counters, machine digest, cluster
// fingerprint) at shards × workers {1,4,8}. The world is small enough
// to run the full 3×3 grid under the race detector too.
func TestScaleMachineShardParity(t *testing.T) {
	sp, err := protocolNamed("extshadow")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Nodes: 128, Arrival: 5000, ScaleDur: sim.Millisecond}
	var ref ScaleMachinePoint
	have := false
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			p.Shards = shards
			pt, err := RunScaleMachine(sp.method, p, workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if pt.Shards != shards {
				t.Fatalf("ScaleMachinePoint.Shards = %d, want %d", pt.Shards, shards)
			}
			got := normalizeScaleM(pt)
			if !have {
				ref, have = got, true
				if ref.Completed == 0 || ref.EngCompleted == 0 || ref.MachineDigest == 0 {
					t.Fatalf("degenerate reference run: %+v", ref)
				}
				if ref.EngRejected != 0 {
					t.Fatalf("%d engine rejections — the Bump serialization should keep engines free", ref.EngRejected)
				}
				continue
			}
			if got != ref {
				t.Errorf("shards=%d workers=%d diverges:\n got %+v\nwant %+v", shards, workers, got, ref)
			}
		}
	}
}

// TestScaleMachineProtocols pins the paper's Table-1 thesis at cluster
// scale: with real initiation sequences, the kernel-mediated protocol's
// RPC latency is strictly worse than every user-level protocol's.
func TestScaleMachineProtocols(t *testing.T) {
	p := Params{Nodes: 16, Shards: 4, Arrival: 5000, ScaleDur: sim.Millisecond}
	p50 := map[string]sim.Time{}
	for _, name := range []string{"kernel", "extshadow", "keybased", "repeated"} {
		sp, err := protocolNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := RunScaleMachine(sp.method, p, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pt.Completed == 0 {
			t.Fatalf("%s: no completed RPCs", name)
		}
		p50[pt.Protocol] = pt.P50
	}
	for _, user := range []string{"extshadow", "keybased", "repeated"} {
		if p50[user] >= p50["kernel"] {
			t.Errorf("p50 %s (%v) >= kernel (%v) — kernel traps should dominate", user, p50[user], p50["kernel"])
		}
	}
}

// TestScaleMachineThousandNode is the acceptance pin at cluster scale:
// 1000 full machines, byte-identical across the shard × worker grid.
// Under the race detector the grid shrinks to its diagonal (the full
// grid is pinned above at 128 nodes; race multiplies event cost ~10×).
func TestScaleMachineThousandNode(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine world in -short mode")
	}
	sp, err := protocolNamed("extshadow")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Nodes: 1000, Arrival: 2000, ScaleDur: sim.Millisecond}
	grid := [][2]int{{1, 1}, {4, 1}, {4, 4}, {8, 8}, {1, 4}, {8, 1}}
	if raceEnabled {
		grid = [][2]int{{1, 1}, {4, 4}, {8, 8}}
	}
	var ref ScaleMachinePoint
	have := false
	for _, sw := range grid {
		p.Shards = sw[0]
		pt, err := RunScaleMachine(sp.method, p, sw[1])
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", sw[0], sw[1], err)
		}
		got := normalizeScaleM(pt)
		if !have {
			ref, have = got, true
			if ref.Nodes != 1000 {
				t.Fatalf("Nodes = %d, want 1000", ref.Nodes)
			}
			if ref.Completed == 0 || ref.EngCompleted == 0 {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			continue
		}
		if got != ref {
			t.Errorf("shards=%d workers=%d diverges at 1000 machines:\n got %+v\nwant %+v", sw[0], sw[1], got, ref)
		}
	}
}

// runScaleMachineFaulted runs the hosted world for method under p with
// plane attached to the generator's cluster, and returns the plane's
// drop and duplicate tallies with the observation.
func runScaleMachineFaulted(t *testing.T, method userdma.Method, p Params, workers int, plane net.FaultPlane) (ScaleMachinePoint, uint64, uint64) {
	t.Helper()
	g, hn, err := newScaleMachineWorld(method, p)
	if err != nil {
		t.Fatal(err)
	}
	g.c.SetFaultPlane(plane)
	g.prime()
	if err := g.run(workers); err != nil {
		t.Fatalf("shards=%d workers=%d: %v", p.Shards, workers, err)
	}
	drops, dups := g.c.FaultStats()
	return hn.observe(g), drops, dups
}

// TestScaleMachineFaultParity pins the cross-shard fault injector on
// the hosted-machine path: the same (plan, seed) perturbs the same
// world of full machines identically at every layout, and the zero
// plan is byte-equal to no plane at all (the golden-invariance proof).
func TestScaleMachineFaultParity(t *testing.T) {
	method := userdma.ExtShadow{}
	p := Params{Nodes: 32, Arrival: 20000, ScaleDur: sim.Millisecond}
	plan := fault.Plan{Default: fault.LinkFaults{Drop: 0.05, Dup: 0.02}}
	layouts := [][2]int{{1, 1}, {4, 4}, {8, 8}, {1, 8}, {8, 1}}
	if raceEnabled {
		layouts = [][2]int{{1, 1}, {4, 4}, {8, 8}}
	}
	var ref ScaleMachinePoint
	var refDrops, refDups uint64
	have := false
	for _, sw := range layouts {
		p.Shards = sw[0]
		pt, drops, dups := runScaleMachineFaulted(t, method, p, sw[1], fault.New(plan, 77))
		got := normalizeScaleM(pt)
		if !have {
			ref, refDrops, refDups, have = got, drops, dups, true
			if refDrops == 0 || refDups == 0 {
				t.Fatalf("plan drew no faults (drops=%d dups=%d) — the parity check is vacuous", refDrops, refDups)
			}
			if ref.Completed == 0 || ref.EngCompleted == 0 {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			continue
		}
		if got != ref || drops != refDrops || dups != refDups {
			t.Errorf("shards=%d workers=%d diverges under faults:\n got %+v (drops=%d dups=%d)\nwant %+v (drops=%d dups=%d)",
				sw[0], sw[1], got, drops, dups, ref, refDrops, refDups)
		}
	}

	// Zero plan: provably inert — byte-equal to no plane at all.
	p.Shards = 4
	plain, err := RunScaleMachine(method, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	zeroed, drops, dups := runScaleMachineFaulted(t, method, p, 4, fault.New(fault.Plan{}, 99))
	if zeroed != plain || drops != 0 || dups != 0 {
		t.Errorf("zero-plan run differs from plain run:\n got %+v (drops=%d dups=%d)\nwant %+v", zeroed, drops, dups, plain)
	}
}

// TestScaleMachineSnapshotRestore drives the whole quiescent-state
// chain — ShardedCluster.Snapshot → HostedMachines.SnapshotState →
// machine.SnapshotHosted, plus the world's own Inner payload: capture
// the pre-traffic fleet, run it, rewind, run again, and demand the
// SAME observation both times.
func TestScaleMachineSnapshotRestore(t *testing.T) {
	p := Params{Nodes: 16, Shards: 4, Arrival: 5000, ScaleDur: sim.Millisecond}
	g, hn, err := newScaleMachineWorld(userdma.KeyBased{}, p)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := g.c.Snapshot()
	if err != nil {
		t.Fatalf("pre-traffic snapshot: %v", err)
	}
	g.prime()
	if err := g.run(2); err != nil {
		t.Fatal(err)
	}
	first := hn.observe(g)
	if first.Completed == 0 {
		t.Fatalf("degenerate first run: %+v", first)
	}
	if err := g.c.Restore(sn); err != nil {
		t.Fatalf("restore: %v", err)
	}
	g.prime()
	if err := g.run(2); err != nil {
		t.Fatal(err)
	}
	if second := hn.observe(g); second != first {
		t.Errorf("restored world diverges:\n got %+v\nwant %+v", second, first)
	}
}

func TestScaleMachineValidation(t *testing.T) {
	good := userdma.ExtShadow{}
	cases := []struct {
		name string
		p    Params
	}{
		{"one node", Params{Nodes: 1}},
		{"nodes above the remote window", Params{Nodes: scaleMMaxNodes + 1}},
		{"request below the tag", Params{ScaleBytes: 4}},
		{"request above a page", Params{ScaleBytes: scaleMPage + 1}},
		{"negative arrival", Params{Arrival: -10}},
	}
	for _, tc := range cases {
		if _, err := RunScaleMachine(good, tc.p, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// The cell expansion path must reject the same configs, so the
		// tools fail before spinning up a runner.
		if _, err := scaleMachineCells(tc.p); err == nil {
			t.Errorf("%s: scaleMachineCells accepted", tc.name)
		}
	}
	if _, err := protocolNamed("bogus"); err == nil {
		t.Error("unknown protocol name accepted")
	}
	if _, err := scaleMachineCells(Params{Protocol: "bogus"}); err == nil {
		t.Error("scaleMachineCells accepted an unknown protocol")
	}
	for _, name := range []string{"", "all"} {
		ms, err := protocolsFor(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if len(ms) != 4 {
			t.Errorf("%q expands to %d protocols, want 4", name, len(ms))
		}
	}
}

// The registered experiment renders through the shared runner like
// every other spec, and its typed JSON rows are populated.
func TestScaleMachineRenders(t *testing.T) {
	p := Params{Nodes: 8, Shards: 2, Arrival: 5000, ScaleDur: 500 * sim.Microsecond, Protocol: "extshadow"}
	out, err := Report("scalemachine", Text, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Machines at cluster scale", "initiation protocol", "goodput", "digest", "determinism pin"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	r, err := RunNamed("scalemachine", p)
	if err != nil {
		t.Fatal(err)
	}
	rows := ScaleMachineRows(r)
	if len(rows) != 1 || rows[0].Label != "extshadow/8n/2s" || rows[0].Completed == 0 {
		t.Fatalf("ScaleMachineRows = %+v, want one populated extshadow/8n/2s row", rows)
	}
	if rows[0].MachineDigest == "0000000000000000" {
		t.Fatalf("MachineDigest unset in %+v", rows[0])
	}
	if rows[0].HostNs != 0 {
		t.Fatalf("HostNs = %d before any -bench fill, want omitted zero", rows[0].HostNs)
	}

	// The full line-up: one cell per protocol.
	p.Protocol = "all"
	r, err = RunNamed("scalemachine", p)
	if err != nil {
		t.Fatal(err)
	}
	if rows := ScaleMachineRows(r); len(rows) != 4 {
		t.Fatalf("protocol=all yields %d rows, want 4", len(rows))
	}
}
