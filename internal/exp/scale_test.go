package exp

import (
	"strings"
	"testing"

	"uldma/internal/fault"
	"uldma/internal/sim"
)

// normalize strips the one configuration field that legitimately
// differs across layouts (the shard count) so ScalePoints from
// different partitions of the same world can be compared whole.
func normalizeScale(pt ScalePoint) ScalePoint {
	pt.Shards = 0
	return pt
}

// TestScaleShardParity pins the sharded engine's contract end to end
// through the experiment layer: the default small world produces an
// IDENTICAL observation — every latency percentile, every counter, the
// state fingerprint — at shards × workers {1,4,8}.
func TestScaleShardParity(t *testing.T) {
	p := Params{Nodes: 32, Arrival: 20000, ScaleDur: sim.Millisecond}
	var ref ScalePoint
	have := false
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			p.Shards = shards
			pt, err := RunScale(p, workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if pt.Shards != shards {
				t.Fatalf("ScalePoint.Shards = %d, want %d", pt.Shards, shards)
			}
			got := normalizeScale(pt)
			if !have {
				ref, have = got, true
				if ref.Completed == 0 || ref.Deliveries == 0 {
					t.Fatalf("degenerate reference run: %+v", ref)
				}
				continue
			}
			if got != ref {
				t.Errorf("shards=%d workers=%d diverges:\n got %+v\nwant %+v", shards, workers, got, ref)
			}
		}
	}
}

// TestScaleFaultedPinned pins RunScaleFaulted's observation, drop and
// duplicate tallies at every layout to the values of the sort-then-
// schedule barrier exchange, so the fault-plane path of the flush can
// change shape without changing one delivery. The first plan has no
// jitter, so a duplicate's two copies tie on arrival; the second delays
// copies past later messages' arrivals.
func TestScaleFaultedPinned(t *testing.T) {
	cases := []struct {
		name        string
		plan        fault.Plan
		want        ScalePoint
		drops, dups uint64
	}{
		{
			name: "drop+dup",
			plan: fault.Plan{Default: fault.LinkFaults{Drop: 0.05, Dup: 0.02}},
			want: ScalePoint{Nodes: 32, Arrival: 20000, Tenants: 2, Bytes: 64, Dur: sim.Millisecond,
				Issued: 603, Completed: 576, Mean: 8945308, P50: 8640000, P99: 12640000,
				GoodputMBps: 36.569812207496746, GoodputRPCs: 571403.3157421367,
				Deliveries: 1168, Events: 1771, Windows: 618, Finish: 1008044553,
				Fingerprint: 0x59b36d5bae86a34f},
			drops: 44, dups: 17,
		},
		{
			name: "jitter+reorder",
			plan: fault.Plan{Default: fault.LinkFaults{Drop: 0.05, Dup: 0.1,
				Jitter: 3 * sim.Microsecond, Reorder: 0.2, ReorderBy: 2 * sim.Microsecond}},
			want: ScalePoint{Nodes: 32, Arrival: 20000, Tenants: 2, Bytes: 64, Dur: sim.Millisecond,
				Issued: 603, Completed: 665, Mean: 12597538, P50: 12322149, P99: 18000654,
				GoodputMBps: 41.923723646221305, GoodputRPCs: 655058.1819722079,
				Deliveries: 1303, Events: 1906, Windows: 632, Finish: 1015177000,
				Fingerprint: 0xf7e5bdab114365ab},
			drops: 53, dups: 115,
		},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 4, 8} {
			p := Params{Nodes: 32, Shards: shards, Arrival: 20000, ScaleDur: sim.Millisecond}
			pt, drops, dups, err := RunScaleFaulted(p, shards, fault.New(tc.plan, 77))
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			if got := normalizeScale(pt); got != tc.want || drops != tc.drops || dups != tc.dups {
				t.Errorf("%s shards=%d:\n got %+v (drops=%d dups=%d)\nwant %+v (drops=%d dups=%d)",
					tc.name, shards, got, drops, dups, tc.want, tc.drops, tc.dups)
			}
		}
	}
}

// TestScaleThousandNode is the acceptance pin: a 1000-node world with
// over 10^6 link deliveries completes byte-identically across the
// shard × worker grid. Under the race detector the grid shrinks to its
// diagonal (the full grid is already pinned above and by
// TestShardEquivalence; race multiplies the per-event cost ~10×).
func TestScaleThousandNode(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node world in -short mode")
	}
	p := Params{Nodes: 1000, Arrival: 55000, ScaleDur: 10 * sim.Millisecond}
	grid := [][2]int{{1, 1}, {4, 1}, {4, 4}, {8, 8}, {1, 4}, {8, 1}}
	if raceEnabled {
		grid = [][2]int{{1, 1}, {4, 4}, {8, 8}}
	}
	var ref ScalePoint
	have := false
	for _, sw := range grid {
		p.Shards = sw[0]
		pt, err := RunScale(p, sw[1])
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", sw[0], sw[1], err)
		}
		got := normalizeScale(pt)
		if !have {
			ref, have = got, true
			if ref.Deliveries < 1_000_000 {
				t.Fatalf("only %d link deliveries — the acceptance pin needs >= 10^6", ref.Deliveries)
			}
			if ref.Nodes != 1000 {
				t.Fatalf("Nodes = %d, want 1000", ref.Nodes)
			}
			continue
		}
		if got != ref {
			t.Errorf("shards=%d workers=%d diverges at 1000 nodes:\n got %+v\nwant %+v", sw[0], sw[1], got, ref)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"one node", Params{Nodes: 1}},
		{"negative nodes", Params{Nodes: -3}},
		{"shards above nodes", Params{Nodes: 4, Shards: 5}},
		{"negative shards", Params{Shards: -1}},
		{"negative arrival", Params{Arrival: -10}},
		{"negative tenants", Params{Tenants: -1}},
		{"negative duration", Params{ScaleDur: -sim.Millisecond}},
	}
	for _, tc := range cases {
		if _, err := RunScale(tc.p, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// The cell expansion path must reject the same configs, so the
		// tools fail before spinning up a runner.
		if _, err := scaleCells(tc.p); err == nil {
			t.Errorf("%s: scaleCells accepted", tc.name)
		}
	}
}

// The registered experiment renders through the shared runner like
// every other spec.
func TestScaleExperimentRenders(t *testing.T) {
	p := Params{Nodes: 8, Shards: 2, Arrival: 10000, ScaleDur: 200 * sim.Microsecond}
	out, err := Report("scale", Text, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NOW at scale", "goodput", "fingerprint", "sync windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	rows := func() []ScaleRow {
		r, err := RunNamed("scale", p)
		if err != nil {
			t.Fatal(err)
		}
		return ScaleRows(r)
	}()
	if len(rows) != 1 || rows[0].Label != "8n/2s" || rows[0].Deliveries == 0 {
		t.Fatalf("ScaleRows = %+v, want one populated 8n/2s row", rows)
	}
	if rows[0].HostNs != 0 {
		t.Fatalf("HostNs = %d before any -bench fill, want omitted zero", rows[0].HostNs)
	}
}
