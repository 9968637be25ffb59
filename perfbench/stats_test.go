package main

import (
	"errors"
	"fmt"
	"math"
	"testing"

	userdma "uldma/internal/core"
	"uldma/internal/exp"
	"uldma/internal/sim"
)

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{1462, 1448}, // p99 itself leaves 14 beyond
		{1000, 990},  // p99 leaves exactly 10
		{999, 989},   // p99 would leave 9: step down to n-10
		{100, 90},    // p90
		{32, 22},     // p68.75
		{21, 11},     // p52.4: just above the median
		{20, 10},     // no tail: the median's rank
		{6, 3},
		{1, 1},
	} {
		k := tailRank(tc.n)
		if k != tc.k {
			t.Errorf("tailRank(%d) = %d, want %d", tc.n, k, tc.k)
		}
		if beyond := tc.n - k; tc.n > 20 && beyond < 10 {
			t.Errorf("tailRank(%d) leaves %d samples beyond, want >= 10", tc.n, beyond)
		}
		if float64(k) > math.Ceil(0.99*float64(tc.n)) {
			t.Errorf("tailRank(%d) = %d is above p99", tc.n, k)
		}
	}
}

func TestTailValues(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	pct, v := tail(xs)
	if pct != 99 || v != 990 {
		t.Fatalf("tail(1..1000) = p%v %v, want p99 990", pct, v)
	}
	pct, v = tail([]float64{4, 1, 3, 2})
	if pct != 50 || v != 2.5 {
		t.Fatalf("tail of 4 samples = p%v %v, want the median p50 2.5", pct, v)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

// The Table 1 error comes from the published means in
// userdma.PaperTable1 and the model's means pinned in
// BENCH_baseline.json: 2.88% on this model.
func TestTable1ErrPct(t *testing.T) {
	var doc struct{ Table1 []exp.InitiationRow }
	repoRoot = ".."
	if err := readRepoJSON("BENCH_baseline.json", &doc); err != nil {
		t.Fatal(err)
	}
	var rows []userdma.InitiationResult
	for _, r := range doc.Table1 {
		rows = append(rows, userdma.InitiationResult{Method: r.Method, Mean: sim.Time(r.MeanPs)})
	}
	got, err := table1ErrPct(rows)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%.2f", got) != "2.88" {
		t.Fatalf("table1_err_pct = %.4f, want 2.88", got)
	}
	// By hand: the kernel row alone is off by 5.837 ns in 18.6 µs.
	one, _ := table1ErrPct(rows[:1])
	if want := 100 * 5837.0 / 18600000; math.Abs(one-want) > 1e-9 {
		t.Fatalf("kernel row error = %v, want %v", one, want)
	}
	if _, err := table1ErrPct([]userdma.InitiationResult{{Method: "PAL Code", Mean: 1}}); err == nil {
		t.Fatal("a row with no published mean must be an error")
	}
}

func TestCheckWorldCounting(t *testing.T) {
	pin := []string{"8a8bd0b9fb2c979c"}
	ok := checkWorld("w", 100, 100, pin, pin)
	if ok.Attempted != 100 || ok.Failed != 0 {
		t.Fatalf("matching world: %+v", ok)
	}
	lost := checkWorld("w", 100, 97, pin, pin)
	if lost.Attempted != 100 || lost.Failed != 3 {
		t.Fatalf("3 RPCs never completed: %+v", lost)
	}
	forged := checkWorld("w", 100, 100, []string{"0000000000000000"}, pin)
	if forged.Attempted != 100 || forged.Failed != 100 {
		t.Fatalf("forged digest must fail every RPC of the world: %+v", forged)
	}
	unpinned := checkWorld("w", 100, 100, pin, nil)
	if unpinned.Failed != 100 {
		t.Fatalf("unpinned world must fail: %+v", unpinned)
	}
}

func TestCheckCellCounting(t *testing.T) {
	var key string
	for k := range pins.Guest {
		key = k
		break
	}
	if key == "" {
		t.Fatal("pins.json holds no guest cells")
	}
	var all tally
	all.merge(checkCell(key, pins.Guest[key], nil))
	all.merge(checkCell(key, "ffffffffffffffff", nil)) // forged digest
	all.merge(checkCell(key, pins.Guest[key], errors.New("boom")))
	all.merge(checkCell("no-such-cell/0", "0000000000000000", nil))
	if all.Attempted != 4 || all.Failed != 3 || len(all.Problems) != 3 {
		t.Fatalf("tally = %+v, want 4 attempted, 3 failed", all)
	}
	if r := all.errorRate(); r != 0.75 {
		t.Fatalf("error_rate = %v, want 0.75", r)
	}
}

func TestWorldSeedMapping(t *testing.T) {
	seen := map[uint64]bool{}
	for s := int64(-20); s <= 40; s++ {
		ws := worldSeed(s)
		if ws < 1 || ws > worldSeeds {
			t.Fatalf("worldSeed(%d) = %d outside 1..%d", s, ws, worldSeeds)
		}
		seen[ws] = true
		if _, ok := pins.NowRPC[fmt.Sprint(ws)]; !ok {
			t.Fatalf("world seed %d has no now_rpc pin", ws)
		}
		if len(pins.HostedRPC[fmt.Sprint(ws)]) != len(hostedProtocols) {
			t.Fatalf("world seed %d lacks hosted_rpc pins", ws)
		}
	}
	if worldSeed(1) != 1 || len(seen) != worldSeeds {
		t.Fatalf("worldSeed(1) = %d, %d distinct", worldSeed(1), len(seen))
	}
}

// The seed-1 now_rpc pin is the repository's own: BENCH_scale.json.
func TestNowPinMatchesBenchScale(t *testing.T) {
	repoRoot = ".."
	fp, err := benchScaleFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != "8a8bd0b9fb2c979c" || pins.NowRPC["1"].Fingerprint != fp {
		t.Fatalf("BENCH_scale.json %s, pins.json %s", fp, pins.NowRPC["1"].Fingerprint)
	}
}

func TestGuestSuitePinsEveryCell(t *testing.T) {
	cells, err := expandGuest()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(cells))
	for _, c := range cells {
		if _, ok := pins.Guest[c.key]; !ok {
			t.Errorf("cell %s unpinned", c.key)
		}
		keys = append(keys, c.key)
	}
	if len(keys) != len(pins.Guest) {
		t.Errorf("%d cells expand, %d pinned", len(keys), len(pins.Guest))
	}
	if n := len(guestExperiments()); n != 16 {
		t.Errorf("suite runs %d experiments, want 16: %v", n, guestExperiments())
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 40, End: 45, Parent: 0},
		{Name: "a.x", Start: 12, End: 20, Parent: 1},
	}
	if got := selfNs(spans, 0); got != 75 {
		t.Fatalf("self(run) = %d, want 75", got)
	}
	if got := selfNs(spans, 1); got != 12 {
		t.Fatalf("self(a) = %d, want 12", got)
	}
	tr := newTracer("r")
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.child("sum", 0)
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Run != "r" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	var none *tracer
	none.begin("x") // a nil tracer records nothing
	if none.end() != 0 {
		t.Fatal("nil tracer measured time")
	}
}

func TestNormScalesByReference(t *testing.T) {
	nominal := refNominal.Seconds()
	// A repetition on a host twice as slow as the nominal one: its
	// reference and its pass both take twice as long.
	o := &repOut{RefS: 2 * nominal, WallS: 1.5}
	if got := o.norm(o.WallS); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("norm(1.5 s) at half speed = %v, want 0.75", got)
	}
	o = &repOut{RefS: nominal}
	if got := o.norm(0.42); got != 0.42 {
		t.Fatalf("norm at nominal speed = %v, want 0.42", got)
	}
}

func TestReferenceIsDeterministic(t *testing.T) {
	d1, s1 := reference()
	d2, s2 := reference()
	if s1 != s2 || d1 <= 0 || d2 <= 0 {
		t.Fatalf("reference kernel: checksums %d and %d, times %v and %v", s1, s2, d1, d2)
	}
}
