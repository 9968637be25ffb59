package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	userdma "uldma/internal/core"
	"uldma/internal/exp"
	"uldma/internal/sim"
)

// workload is one benchmark input set. rep runs one repetition —
// set-up, then the timed traffic pass, then the output checks — in the
// current process, which is always a fresh child (see runChild). Why
// each workload exists is in README.md and BENCHMARK.json.
type workload struct {
	name string
	rep  func(seed int64, tr *tracer) *repOut
}

var workloads = []*workload{
	{name: "now_rpc", rep: nowRep},
	{name: "hosted_rpc", rep: hostedRep},
	{name: "guest_suite", rep: guestRep},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// repOut is one repetition's measurements, shipped from the child to
// the parent as one JSON document.
type repOut struct {
	RefS    float64            // the reference kernel, timed first (see reference.go)
	RefSum  int64              // the reference kernel's checksum
	SetupS  []float64          // one entry per set-up repetition
	WallS   float64            // the timed traffic pass
	CellMs  []float64          // host ms per Cell.Run (guest) or per world (RPC)
	AllocB  uint64             // bytes allocated during the traffic pass
	Work    uint64             // simulated events (RPC) or cells (guest) in the pass
	Digest  string             // fold of every output digest, for traced-vs-untraced equality
	Table1  float64            // guest: table1_err_pct from the pass's own Table 1 cells
	Counts  map[string]float64 // per-layer counts from public results
	Tally   tally
	Spans   []span
	MaxRSSB int64 // filled in by the parent from the child's rusage
}

// norm converts a host time measured in this repetition to
// reference-host time (see reference.go).
func (o *repOut) norm(x float64) float64 { return x * refNominal.Seconds() / o.RefS }

const (
	// workers is the goroutine count every simulated world runs on (the
	// guest cells run serially): two workers measured slower than one
	// on a 2-core host.
	workers = 1
	// worldSeeds RPC world seeds, 1..worldSeeds, carry pinned digests;
	// --seed maps onto them (see worldSeed).
	worldSeeds = 16
	// emptyWindow is the shortest arrival window the scale API accepts:
	// only each tenant's primed first arrival is issued.
	emptyWindow = sim.Time(1)
	setupReps   = 3  // RPC world builds timed per repetition
	expandReps  = 20 // guest cell expansions timed per repetition
)

// worldSeed maps the benchmark seed onto the pinned RPC world seeds,
// so that seed 1 is world seed 1 (BENCH_scale.json's world).
func worldSeed(seed int64) uint64 {
	m := (seed - 1) % worldSeeds
	if m < 0 {
		m += worldSeeds
	}
	return uint64(m) + 1
}

// nowParams is `make baseline-scale`'s world: 1000 nodes, 4 shards,
// 55,000 RPC/s per node, 2 tenants, 64 B requests, 10 ms window.
func nowParams(ws uint64) exp.Params {
	return exp.Params{Nodes: 1000, Shards: 4, Arrival: 55000, Tenants: 2, ScaleBytes: 64, ScaleDur: 10 * sim.Millisecond, ScaleSeed: ws}
}

// hostedParams is the hosted-machine world: 256 nodes, 4 shards, 5,000
// RPC/s per node, 2 tenants, 64 B requests, 10 ms window, with the
// scalemachine experiment's rack latency matrix.
func hostedParams(ws uint64) exp.Params {
	return exp.Params{Nodes: 256, Shards: 4, Arrival: 5000, Tenants: 2, ScaleBytes: 64, ScaleDur: 10 * sim.Millisecond, ScaleSeed: ws}
}

// hostedProtocols are the paper's four protocols, kernel first.
var hostedProtocols = []string{"kernel", "extshadow", "keybased", "repeated"}

func empty(p exp.Params) exp.Params {
	p.ScaleDur = emptyWindow
	return p
}

func hex(v uint64) string { return fmt.Sprintf("%016x", v) }

// timedAlloc runs fn and returns its host duration and the bytes it
// allocated.
func timedAlloc(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	return d, after.TotalAlloc - before.TotalAlloc
}

// checkWorld judges one RPC world against its pin. Every issued RPC is
// an operation; all of them fail when the digests differ from the pin
// (or no pin exists), otherwise the ones never completed fail.
func checkWorld(what string, issued, completed uint64, got, want []string) tally {
	var t tally
	n := int64(issued)
	switch {
	case len(want) == 0:
		t.add(n, n, what+": no pinned digest")
	case fmt.Sprint(got) != fmt.Sprint(want):
		t.add(n, n, fmt.Sprintf("%s: digest %v, pinned %v", what, got, want))
	case completed != issued:
		t.add(n, n-int64(completed), fmt.Sprintf("%s: %d of %d RPCs completed", what, completed, issued))
	default:
		t.add(n, 0, "")
	}
	return t
}

func nowRep(seed int64, tr *tracer) *repOut {
	ws := worldSeed(seed)
	pin := pins.NowRPC[fmt.Sprint(ws)]
	out := &repOut{Counts: map[string]float64{}}
	for i := 0; i < setupReps; i++ {
		tr.begin("exp.RunScale/setup")
		t := time.Now()
		pt, err := exp.RunScale(empty(nowParams(ws)), workers)
		out.SetupS = append(out.SetupS, time.Since(t).Seconds())
		tr.end()
		if err != nil {
			out.Tally.add(1, 1, "setup world: "+err.Error())
			continue
		}
		out.Tally.merge(checkWorld("setup world", pt.Issued, pt.Completed, []string{hex(pt.Fingerprint)}, pin.setup()))
	}
	var pt exp.ScalePoint
	var err error
	tr.begin("exp.RunScale")
	d, alloc := timedAlloc(func() { pt, err = exp.RunScale(nowParams(ws), workers) })
	tr.end()
	out.WallS, out.AllocB = d.Seconds(), alloc
	out.CellMs = []float64{float64(d.Nanoseconds()) / 1e6}
	if err != nil {
		out.Tally.add(pin.expected(), pin.expected(), "world: "+err.Error())
		return out
	}
	want := pin.traffic()
	if ws == 1 {
		// Seed 1 is the repository's own pinned world.
		if fp, err := benchScaleFingerprint(); err != nil {
			out.Tally.add(0, int64(pt.Issued), err.Error())
		} else {
			want = []string{fp}
		}
	}
	out.Tally.merge(checkWorld(fmt.Sprintf("world seed %d", ws), pt.Issued, pt.Completed, []string{hex(pt.Fingerprint)}, want))
	out.Work = pt.Events
	out.Digest = hex(pt.Fingerprint)
	scaleCounts(out.Counts, pt)
	return out
}

// scaleCounts adds one world's fabric counts.
func scaleCounts(c map[string]float64, pt exp.ScalePoint) {
	c["sim.events"] += float64(pt.Events)
	c["net.windows"] += float64(pt.Windows)
	c["net.deliveries"] += float64(pt.Deliveries)
	c["net.events_per_window"] = ratio(c["sim.events"], c["net.windows"])
}

func hostedRep(seed int64, tr *tracer) *repOut {
	ws := worldSeed(seed)
	pinned := pins.HostedRPC[fmt.Sprint(ws)]
	out := &repOut{Counts: map[string]float64{}}
	for i := 0; i < setupReps; i++ {
		tr.begin("hosted.setup")
		t := time.Now()
		for _, proto := range hostedProtocols {
			tr.begin("exp.RunScaleMachineNamed/setup/" + proto)
			pt, err := exp.RunScaleMachineNamed(proto, empty(hostedParams(ws)), workers)
			tr.end()
			if err != nil {
				out.Tally.add(1, 1, proto+" setup world: "+err.Error())
				continue
			}
			out.Tally.merge(checkWorld(proto+" setup world", pt.Issued, pt.Completed,
				[]string{hex(pt.Fingerprint), hex(pt.MachineDigest)}, pinned[proto].setup()))
		}
		out.SetupS = append(out.SetupS, time.Since(t).Seconds())
		tr.end()
	}
	pts := make([]exp.ScaleMachinePoint, len(hostedProtocols))
	var total time.Duration
	var alloc uint64
	h := fnv.New64a()
	for i, proto := range hostedProtocols {
		pin := pinned[proto]
		var err error
		tr.begin("exp.RunScaleMachineNamed/" + proto)
		d, a := timedAlloc(func() { pts[i], err = exp.RunScaleMachineNamed(proto, hostedParams(ws), workers) })
		tr.end()
		total += d
		alloc += a
		out.CellMs = append(out.CellMs, float64(d.Nanoseconds())/1e6)
		if err != nil {
			out.Tally.add(pin.expected(), pin.expected(), proto+": "+err.Error())
			continue
		}
		pt := pts[i]
		got := []string{hex(pt.Fingerprint), hex(pt.MachineDigest)}
		out.Tally.merge(checkWorld(fmt.Sprintf("%s world seed %d", proto, ws), pt.Issued, pt.Completed, got, pin.traffic()))
		fmt.Fprint(h, got)
		out.Work += pt.Events
		scaleCounts(out.Counts, pt.ScalePoint)
		out.Counts["dma.started"] += float64(pt.EngStarted)
		out.Counts["dma.rejected"] += float64(pt.EngRejected)
	}
	out.WallS, out.AllocB = total.Seconds(), alloc
	out.Digest = hex(h.Sum64())
	out.Counts["dma.reject_ratio"] = ratio(out.Counts["dma.rejected"], out.Counts["dma.started"]+out.Counts["dma.rejected"])
	// The paper's ordering: the kernel trap makes kernel-level RPCs the
	// slowest at the median.
	for _, pt := range pts[1:] {
		if pts[0].P50 <= pt.P50 {
			out.Tally.add(0, int64(pts[0].Issued), fmt.Sprintf("kernel p50 %v not above %s p50 %v", pts[0].P50, pt.Protocol, pt.P50))
		}
	}
	return out
}

// guestEntry is one registry experiment at report's parameters.
type guestEntry struct {
	exp   string
	label string // distinguishes several parameter sets of one experiment
	p     exp.Params
}

// guestSuite lists the experiments `report -ring -va` renders, with the
// parameters report passes them, plus oslat at the same iteration
// count. The Params grid is the only input; Procs is 1 because the
// benchmark runs and times each Cell itself.
func guestSuite() []guestEntry {
	timing := exp.Params{Iters: 1000, Procs: 1}
	fault := exp.Params{Msgs: 24, Seeds: 4, Slots: 4, Procs: 1}
	s := []guestEntry{
		{exp: "table1", p: timing},
		{exp: "comparators", p: timing},
		{exp: "bussweep", p: timing},
		{exp: "breakeven", p: timing},
		{exp: "contention", p: timing},
		{exp: "ringdepth", p: timing},
		{exp: "ringchurn", p: timing},
		{exp: "vasweep", p: timing},
		{exp: "paging", p: timing},
		{exp: "trend", p: exp.Params{Iters: 200, Procs: 1}}, // report's trendIters(1000)
		{exp: "oslat", p: timing},
	}
	for slots := 1; slots <= 5; slots++ {
		s = append(s, guestEntry{exp: "exhaustive", label: fmt.Sprintf("slots%d", slots), p: exp.Params{Slots: slots, Procs: 1}})
	}
	s = append(s,
		guestEntry{exp: "campaign", p: exp.Params{Seeds: 40, Procs: 1}},
		guestEntry{exp: "faultsweep", p: fault},
		guestEntry{exp: "recovery", p: fault},
		guestEntry{exp: "faultsearch", p: fault},
	)
	return s
}

// guestExperiments is the suite's experiment names, in suite order.
func guestExperiments() []string {
	var names []string
	seen := map[string]bool{}
	for _, e := range guestSuite() {
		if !seen[e.exp] {
			seen[e.exp] = true
			names = append(names, e.exp)
		}
	}
	return names
}

type guestCell struct {
	key  string // "<experiment>[.<label>]/<cell index>": the pin key
	exp  string
	cell exp.Cell
}

// expandGuest expands every suite entry into its cells, in suite order.
func expandGuest() ([]guestCell, error) {
	var cells []guestCell
	for _, e := range guestSuite() {
		spec, ok := exp.Lookup(e.exp)
		if !ok {
			return nil, fmt.Errorf("experiment %q not registered", e.exp)
		}
		cs, err := spec.Cells(e.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.exp, err)
		}
		prefix := e.exp
		if e.label != "" {
			prefix += "." + e.label
		}
		for i, c := range cs {
			cells = append(cells, guestCell{key: fmt.Sprintf("%s/%d", prefix, i), exp: e.exp, cell: c})
		}
	}
	return cells, nil
}

// cellDigest digests one cell's complete observation, stop flag and
// error text.
func cellDigest(obs exp.Obs, stop bool, err error) string {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	b, jerr := json.Marshal(struct {
		Obs  exp.Obs
		Stop bool
		Err  string
	}{obs, stop, msg})
	if jerr != nil {
		return "unencodable: " + jerr.Error()
	}
	h := fnv.New64a()
	h.Write(b)
	return hex(h.Sum64())
}

// checkCell judges one cell: it fails on an error or on a digest that
// differs from its pin.
func checkCell(key, got string, err error) tally {
	var t tally
	want, ok := pins.Guest[key]
	switch {
	case err != nil:
		t.add(1, 1, key+": "+err.Error())
	case !ok:
		t.add(1, 1, key+": no pinned digest")
	case got != want:
		t.add(1, 1, fmt.Sprintf("%s: digest %s, pinned %s", key, got, want))
	default:
		t.add(1, 0, "")
	}
	return t
}

type cellRun struct {
	obs  exp.Obs
	stop bool
	err  error
}

func guestRep(seed int64, tr *tracer) *repOut {
	out := &repOut{Counts: map[string]float64{}}
	var cells []guestCell
	var err error
	for i := 0; i < expandReps; i++ {
		tr.begin("exp.Experiment.Cells")
		t := time.Now()
		cells, err = expandGuest()
		out.SetupS = append(out.SetupS, time.Since(t).Seconds())
		tr.end()
		if err != nil {
			out.Tally.add(1, 1, "expand: "+err.Error())
			return out
		}
	}
	// The seed permutes the cell order: cells share no state, so every
	// order must reproduce every pinned digest.
	order := rand.New(rand.NewSource(seed)).Perm(len(cells))
	runs := make([]cellRun, len(cells))
	out.CellMs = make([]float64, 0, len(cells))
	ff0 := userdma.FastForwardEngagements()
	tr.begin("guest_suite.pass")
	d, alloc := timedAlloc(func() {
		for _, i := range order {
			c := cells[i]
			tr.begin("exp.Cell.Run/" + c.exp)
			t := time.Now()
			obs, stop, err := c.cell.Run()
			out.CellMs = append(out.CellMs, float64(time.Since(t).Nanoseconds())/1e6)
			tr.end()
			runs[i] = cellRun{obs, stop, err}
		}
	})
	tr.end()
	out.WallS, out.AllocB, out.Work = d.Seconds(), alloc, uint64(len(cells))
	ff := float64(userdma.FastForwardEngagements() - ff0)

	h := fnv.New64a()
	var table1 []userdma.InitiationResult
	var loops, hits, misses, churnDrop, churnBells, retrans, msgs float64
	failedCells := 0
	c := out.Counts
	for i, cl := range cells {
		r := runs[i]
		dg := cellDigest(r.obs, r.stop, r.err)
		h.Write([]byte(dg))
		t := checkCell(cl.key, dg, r.err)
		if t.Failed > 0 {
			failedCells++
		}
		out.Tally.merge(t)
		o := r.obs
		if cl.exp == "table1" {
			table1 = append(table1, o.Inits...)
		}
		// Timing loops are the MeasureMethod / MeasureVAMethod calls, the
		// only loops that can fast-forward: one per Inits row (contention
		// rows come from a different loop), two per vasweep comparison
		// row, one per ringdepth depth-0 baseline.
		if cl.exp != "contention" {
			loops += float64(len(o.Inits))
		}
		loops += 2 * float64(len(o.VACmp))
		for _, rp := range o.Ring {
			if rp.Depth == 0 {
				loops++
			}
		}
		for _, p := range o.IOTLB {
			hits += float64(p.Hits)
			misses += float64(p.Misses)
		}
		for _, p := range o.Paging {
			c["kernel.page_faults"] += float64(p.Faults)
			c["kernel.evictions"] += float64(p.Evictions)
		}
		for _, p := range o.Churn {
			churnDrop += float64(p.Dropped)
			churnBells += float64(p.Doorbells)
		}
		for _, p := range o.Fault {
			retrans += float64(p.Retransmits)
			msgs += float64(p.Msgs)
		}
	}
	out.Digest = hex(h.Sum64())
	c["core.ff_engaged"] = ff
	c["core.ff_ratio"] = ratio(ff, loops)
	c["iommu.iotlb_hit_ratio"] = ratio(hits, hits+misses)
	c["dma.ring_drop_ratio"] = ratio(churnDrop, churnDrop+churnBells)
	c["msg.retransmit_ratio"] = ratio(retrans, msgs)
	c["exp.cells"] = float64(len(cells))
	c["exp.cells_failed"] = float64(failedCells)

	pct, err := table1ErrPct(table1)
	if err != nil {
		out.Tally.add(0, 1, err.Error())
	}
	out.Table1 = pct
	if err := checkTable1(table1); err != nil {
		out.Tally.add(0, int64(len(table1)), err.Error())
	}
	return out
}

// repoRoot is where BENCH_*.json live; set by -repo.
var repoRoot = "."

func readRepoJSON(name string, v any) error {
	b, err := os.ReadFile(filepath.Join(repoRoot, name))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// benchScaleFingerprint returns the fingerprint BENCH_scale.json pins
// for now_rpc's world at seed 1.
func benchScaleFingerprint() (string, error) {
	var doc struct {
		Scale []struct {
			Nodes, Shards, Arrival, Tenants int
			Bytes                           uint64
			DurPs                           int64
			Fingerprint                     string
		}
	}
	if err := readRepoJSON("BENCH_scale.json", &doc); err != nil {
		return "", err
	}
	p := nowParams(1)
	for _, s := range doc.Scale {
		if s.Nodes == p.Nodes && s.Shards == p.Shards && s.Arrival == p.Arrival &&
			s.Tenants == p.Tenants && s.Bytes == p.ScaleBytes && s.DurPs == int64(p.ScaleDur) {
			return s.Fingerprint, nil
		}
	}
	return "", fmt.Errorf("BENCH_scale.json pins no world with now_rpc's parameters")
}

// checkTable1 requires the Table 1 rows to encode byte-for-byte as
// BENCH_baseline.json's Table1.
func checkTable1(rows []userdma.InitiationResult) error {
	var doc struct{ Table1 []exp.InitiationRow }
	if err := readRepoJSON("BENCH_baseline.json", &doc); err != nil {
		return err
	}
	want, _ := json.Marshal(doc.Table1)
	got, _ := json.Marshal(exp.InitRows(rows))
	if !bytes.Equal(got, want) {
		return fmt.Errorf("table 1 differs from BENCH_baseline.json:\n got  %s\n want %s", got, want)
	}
	return nil
}
