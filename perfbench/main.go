// Command perfbench is the repository's host-performance benchmark: it
// times the simulator itself, end to end on three workloads and layer
// by layer, and checks every simulated output against pinned values.
//
//	perfbench -workload now_rpc|hosted_rpc|guest_suite|all -seed N -seconds S -trace 0|1
//
// The parent process measures nothing itself: it runs one fresh child
// process per repetition until S seconds have passed, so every
// repetition pays cold caches and template pools as a tool invocation
// does, and its peak RSS is read from the child's rusage. Each child
// times the reference kernel first, and the end-to-end timings are
// scaled by it (reference.go). With -trace 0 it prints the end-to-end
// metrics; with -trace 1 it alternates untraced and span-recording
// repetitions, runs the layer probes, and prints the per-layer
// metrics. The last line of standard output is always one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md for
// every metric's meaning.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"uldma/internal/exp"
)

const (
	minReps      = 3
	hardCap      = 100 * time.Second // stop starting repetitions after this, whatever -seconds says
	childTimeout = 60 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var cfg config
	var traceFlag, rep int
	var child, pin bool
	flag.StringVar(&cfg.workload, "workload", "", "now_rpc, hosted_rpc, guest_suite, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "seconds of repetitions to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&repoRoot, "repo", ".", "repository root (holds BENCH_*.json)")
	flag.StringVar(&cfg.out, "out", "", "directory for result and span files (empty: none)")
	flag.BoolVar(&child, "child", false, "internal: run one repetition and print it as JSON")
	flag.IntVar(&rep, "rep", 0, "internal: repetition index of a -child run")
	flag.BoolVar(&pin, "pin", false, "recompute pins.json on this commit (deliberate model changes only)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case pin:
		if err := writePins(); err != nil {
			fatal(err)
		}
	case child:
		if err := runChildRep(cfg, rep); err != nil {
			fatal(err)
		}
	case cfg.workload == "all":
		runAll(cfg)
	default:
		w := lookupWorkload(cfg.workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (want now_rpc, hosted_rpc, guest_suite or all)", cfg.workload))
		}
		res := measure(w, cfg)
		res.print(os.Stdout)
		res.save(cfg)
		emit(res.summary())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// summary is the last line every run prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func emit(s summary) {
	b, err := json.Marshal(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// runChildRep is a child process's whole life: one repetition of the
// workload (or the layer probes), written to stdout as JSON.
func runChildRep(cfg config, rep int) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s/seed%d/rep%d", cfg.workload, cfg.seed, rep))
	}
	var out *repOut
	if cfg.workload == "probes" {
		tr = newTracer(fmt.Sprintf("probes/seed%d", cfg.seed))
		tr.begin("probes")
		ms, err := runProbes(tr)
		tr.end()
		if err != nil {
			return err
		}
		out = &repOut{Counts: ms}
	} else {
		w := lookupWorkload(cfg.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		tr.begin("reference")
		ref, sum := reference()
		tr.end()
		tr.begin(w.name) // the repetition: root of every span below
		out = w.rep(cfg.seed, tr)
		tr.end()
		out.RefS, out.RefSum = ref.Seconds(), sum
	}
	if tr != nil {
		out.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runChild runs one repetition in a fresh process and returns its
// result with the child's peak RSS.
func runChild(workload string, seed int64, rep int, traced bool) (*repOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-rep", strconv.Itoa(rep), "-trace", t, "-repo", repoRoot)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output() // waits for the child, killed at the timeout
	if err != nil {
		return nil, fmt.Errorf("%s repetition %d: %w", workload, rep, err)
	}
	var out repOut
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s repetition %d: %w", workload, rep, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.MaxRSSB = ru.Maxrss * 1024 // Linux reports KiB
	}
	return &out, nil
}

// stamp identifies the host a result came from, so trajectories from
// different hosts are never mixed.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
}

func hostStamp() stamp {
	return stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Workers: min(workers, runtime.NumCPU())}
}

// result is one workload run: its repetitions, checks and metrics.
type result struct {
	w        *workload
	seed     int64
	trace    bool
	stamp    stamp
	plain    []*repOut
	traced   []*repOut
	probes   *repOut
	tally    tally
	metrics  map[string]metric
	info     []string // extra text lines: sample counts, percentiles, problems
	allSpans []span
	// sameDigests reports that every repetition, traced or not,
	// produced the first repetition's output digest.
	sameDigests bool
}

func (r *result) fail(why string) { r.tally.add(1, 1, why) }

func measure(w *workload, cfg config) *result {
	r := &result{w: w, seed: cfg.seed, trace: cfg.trace, stamp: hostStamp(), metrics: map[string]metric{}}
	start := time.Now()
	limit := time.Duration(cfg.seconds) * time.Second
	for rep := 0; ; rep++ {
		traced := cfg.trace && rep%2 == 1
		out, err := runChild(w.name, cfg.seed, rep, traced)
		if err != nil {
			r.tally.add(1, 1, err.Error())
		} else if traced {
			r.traced = append(r.traced, out)
		} else {
			r.plain = append(r.plain, out)
		}
		elapsed := time.Since(start)
		enough := len(r.plain) >= minReps && (!cfg.trace || len(r.traced) >= minReps)
		if (elapsed >= limit && enough) || elapsed >= hardCap || (err != nil && rep >= 2*minReps) {
			break
		}
	}
	if len(r.plain) == 0 {
		r.fail("no repetition completed")
		return r
	}
	r.sameDigests = true
	for _, o := range append(append([]*repOut(nil), r.plain...), r.traced...) {
		r.tally.merge(o.Tally)
		if o.Digest != r.plain[0].Digest {
			r.sameDigests = false
			r.fail(fmt.Sprintf("output digest %s differs from the first repetition's %s", o.Digest, r.plain[0].Digest))
		}
		if fmt.Sprint(o.Counts) != fmt.Sprint(r.plain[0].Counts) {
			r.fail("per-layer counts differ between repetitions")
		}
		if o.RefSum != r.plain[0].RefSum || o.RefS <= 0 {
			r.fail("reference kernel result differs between repetitions")
		}
	}
	if cfg.trace {
		probes, err := runChild("probes", cfg.seed, 0, true)
		if err != nil {
			r.fail(err.Error())
		} else {
			r.probes = probes
		}
		r.layerMetrics()
	} else {
		r.endToEnd()
	}
	return r
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) infof(format string, a ...any) { r.info = append(r.info, fmt.Sprintf(format, a...)) }

func collect(reps []*repOut, f func(*repOut) float64) []float64 {
	var xs []float64
	for _, o := range reps {
		xs = append(xs, f(o))
	}
	return xs
}

// endToEnd computes the end-to-end metrics from the untraced
// repetitions: each repetition's timings in reference-host seconds,
// then medians over repetitions.
func (r *result) endToEnd() {
	reps := r.plain
	wall := median(collect(reps, func(o *repOut) float64 { return o.norm(o.WallS) }))
	r.set("wall_s", wall, "s")
	r.set("setup_s", median(collect(reps, func(o *repOut) float64 { return o.norm(median(o.SetupS)) })), "s")
	r.set("events_per_s", median(collect(reps, func(o *repOut) float64 { return float64(o.Work) / o.norm(o.WallS) })), "1/s")
	// Cell percentiles are taken per repetition, so the percentile the
	// tail rule picks does not depend on how many repetitions fit.
	r.set("cell_ms_p50", median(collect(reps, func(o *repOut) float64 { return o.norm(median(o.CellMs)) })), "ms")
	r.set("cell_ms_p99", median(collect(reps, func(o *repOut) float64 { _, v := tail(o.CellMs); return o.norm(v) })), "ms")
	pct, _ := tail(reps[0].CellMs)
	r.infof("cell_ms: %d samples per repetition; cell_ms_p99 reports p%.2f", len(reps[0].CellMs), pct)
	r.set("alloc_mb", median(collect(reps, func(o *repOut) float64 { return float64(o.AllocB) / 1e6 })), "MB")
	r.set("max_rss_mb", median(collect(reps, func(o *repOut) float64 { return float64(o.MaxRSSB) / 1e6 })), "MB")

	t1 := reps[0].Table1
	if r.w.name != "guest_suite" {
		// The RPC workloads run no Table 1 of their own; compute it once,
		// untimed, after every repetition has finished.
		rows, err := exp.Table1(1000, 1)
		if err == nil {
			t1, err = table1ErrPct(rows)
		}
		if err == nil {
			err = checkTable1(rows)
		}
		if err != nil {
			r.tally.add(1, 1, err.Error())
		} else {
			r.tally.add(1, 0, "")
		}
	}
	r.set("table1_err_pct", t1, "%")
	r.infof("output digest %s", reps[0].Digest)
	r.infof("table1_err_pct is calibration error: DESIGN §6 fits the model's constants to Table 1 itself")
	refMs := median(collect(reps, func(o *repOut) float64 { return 1e3 * o.RefS }))
	r.infof("timings are reference-host seconds: measured × %v / reference kernel (median %.2f ms here); measured wall_s median %.4f s",
		refNominal, refMs, median(collect(reps, func(o *repOut) float64 { return o.WallS })))
	r.infof("repetitions: %d; measured wall_s per repetition: %s", len(reps), fmtList(collect(reps, func(o *repOut) float64 { return o.WallS })))
}

// layerMetrics computes the per-layer metrics: exact counts from the
// first repetition, host time from the traced repetitions' spans and
// the probes, and the tracing overhead.
func (r *result) layerMetrics() {
	for k, v := range r.plain[0].Counts {
		r.set(k, v, countUnit(k))
	}
	for _, k := range layerCountNames {
		if _, ok := r.metrics[k]; !ok {
			r.set(k, 0, countUnit(k)) // a layer this workload does not reach
		}
	}
	for _, name := range guestExperiments() {
		var perRep []float64
		for _, o := range r.traced {
			var sum float64
			var n int
			for _, s := range o.Spans {
				if s.Name == "exp.Cell.Run/"+name {
					sum += float64(s.dur()) / 1e6
					n++
				}
			}
			if n > 0 {
				perRep = append(perRep, sum/float64(n))
			}
		}
		v := 0.0
		if len(perRep) > 0 {
			v = median(perRep)
		}
		r.set("exp.cell_ms."+name, v, "ms")
	}
	if r.probes != nil {
		for k, v := range r.probes.Counts {
			r.set(k, v, probeUnit(k))
		}
	}
	r.set("host.ref_ms", median(collect(r.plain, func(o *repOut) float64 { return 1e3 * o.RefS })), "ms")
	r.set("host.measured_wall_s", median(collect(r.plain, func(o *repOut) float64 { return o.WallS })), "s")
	if len(r.traced) > 0 {
		plain := median(collect(r.plain, func(o *repOut) float64 { return o.norm(o.WallS) }))
		traced := median(collect(r.traced, func(o *repOut) float64 { return o.norm(o.WallS) }))
		r.set("trace_overhead_pct", 100*(traced/plain-1), "%")
		r.infof("tracing: %d untraced and %d traced repetitions; digests equal: %v", len(r.plain), len(r.traced), r.sameDigests)
	}
	for _, o := range r.traced {
		r.addSpans(o.Spans)
	}
	if r.probes != nil {
		r.addSpans(r.probes.Spans)
	}
}

// addSpans appends one process's spans, re-basing parent links.
func (r *result) addSpans(spans []span) {
	base := len(r.allSpans)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.allSpans = append(r.allSpans, s)
	}
}

// layerCountNames are the count metrics every traced run reports, 0
// where the workload does not reach the layer.
var layerCountNames = []string{
	"sim.events", "net.windows", "net.deliveries", "net.events_per_window",
	"dma.started", "dma.rejected", "dma.reject_ratio",
	"core.ff_engaged", "core.ff_ratio",
	"iommu.iotlb_hit_ratio", "kernel.page_faults", "kernel.evictions", "dma.ring_drop_ratio",
	"msg.retransmit_ratio", "exp.cells", "exp.cells_failed",
}

func countUnit(name string) string {
	switch name {
	case "net.events_per_window":
		return "1/window"
	case "dma.reject_ratio", "core.ff_ratio", "iommu.iotlb_hit_ratio", "dma.ring_drop_ratio", "msg.retransmit_ratio":
		return "ratio"
	}
	return "count"
}

func probeUnit(name string) string {
	if name == "machine.clone_us" {
		return "us"
	}
	return "ns"
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'f', 4, 64)
	}
	return s
}

func (r *result) summary() summary {
	t := r.tally
	if t.Failed > t.Attempted {
		t.Failed = t.Attempted
	}
	return summary{Correct: r.tally.Failed == 0, Attempted: max(t.Attempted, 1), Failed: t.Failed, Metrics: r.metrics}
}

// print writes the human-readable part of the output: the host stamp,
// every metric with its unit, and any failed check.
func (r *result) print(f *os.File) {
	s := r.stamp
	fmt.Fprintf(f, "perfbench %s seed=%d world_seed=%d trace=%v | nproc=%d GOMAXPROCS=%d %s workers=%d\n",
		r.w.name, r.seed, worldSeed(r.seed), r.trace, s.NProc, s.GOMAXPROCS, s.GoVersion, s.Workers)
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		fmt.Fprintf(f, "  %-32s %16.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "  %-32s %16.6g %s (%d of %d operations failed)\n", "error_rate", r.tally.errorRate(), "ratio", r.tally.Failed, r.tally.Attempted)
	for _, line := range r.info {
		fmt.Fprintln(f, "  #", line)
	}
	for i, p := range r.tally.Problems {
		if i == 20 {
			fmt.Fprintf(f, "  ! ... %d more\n", len(r.tally.Problems)-i)
			break
		}
		fmt.Fprintln(f, "  !", p)
	}
}

// save writes the result, host stamp and spans under cfg.out.
func (r *result) save(cfg config) {
	if cfg.out == "" {
		return
	}
	doc := struct {
		Workload  string    `json:"workload"`
		Seed      int64     `json:"seed"`
		WorldSeed uint64    `json:"world_seed"`
		Trace     bool      `json:"trace"`
		Host      stamp     `json:"host"`
		Summary   summary   `json:"summary"`
		ErrorRate float64   `json:"error_rate"`
		Problems  []string  `json:"problems"`
		WallS     []float64 `json:"wall_s_per_repetition"`
		RefS      []float64 `json:"reference_s_per_repetition"`
		Spans     []span    `json:"spans,omitempty"`
	}{r.w.name, r.seed, worldSeed(r.seed), r.trace, r.stamp, r.summary(), r.tally.errorRate(), r.tally.Problems,
		collect(r.plain, func(o *repOut) float64 { return o.WallS }), collect(r.plain, func(o *repOut) float64 { return o.RefS }), r.allSpans}
	b, err := json.Marshal(doc)
	if err == nil {
		err = os.MkdirAll(cfg.out, 0o755)
	}
	if err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", r.w.name, r.seed, map[bool]int{false: 0, true: 1}[r.trace])
		err = os.WriteFile(filepath.Join(cfg.out, name), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
}

// runAll runs every workload in turn and prints one combined summary
// whose metric names carry the workload as a prefix.
func runAll(cfg config) {
	all := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		c := cfg
		c.workload = w.name
		res := measure(w, c)
		res.print(os.Stdout)
		res.save(c)
		s := res.summary()
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	emit(all)
}
