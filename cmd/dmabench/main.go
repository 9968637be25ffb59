// Command dmabench regenerates the paper's Table 1 — "Comparison of DMA
// initiation algorithms" — on the calibrated Alpha 3000/300 +
// TurboChannel machine model, and optionally the bus-frequency sweep
// (experiment X4) and the register-context contention study.
//
// Usage:
//
//	dmabench [-iters N] [-sweep] [-contention] [-comparators] [-ring] [-ringchurn] [-va [-tlb E]] [-paging] [-steer] [-procs W] [-json]
//
// The default -iters 1000 matches the paper's measurement loop. Every
// section is one experiment from the internal/exp registry (-list
// enumerates them); independent measurement cells (one simulated
// machine each) run on -procs worker goroutines (default: GOMAXPROCS)
// with byte-identical output for any worker count. -json emits the raw
// numbers (simulated picoseconds) as one JSON document for snapshotting
// and regression comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/exp"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/stats"
	"uldma/internal/vm"
)

func main() {
	iters := flag.Int("iters", 1000, "DMA initiations per method (paper: 1000)")
	sweep := flag.Bool("sweep", false, "also run the bus-frequency sweep (X4)")
	contention := flag.Bool("contention", false, "also run the register-context contention study")
	comparators := flag.Bool("comparators", false, "also measure the comparator methods (SHRIMP, FLASH, PAL)")
	breakeven := flag.Bool("breakeven", false, "also run the initiation-vs-transfer break-even sweep (X6)")
	ring := flag.Bool("ring", false, "also run the descriptor-ring depth sweep (batched initiation)")
	ringchurn := flag.Bool("ringchurn", false, "also run the register-context churn study (ring processes vs contexts)")
	va := flag.Bool("va", false, "also run the virtual-address sweep (Table 1 through the IOMMU + IOTLB hit rate)")
	paging := flag.Bool("paging", false, "also run the device-paging study (recovery policies under oversubscription)")
	steer := flag.Bool("steer", false, "also run the steered sweeps (adaptive search replacing the exhaustive grids)")
	tlb := flag.Int("tlb", 0, "with -va: IOTLB entries for the hit-rate sweep (0 = 8)")
	traceFlag := flag.Bool("trace", false, "show the bus transactions of one initiation per method")
	trend := flag.Bool("trend", false, "also run the hardware-generation trend sweep (X7)")
	metrics := flag.Bool("metrics", false, "with -json: append the per-method observability registry snapshot (exact event counts)")
	procs := flag.Int("procs", 0, "worker goroutines for independent measurement cells (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit results as one JSON document (raw simulated picoseconds)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	flag.Parse()
	stop, err := exp.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmabench:", err)
		os.Exit(2)
	}
	defer stop()

	if *list {
		fmt.Print(exp.List())
		return
	}

	// The VA flags are validated before any simulation spins up, same
	// contract as clustersim's -scale frontend: nonsense dies with exit
	// status 2 and a flag-level message.
	if err := validateVA(*va, *paging, *tlb, *iters); err != nil {
		fmt.Fprintln(os.Stderr, "dmabench:", err)
		exp.Exit(2)
	}

	// With -steer the traced scenario becomes the search itself: the
	// decision track (probe/split/abort/accept) on a Perfetto timeline.
	if *steer && exp.TraceRequested() {
		exp.SetTraceScenario(exp.SteerTraceScenario)
	}

	if *jsonOut {
		if err := runJSON(*iters, *procs, *sweep, *comparators, *breakeven, *trend, *contention, *ring, *ringchurn, *va, *paging, *steer, *tlb, *metrics); err != nil {
			fmt.Fprintln(os.Stderr, "dmabench:", err)
			exp.Exit(1)
		}
		if err := exp.FlushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "dmabench:", err)
			exp.Exit(1)
		}
		return
	}

	if *trend {
		if err := section("trend", *iters, *procs); err != nil {
			fmt.Fprintln(os.Stderr, "dmabench:", err)
			exp.Exit(1)
		}
	}

	if *traceFlag {
		if err := runTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "dmabench:", err)
			exp.Exit(1)
		}
	}
	if err := run(*iters, *procs, *sweep, *contention, *comparators, *breakeven, *ring, *ringchurn, *va, *paging, *steer, *tlb); err != nil {
		fmt.Fprintln(os.Stderr, "dmabench:", err)
		exp.Exit(1)
	}
	if err := exp.FlushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "dmabench:", err)
		exp.Exit(1)
	}
}

// validateVA rejects flag combinations the virtual-address sections
// cannot run, before any machine is built.
func validateVA(va, paging bool, tlb, iters int) error {
	if tlb < 0 {
		return fmt.Errorf("-tlb %d: the IOTLB needs at least one entry", tlb)
	}
	if tlb != 0 && !va {
		return fmt.Errorf("-tlb sizes the vasweep IOTLB and needs -va")
	}
	if va && iters < 1 {
		return fmt.Errorf("-iters %d: -va needs at least one initiation per cell", iters)
	}
	_ = paging // no knobs yet; the grid is fixed by the experiment spec
	return nil
}

// section runs one registry experiment and prints its text rendering.
func section(name string, iters, procs int) error {
	s, err := exp.Report(name, exp.Text, exp.Params{Iters: iters, Procs: procs})
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

// benchJSON is the one JSON document -json emits: raw sim.Time values
// (picoseconds of simulated time), exact integers suitable for
// byte-for-byte regression comparison across code changes.
type benchJSON struct {
	Machine     string
	Iters       int
	Table1      []exp.InitiationRow
	Comparators []exp.InitiationRow            `json:",omitempty"`
	BusSweep    map[string][]exp.InitiationRow `json:",omitempty"`
	BreakEven   map[string][]exp.BreakEvenRow  `json:",omitempty"`
	Trend       []exp.TrendRow                 `json:",omitempty"`
	Contention  []exp.InitiationRow            `json:",omitempty"`
	Ring        []exp.RingRow                  `json:",omitempty"`
	RingChurn   []exp.ChurnRow                 `json:",omitempty"`
	VASweep     []exp.VARow                    `json:",omitempty"`
	IOTLB       []exp.IOTLBRow                 `json:",omitempty"`
	Paging      []exp.PagingRow                `json:",omitempty"`
	// Steer (-steer) is the steered-sweep scoreboard: per search, the
	// probed-vs-grid cell counts and the verdict the adaptive policy
	// landed on (see BENCH_steer.json / `make baseline-steer`).
	Steer []exp.SteerRow `json:",omitempty"`
	// Metrics (-metrics) is the per-method observability registry
	// snapshot after a fixed initiation burst: exact event counts, so
	// benchdiff flags any behavioural change even when timings agree.
	Metrics map[string][]obs.MetricValue `json:",omitempty"`
}

// runJSON gathers every requested section and emits one JSON document.
func runJSON(iters, procs int, sweep, comparators, breakeven, trend, contention, ring, ringchurn, va, paging, steer bool, tlb int, metrics bool) error {
	doc := benchJSON{Machine: exp.MachineName(), Iters: iters}

	t1, err := exp.Table1(iters, procs)
	if err != nil {
		return err
	}
	doc.Table1 = exp.InitRows(t1)
	if comparators {
		rs, err := exp.Comparators(iters, procs, exp.ComparatorMethods()[:4])
		if err != nil {
			return err
		}
		doc.Comparators = exp.InitRows(rs)
	}
	if sweep {
		groups, err := exp.BusSweep(iters, procs)
		if err != nil {
			return err
		}
		doc.BusSweep = exp.BusSweepJSON(groups)
	}
	if breakeven {
		groups, err := exp.BreakEven(procs)
		if err != nil {
			return err
		}
		doc.BreakEven = exp.BreakEvenJSON(groups)
	}
	if trend {
		pts, err := exp.TrendSweep(iters, procs)
		if err != nil {
			return err
		}
		doc.Trend = exp.TrendRows(pts)
	}
	if contention {
		rs, err := exp.Contention(iters, procs)
		if err != nil {
			return err
		}
		doc.Contention = exp.InitRows(rs)
	}
	if ring {
		r, err := exp.RunNamed("ringdepth", exp.Params{Iters: iters, Procs: procs})
		if err != nil {
			return err
		}
		doc.Ring = exp.RingRows(r)
	}
	if ringchurn {
		r, err := exp.RunNamed("ringchurn", exp.Params{Procs: procs})
		if err != nil {
			return err
		}
		doc.RingChurn = exp.ChurnRows(r)
	}
	if va {
		r, err := exp.RunNamed("vasweep", exp.Params{Iters: iters, Procs: procs, TLB: tlb})
		if err != nil {
			return err
		}
		doc.VASweep = exp.VARows(r)
		doc.IOTLB = exp.IOTLBRows(r)
	}
	if paging {
		r, err := exp.RunNamed("paging", exp.Params{Procs: procs})
		if err != nil {
			return err
		}
		doc.Paging = exp.PagingRows(r)
	}
	if steer {
		s, err := exp.RunSteerSuite(exp.Params{Iters: iters, Procs: procs}, nil)
		if err != nil {
			return err
		}
		doc.Steer = s.SteerRows()
	}
	if metrics {
		mv, err := exp.MetricsSnapshot(iters)
		if err != nil {
			return err
		}
		doc.Metrics = mv
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runTrace prints the wire-level view of one initiation per Table 1
// method: every bus transaction the DMA call issued, in order, with the
// engine window it decoded to.
func runTrace() error {
	for _, method := range userdma.AllMethods() {
		m := userdma.Machine(method)
		cfg := m.Engine.Config()
		var out strings.Builder
		record := func(op string, addr phys.Addr, _ phys.AccessSize, val uint64) {
			win := cfg.WindowOf(addr)
			if win == "" {
				win = "-"
			}
			fmt.Fprintf(&out, "%-10v %-5s %-8s %v = %#x\n", m.Clock.Now(), op, win, addr, val)
		}

		var h *userdma.Handle
		p := m.NewProcess("traced", func(c *proc.Context) error {
			m.Bus.SetTrace(record)
			_, err := h.DMA(c, 0x10000, 0x20000, 64)
			m.Bus.SetTrace(nil)
			return err
		})
		var err error
		if h, err = method.Attach(m, p); err != nil {
			return err
		}
		if _, err := m.SetupPages(p, 0x10000, 1, vm.Read|vm.Write); err != nil {
			return err
		}
		dstFrames, err := m.SetupPages(p, 0x20000, 1, vm.Read|vm.Write)
		if err != nil {
			return err
		}
		if s1, ok := method.(userdma.SHRIMP1); ok {
			if err := s1.MapOutPage(m, p, 0x10000, dstFrames[0]); err != nil {
				return err
			}
		}
		if err := m.Run(proc.NewRoundRobin(64), 100_000); err != nil {
			return err
		}
		if p.Err() != nil {
			return fmt.Errorf("%s: %w", method.Name(), p.Err())
		}
		fmt.Printf("%s — bus transactions of one DMA(src, dst, 64):\n", method.Name())
		if out.Len() == 0 {
			out.WriteString("  (no bus traffic: the initiation ran inside the kernel/PAL call below)\n")
		}
		fmt.Print(out.String())
		fmt.Println()
	}
	return nil
}

func run(iters, procs int, sweep, contention, comparators, breakeven, ring, ringchurn, va, paging, steer bool, tlb int) error {
	infos, err := userdma.Overview()
	if err != nil {
		return err
	}
	ov := stats.NewTable("method", "engine mode", "user accesses", "instructions", "kernel mod?", "user poll?")
	for _, i := range infos {
		accesses := "-"
		if i.UserAccesses > 0 {
			accesses = fmt.Sprintf("%d", i.UserAccesses)
		}
		ov.AddRow(i.Name, i.EngineMode, accesses, i.Instructions, i.KernelMod, i.Polls)
	}
	fmt.Println("Initiation methods")
	fmt.Println(ov)

	if err := section("table1", iters, procs); err != nil {
		return err
	}

	if comparators {
		s, err := exp.Report("comparators", exp.Text,
			exp.Params{Iters: iters, Procs: procs, Methods: exp.ComparatorMethods()[:4]})
		if err != nil {
			return err
		}
		fmt.Print(s)
	}

	if sweep {
		if err := section("bussweep", iters, procs); err != nil {
			return err
		}
	}

	if breakeven {
		if err := section("breakeven", iters, procs); err != nil {
			return err
		}
	}

	if contention {
		if err := section("contention", iters, procs); err != nil {
			return err
		}
	}

	if ring {
		if err := section("ringdepth", iters, procs); err != nil {
			return err
		}
	}

	if ringchurn {
		if err := section("ringchurn", iters, procs); err != nil {
			return err
		}
	}

	if va {
		s, err := exp.Report("vasweep", exp.Text, exp.Params{Iters: iters, Procs: procs, TLB: tlb})
		if err != nil {
			return err
		}
		fmt.Print(s)
	}

	if paging {
		if err := section("paging", iters, procs); err != nil {
			return err
		}
	}

	if steer {
		s, err := exp.RunSteerSuite(exp.Params{Iters: iters, Procs: procs}, nil)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(exp.SteerSuiteText(s))
	}
	return nil
}
