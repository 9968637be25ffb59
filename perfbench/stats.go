package main

import (
	"fmt"
	"math"
	"sort"

	userdma "uldma/internal/core"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank is the percentile rule every tail timing follows: report
// p99, or the highest nearest-rank percentile that still leaves at
// least 10 samples beyond it, whichever is lower — and never below the
// median. It returns the 1-based rank k of the reported sample in
// ascending order; the percentile is 100*k/n.
func tailRank(n int) int {
	if n <= 0 {
		return 0
	}
	k := (99*n + 99) / 100 // ceil(0.99 n): the p99 nearest rank
	if k > n-10 {
		k = n - 10
	}
	if half := (n + 1) / 2; k < half {
		k = half
	}
	return k
}

// tail applies tailRank to xs and returns the percentile it reports and
// the sample at that rank; with too few samples for any tail it is the
// median.
func tail(xs []float64) (pct, v float64) {
	n := len(xs)
	k := tailRank(n)
	if k <= (n+1)/2 {
		return 50, median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(k) / float64(n), s[k-1]
}

// table1ErrPct is the mean relative error of the model's Table 1 rows
// against the published means (userdma.PaperTable1), in percent. The
// constants in DESIGN §6 are fitted to that same table, so this is the
// model's calibration error, not a held-out prediction error.
func table1ErrPct(rows []userdma.InitiationResult) (float64, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("table 1: no rows")
	}
	var sum float64
	for _, r := range rows {
		paper, ok := userdma.PaperTable1[r.Method]
		if !ok || paper <= 0 {
			return 0, fmt.Errorf("table 1: no published mean for %q", r.Method)
		}
		sum += math.Abs(float64(r.Mean-paper)) / float64(paper)
	}
	return 100 * sum / float64(len(rows)), nil
}

// tally counts operations — issued RPCs and guest cells — and the
// failed ones among them. A failure is an error, an RPC issued but not
// completed, or a world or cell whose output digest differs from its
// pinned value.
type tally struct {
	Attempted int64
	Failed    int64
	Problems  []string
}

// add records n operations of which failed did not succeed; why names
// the cause when failed > 0.
func (t *tally) add(n, failed int64, why string) {
	t.Attempted += n
	t.Failed += failed
	if failed > 0 {
		t.Problems = append(t.Problems, why)
	}
}

// merge folds another tally into t.
func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Problems = append(t.Problems, o.Problems...)
}

// errorRate is failed operations over attempted ones.
func (t *tally) errorRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
