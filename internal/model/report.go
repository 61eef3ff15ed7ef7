package model

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Errors summarizes a predictor's accuracy on a labelled dataset.
// Relative errors are (prediction − actual) / actual, so positive values
// are over-predictions (safe, slightly wasteful) and negative values are
// under-predictions (deadline risks), matching the paper's Figure 10.
type Errors struct {
	// Rel holds per-job relative errors in input order.
	Rel []float64
	// Median, P25, P75, Min, Max describe the box-and-whisker stats.
	Median, P25, P75, Min, Max float64
	// MeanAbs is the mean absolute relative error.
	MeanAbs float64
	// WorstUnder is the most negative relative error (0 if none).
	WorstUnder float64
	// WorstOver is the largest positive relative error (0 if none).
	WorstOver float64
	// UnderFrac is the fraction of jobs under-predicted.
	UnderFrac float64
}

// Evaluate computes error statistics for a predictor on a dataset.
func Evaluate(p *Predictor, X [][]float64, y []float64) Errors {
	e := Errors{Rel: make([]float64, len(y))}
	var absSum float64
	under := 0
	for i := range y {
		pred := p.Predict(X[i])
		rel := 0.0
		if y[i] != 0 {
			rel = (pred - y[i]) / y[i]
		}
		e.Rel[i] = rel
		absSum += math.Abs(rel)
		if rel < 0 {
			under++
			if rel < e.WorstUnder {
				e.WorstUnder = rel
			}
		} else if rel > e.WorstOver {
			e.WorstOver = rel
		}
	}
	if len(y) > 0 {
		e.MeanAbs = absSum / float64(len(y))
		e.UnderFrac = float64(under) / float64(len(y))
	}
	sorted := append([]float64(nil), e.Rel...)
	sort.Float64s(sorted)
	e.Min = quantile(sorted, 0)
	e.P25 = quantile(sorted, 0.25)
	e.Median = quantile(sorted, 0.5)
	e.P75 = quantile(sorted, 0.75)
	e.Max = quantile(sorted, 1)
	return e
}

// quantile returns the q-quantile of pre-sorted data by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Report renders a model summary with feature names.
func (p *Predictor) Report(names []string) string {
	var sb strings.Builder
	nz := p.NonZero()
	fmt.Fprintf(&sb, "model: %d/%d non-zero terms, intercept %.4g\n", len(nz), len(p.Coef), p.Intercept)
	for _, j := range nz {
		name := fmt.Sprintf("x%d", j)
		if j < len(names) {
			name = names[j]
		}
		fmt.Fprintf(&sb, "  %-32s %+.6g\n", name, p.Coef[j])
	}
	return sb.String()
}

// SelectGamma fits the model over a descending list of γ candidates and
// returns the predictor that minimizes a conservatism-weighted score on
// the validation split, preferring sparser models on near-ties. This is
// the "empirically determined" γ of §3.4 made reproducible.
//
// The validation fits share one prepared training split and run on up
// to Workers() goroutines. Each writes only its own γ's slot, and the
// slots are read in γ order, so the chosen γ and the error returned
// (the first in γ order) are those of a serial sweep.
func SelectGamma(X [][]float64, y []float64, valFrac float64, cfg Config, gammas []float64) (*Predictor, float64, error) {
	if valFrac <= 0 || valFrac >= 1 {
		valFrac = 0.25
	}
	n := len(X)
	nVal := int(float64(n) * valFrac)
	if nVal < 1 || n-nVal < 1 {
		return nil, 0, fmt.Errorf("model: dataset too small for validation split (%d rows)", n)
	}
	// Checked up front: a ragged validation row would panic in a
	// sweep goroutine, out of the caller's reach.
	if err := checkShape(X, y); err != nil {
		return nil, 0, err
	}
	// Deterministic interleaved split: every k-th row validates.
	k := n / nVal
	var trX, vaX [][]float64
	var trY, vaY []float64
	for i := range X {
		if k > 0 && i%k == 0 && len(vaX) < nVal {
			vaX = append(vaX, X[i])
			vaY = append(vaY, y[i])
		} else {
			trX = append(trX, X[i])
			trY = append(trY, y[i])
		}
	}
	if err := checkTargets(trY); err != nil {
		return nil, 0, err
	}
	checked, err := cfg.checked()
	if err != nil {
		return nil, 0, err
	}
	tr := newProblem(trX, trY)
	if len(gammas) == 0 {
		gammas = tr.gammas()
	}
	scores := make([]float64, len(gammas))
	err = parallel(len(gammas), func(i int) error {
		c := checked
		c.Gamma = gammas[i]
		p, err := solve(tr, c, nil)
		if err != nil {
			return err
		}
		e := Evaluate(p, vaX, vaY)
		// Under-predictions dominate the score; each non-zero term costs
		// a little, encoding the paper's preference for tiny slices.
		scores[i] = e.MeanAbs - 3*e.WorstUnder + 0.004*float64(len(p.NonZero()))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	bestGamma := 0.0
	bestScore := math.Inf(1)
	for i, g := range gammas {
		if scores[i] < bestScore {
			bestScore = scores[i]
			bestGamma = g
		}
	}
	// Refit on all data at the chosen gamma.
	c := cfg
	c.Gamma = bestGamma
	p, err := Fit(X, y, c)
	if err != nil {
		return nil, 0, err
	}
	return p, bestGamma, nil
}

// workerCount holds the γ sweep's fan-out; <= 0 means GOMAXPROCS.
var workerCount atomic.Int32

// SetWorkers bounds the number of goroutines a γ sweep fits on. n <= 0
// restores the default (GOMAXPROCS). core.SetWorkers sets it, so one
// -workers flag bounds both RTL simulation and training. Safe to call
// concurrently.
func SetWorkers(n int) { workerCount.Store(int32(n)) }

// Workers returns the γ sweep's effective fan-out.
func Workers() int {
	if n := int(workerCount.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// parallel calls fn(0), ..., fn(n−1) on min(Workers(), n) goroutines,
// handing out indices through an atomic counter, and returns the first
// error in index order. fn(i) must write only state that belongs to
// index i. Once an index has failed the workers take no new ones:
// indices are handed out in increasing order, so every index still to
// be handed out is past the failure and, as in a serial loop that
// returns at its first error, the rest of the range is not run.
func parallel(n int, fn func(i int) error) error {
	workers := min(Workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gammas builds a descending log-spaced γ path scaled to the data, from
// a value that zeroes everything down to (almost) none.
func (pr *problem) gammas() []float64 {
	// γ_max ≈ 2·max_j |Z_jᵀ y_c| zeroes all coefficients for plain
	// lasso; the asymmetric weight only increases it, so this is a good
	// upper anchor.
	gmax := 0.0
	for j := 0; j < pr.d; j++ {
		var s float64
		for i := 0; i < pr.n; i++ {
			s += pr.z[i*pr.d+j] * (pr.y[i] - pr.yMean)
		}
		if a := 2 * math.Abs(s); a > gmax {
			gmax = a
		}
	}
	if gmax == 0 {
		gmax = 1
	}
	var gs []float64
	for f := 1.0; f > 1e-5; f /= 3.2 {
		gs = append(gs, gmax*f)
	}
	gs = append(gs, 0)
	return gs
}
