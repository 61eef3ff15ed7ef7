package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// sameFit reports whether two fits are bit-identical: coefficients,
// intercept and objective compared by their bits, and the iteration
// count.
func sameFit(a, b *Predictor) bool {
	if a.Iters != b.Iters || len(a.Coef) != len(b.Coef) ||
		math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return false
	}
	for j := range a.Coef {
		if math.Float64bits(a.Coef[j]) != math.Float64bits(b.Coef[j]) {
			return false
		}
	}
	return true
}

// assertMatchesRef holds FitWarm to the reference two-pass solver: the
// same error, or a bit-identical predictor.
func assertMatchesRef(t *testing.T, name string, X [][]float64, y []float64, cfg Config, init *Predictor) {
	t.Helper()
	got, gotErr := FitWarm(X, y, cfg, init)
	want, wantErr := refFit(X, y, cfg, init)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, reference %q", name, gotErr, wantErr)
		}
	case !sameFit(got, want):
		t.Fatalf("%s: fit differs from the reference\n got %+v\nwant %+v", name, *got, *want)
	}
}

// readFitCorpus decodes FuzzModelFit's testdata corpus.
func readFitCorpus(t *testing.T) []struct {
	data         []byte
	alpha, gamma float64
} {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzModelFit", "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := append(fitSeeds[:0:0], fitSeeds...)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 4 {
			t.Fatalf("%s: %d lines, want a header and 3 values", f, len(lines))
		}
		arg := func(line, typ string) string {
			if !strings.HasPrefix(line, typ+"(") || !strings.HasSuffix(line, ")") {
				t.Fatalf("%s: %q is not a %s value", f, line, typ)
			}
			return line[len(typ)+1 : len(line)-1]
		}
		data, err := strconv.Unquote(arg(lines[1], "[]byte"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		alpha, err1 := strconv.ParseFloat(arg(lines[2], "float64"), 64)
		gamma, err2 := strconv.ParseFloat(arg(lines[3], "float64"), 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", f, err1, err2)
		}
		out = append(out, struct {
			data         []byte
			alpha, gamma float64
		}{[]byte(data), alpha, gamma})
	}
	return out
}

// randomDesign draws an n×d design with a sparse linear target, its
// columns on scales from 1e-3 to 1e3.
func randomDesign(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	scale := make([]float64, d)
	coef := make([]float64, d)
	for j := range scale {
		scale[j] = math.Pow(10, float64(rng.Intn(7)-3))
		if rng.Intn(3) == 0 {
			coef[j] = (rng.Float64()*4 - 2) / scale[j]
		}
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		y[i] = 5
		for j := range X[i] {
			X[i][j] = rng.Float64() * scale[j]
			y[i] += coef[j] * X[i][j]
		}
		y[i] += rng.NormFloat64() * 0.05
	}
	return X, y
}

// TestFitMatchesReference holds the prepared, fused solver to the plain
// two-pass FISTA bit for bit: on the fuzz corpus, on random shapes with
// every row count mod 4 (the fused step's block tail), on constant and
// non-finite columns, on runs cut off at MaxIter, and on warm starts,
// poisoned ones included.
func TestFitMatchesReference(t *testing.T) {
	for i, s := range readFitCorpus(t) {
		X, y := decodeFitInput(s.data)
		if X == nil {
			continue
		}
		assertMatchesRef(t, "corpus "+strconv.Itoa(i), X, y, Config{Alpha: s.alpha, Gamma: s.gamma, MaxIter: 300}, nil)
	}

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 4*(1+rng.Intn(20)) + trial%4
		d := 1 + rng.Intn(30)
		X, y := randomDesign(rng, n, d)
		cfg := Config{Alpha: 1 + rng.Float64()*10, Gamma: []float64{0, 1e-3, 0.1, 10}[rng.Intn(4)]}
		if trial%5 == 0 {
			cfg.MaxIter = 1 + rng.Intn(60) // stops at MaxIter, between objective checks
		}
		name := "random n=" + strconv.Itoa(n) + " d=" + strconv.Itoa(d)
		assertMatchesRef(t, name, X, y, cfg, nil)

		// Constant and non-finite columns.
		for i := range X {
			X[i][0] = 3
			if d > 2 {
				X[i][d-1] = 0
			}
		}
		if d > 3 {
			X[rng.Intn(n)][1] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[trial%3]
		}
		assertMatchesRef(t, name+" degenerate columns", X, y, cfg, nil)

		// Warm starts: from the cold fit of a drifted target, and from
		// poisoned incumbents that must fall back to the cold start.
		drifted := append([]float64(nil), y...)
		for i := range drifted {
			drifted[i] *= 1.1
		}
		cold, err := Fit(X, drifted, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesRef(t, name+" warm", X, y, cfg, cold)
		bad := &Predictor{Coef: make([]float64, d), Intercept: 1}
		bad.Coef[rng.Intn(d)] = math.Inf(1)
		assertMatchesRef(t, name+" poisoned coefficient", X, y, cfg, bad)
		assertMatchesRef(t, name+" poisoned intercept", X, y, cfg, &Predictor{Coef: make([]float64, d), Intercept: math.NaN()})
	}

	// Exactly zero residuals take the g == 0 skip.
	X := [][]float64{{1, 2}, {2, 1}, {3, 5}, {4, 4}, {5, 0}, {6, 1}}
	y := []float64{3, 3, 8, 8, 5, 7}
	assertMatchesRef(t, "exact", X, y, Config{Alpha: 2}, nil)
	assertMatchesRef(t, "exact warm", X, y, Config{Alpha: 2}, &Predictor{Coef: []float64{1, 1}})
}

// h264Design is a seeded 600×27 design shaped like h264's training
// matrix: 13 constant columns, repeated and near-repeated transition
// counts, a few wide activity counters, and execution times of a few
// milliseconds driven by three of them.
func h264Design() ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(264))
	const n = 600
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		mode := float64(rng.Intn(10))
		blocks := float64(rng.Intn(25))
		inter := math.Min(blocks, 23)
		residue := float64(rng.Intn(912))
		intra := float64(rng.Intn(148))
		preload := float64(rng.Intn(293))
		loop := 252 + 4*float64(rng.Intn(10))
		cmp := 86 + residue/3 + float64(rng.Intn(40))
		X[i] = []float64{1, 24, 24, mode, blocks, inter, blocks, inter, inter, 24, 1, 23, 24, cmp,
			0, blocks, residue, 0, inter, intra, 0, inter, preload, 0, 24, loop, 0}
		y[i] = 4.5e-3 + 6.65e-6*residue + 6.12e-6*intra + 6.13e-6*preload + 1e-6*mode + 2e-5*rng.Float64()
	}
	return X, y
}

// TestSelectGammaDeterministicAcrossGOMAXPROCS: the parallel γ sweep
// picks the γ and returns the predictor (or error) of the serial
// reference sweep, whatever the number of goroutines.
func TestSelectGammaDeterministicAcrossGOMAXPROCS(t *testing.T) {
	hX, hy := h264Design()
	rng := rand.New(rand.NewSource(9))
	coef := make([]float64, 12)
	coef[0], coef[5] = 10, 4
	sX, sy := synth(rng, 203, coef, 100, 2)
	// Targets alternating ±1e307: the gradient overflows, every fit
	// diverges, and the first γ's error must be the one returned.
	dX, dy := synth(rng, 40, []float64{1, 2}, 0, 0)
	for i := range dy {
		dy[i] = 1e307 * float64(1-2*(i%2))
	}
	cases := []struct {
		name   string
		X      [][]float64
		y      []float64
		gammas []float64
	}{
		{"h264-shaped", hX, hy, nil},
		{"sparse", sX, sy, nil},
		{"given path", sX, sy, []float64{5, 0.5, 0.05, 0}},
		{"diverging", dX, dy, nil},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		cfg := Config{Alpha: 8, MaxIter: 2000}
		want, wantGamma, wantErr := refSelectGamma(c.X, c.y, 0.25, cfg, c.gammas)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, gamma, err := SelectGamma(c.X, c.y, 0.25, cfg, c.gammas)
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%s, GOMAXPROCS %d: error %v, serial reference %v", c.name, procs, err, wantErr)
			case err != nil:
				if err.Error() != wantErr.Error() {
					t.Fatalf("%s, GOMAXPROCS %d: error %q, serial reference %q", c.name, procs, err, wantErr)
				}
			case math.Float64bits(gamma) != math.Float64bits(wantGamma) || !sameFit(got, want):
				t.Fatalf("%s, GOMAXPROCS %d: γ %v, serial reference γ %v\n got %+v\nwant %+v",
					c.name, procs, gamma, wantGamma, *got, *want)
			}
		}
		if c.name == "diverging" && wantErr == nil {
			t.Fatal("the diverging case fitted; it no longer exercises the error path")
		}
	}
}

// TestParallelHonoursWorkers: the sweep's fan-out is bounded by
// SetWorkers, not by GOMAXPROCS alone, and one worker runs every index
// in order on the calling goroutine, as -workers 1 promises.
func TestParallelHonoursWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	defer SetWorkers(0)
	const n = 64
	for _, workers := range []int{1, 3, 0} {
		SetWorkers(workers)
		bound := Workers()
		var inFlight, peak atomic.Int32
		var order []int
		var mu sync.Mutex
		seen := make([]int, n)
		err := parallel(n, func(i int) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			for k := 0; k < 100; k++ {
				runtime.Gosched()
			}
			mu.Lock()
			order = append(order, i)
			seen[i]++
			mu.Unlock()
			inFlight.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if p := int(peak.Load()); p > bound {
			t.Errorf("workers %d: %d calls in flight, bound %d", workers, p, bound)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers %d: index %d ran %d times", workers, i, c)
			}
		}
		if workers == 1 {
			for k, i := range order {
				if i != k {
					t.Fatalf("one worker ran index %d at position %d: not serial", i, k)
				}
			}
		}
	}
}

// TestParallelStopsAfterFirstError: the first error in index order is
// returned, and, as in a serial loop, the indices after it are not all
// run: once a fit has failed the workers stop taking new ones.
func TestParallelStopsAfterFirstError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	defer SetWorkers(0)
	const n, first = 64, 5
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		var calls atomic.Int32
		err := parallel(n, func(i int) error {
			calls.Add(1)
			runtime.Gosched()
			if i >= first {
				return fmt.Errorf("fit %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != fmt.Sprintf("fit %d", first) {
			t.Fatalf("workers %d: error %v, want the first failing index's", workers, err)
		}
		// Indices 0..first run; each worker may be running one more
		// when the failure lands and take one more before it sees it.
		limit := first + 1
		if workers > 1 {
			limit += 2 * workers
		}
		if c := int(calls.Load()); c > limit {
			t.Errorf("workers %d: %d of %d indices ran after index %d failed (limit %d)", workers, c, n, first, limit)
		}
	}
}

// TestSelectGammaRejectsRaggedDesign: a short row anywhere, validation
// rows included, is a shape error before any fit, not a panic in a
// sweep goroutine.
func TestSelectGammaRejectsRaggedDesign(t *testing.T) {
	X, y := synth(rand.New(rand.NewSource(3)), 40, []float64{1, 2}, 5, 0.1)
	for _, i := range []int{0, 1, 39} {
		bad := append([][]float64(nil), X...)
		bad[i] = bad[i][:1]
		if _, _, err := SelectGamma(bad, y, 0.25, DefaultConfig(), nil); !errors.Is(err, ErrBadShape) {
			t.Errorf("short row %d: err %v, want ErrBadShape", i, err)
		}
	}
	if _, _, err := SelectGamma(X, y[:30], 0.25, DefaultConfig(), nil); !errors.Is(err, ErrBadShape) {
		t.Errorf("short target vector: err %v, want ErrBadShape", err)
	}
}

// BenchmarkSelectGamma times the default γ sweep and refit on the
// h264-shaped design.
func BenchmarkSelectGamma(b *testing.B) {
	X, y := h264Design()
	for i := 0; i < b.N; i++ {
		if _, _, err := SelectGamma(X, y, 0.25, DefaultConfig(), nil); err != nil {
			b.Fatal(err)
		}
	}
}
