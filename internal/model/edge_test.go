package model

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func assertFinite(t *testing.T, p *Predictor) {
	t.Helper()
	if err := p.checkFinite(); err != nil {
		t.Fatalf("non-finite predictor: %v (coef=%v intercept=%v)", err, p.Coef, p.Intercept)
	}
}

// TestFitConstantColumns is the degenerate-column regression test: an
// all-constant design matrix must yield zero coefficients and a finite
// intercept from both solvers — never a divide-by-zero NaN. The online
// path routinely sees constant features inside small drift windows.
func TestFitConstantColumns(t *testing.T) {
	X := [][]float64{{3, 7}, {3, 7}, {3, 7}, {3, 7}}
	y := []float64{1, 2, 3, 4}
	for name, fit := range map[string]func() (*Predictor, error){
		"fista": func() (*Predictor, error) { return Fit(X, y, Config{Alpha: 1}) },
		"cd":    func() (*Predictor, error) { return FitCD(X, y, 0.1, 0) },
	} {
		p, err := fit()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertFinite(t, p)
		for j, c := range p.Coef {
			if c != 0 {
				t.Errorf("%s: constant column %d got coefficient %v", name, j, c)
			}
		}
		if got := p.Predict([]float64{3, 7}); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: non-finite prediction %v", name, got)
		}
	}
}

// TestFitSingleRow: with n=1 every column is constant, so the model
// must collapse to a finite intercept.
func TestFitSingleRow(t *testing.T) {
	p, err := Fit([][]float64{{5, 9, 2}}, []float64{0.25}, Config{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, p)
	if got := p.Predict([]float64{5, 9, 2}); math.Abs(got-0.25) > 1e-6 {
		t.Errorf("single-row predict = %v, want 0.25", got)
	}
}

// TestFitNoFeatures: d=0 trains an intercept-only model.
func TestFitNoFeatures(t *testing.T) {
	X := [][]float64{{}, {}, {}}
	y := []float64{2, 4, 6}
	p, err := Fit(X, y, Config{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, p)
	if got := p.Predict(nil); math.Abs(got-4) > 1e-3 {
		t.Errorf("intercept-only predict = %v, want ~4 (mean)", got)
	}
	if _, err := FitCD(X, y, 0, 0); err != nil {
		t.Fatalf("cd d=0: %v", err)
	}
}

// TestFitNonFiniteColumn: an Inf or NaN cell poisons its column's mean
// and sigma; the hardened standardize drops the column so the rest of
// the model still trains, finitely.
func TestFitNonFiniteColumn(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		X := [][]float64{{bad, 1}, {0, 2}, {0, 3}, {0, 4}}
		y := []float64{2, 4, 6, 8}
		p, err := Fit(X, y, Config{Alpha: 1})
		if err != nil {
			t.Fatalf("bad=%v: %v", bad, err)
		}
		assertFinite(t, p)
		if p.Coef[0] != 0 {
			t.Errorf("bad=%v: poisoned column kept coefficient %v", bad, p.Coef[0])
		}
		// The clean column still carries the signal y = 2·x₁.
		if got := p.Predict([]float64{0, 2.5}); math.Abs(got-5) > 0.1 {
			t.Errorf("bad=%v: predict = %v, want ~5", bad, got)
		}
	}
}

// TestFitNonFiniteTargetRejected: a NaN/Inf target is an input error,
// not something to average into β.
func TestFitNonFiniteTargetRejected(t *testing.T) {
	X := [][]float64{{1}, {2}}
	if _, err := Fit(X, []float64{1, math.NaN()}, Config{Alpha: 1}); err == nil {
		t.Error("Fit accepted a NaN target")
	}
	if _, err := FitCD(X, []float64{1, math.Inf(1)}, 0, 0); err == nil {
		t.Error("FitCD accepted an Inf target")
	}
}

// TestFitCDRaggedRows: FitCD used to index past short rows (Fit already
// validated); both must reject ragged input identically.
func TestFitCDRaggedRows(t *testing.T) {
	X := [][]float64{{1, 2}, {3}}
	y := []float64{1, 2}
	if _, err := FitCD(X, y, 0, 0); err == nil {
		t.Error("FitCD accepted ragged rows")
	}
	if _, err := Fit(X, y, Config{Alpha: 1}); err == nil {
		t.Error("Fit accepted ragged rows")
	}
}

// TestFitWarmStart: a warm start from the cold solution must not move
// (the optimum is a fixed point up to tolerance), a nil init must be
// bit-identical to Fit, and a poisoned init must fall back to the cold
// path bit-identically rather than contaminate the refit.
func TestFitWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := synth(rng, 60, []float64{2, 0, -1.5, 4}, 3, 0.01)
	cfg := Config{Alpha: 4, Gamma: 0.05}

	cold, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nilInit, err := FitWarm(X, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nilInit.Intercept != cold.Intercept || !equalSlices(nilInit.Coef, cold.Coef) {
		t.Error("FitWarm(nil) differs from Fit")
	}

	warm, err := FitWarm(X, y, cfg, cold)
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, warm)
	if warm.Iters > cold.Iters {
		t.Errorf("warm start took %d iters, cold %d — warm must not be slower on the same data", warm.Iters, cold.Iters)
	}
	for i := range X {
		cw, cc := warm.Predict(X[i]), cold.Predict(X[i])
		if math.Abs(cw-cc) > 1e-6*(math.Abs(cc)+1) {
			t.Fatalf("warm and cold predictions diverge: %v vs %v", cw, cc)
		}
	}

	poisoned := &Predictor{Coef: []float64{math.NaN(), 0, 0, 0}, Intercept: 1}
	fromBad, err := FitWarm(X, y, cfg, poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if fromBad.Intercept != cold.Intercept || !equalSlices(fromBad.Coef, cold.Coef) {
		t.Error("poisoned warm start did not fall back to the cold solution")
	}

	if _, err := FitWarm(X, y, cfg, &Predictor{Coef: []float64{1}}); err == nil {
		t.Error("FitWarm accepted a shape-mismatched init")
	}
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotRoundTrip: β survives Snapshot → JSON → FromSnapshot
// exactly, and FromSnapshot rejects non-finite payloads.
func TestSnapshotRoundTrip(t *testing.T) {
	p := &Predictor{Coef: []float64{0, 1.5, -2.25e-7}, Intercept: 0.125, Iters: 42, Objective: 1e-9}
	blob, err := json.Marshal(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Intercept != p.Intercept || !equalSlices(back.Coef, p.Coef) || back.Iters != p.Iters {
		t.Errorf("round trip changed the model: %+v vs %+v", back, p)
	}
	// The snapshot is detached: mutating it must not reach the restored
	// predictor's coefficients.
	s.Coef[1] = 99
	if back.Coef[1] == 99 {
		t.Error("snapshot and restored predictor share a coefficient slice")
	}
	if _, err := FromSnapshot(Snapshot{Coef: []float64{math.Inf(1)}}); err == nil {
		t.Error("FromSnapshot accepted an Inf coefficient")
	}
	if _, err := FromSnapshot(Snapshot{Intercept: math.NaN()}); err == nil {
		t.Error("FromSnapshot accepted a NaN intercept")
	}
}

// TestSolversAgreePerturbedScales is the perturbed-scale property test:
// on symmetric (α=1) problems whose columns span twelve orders of
// magnitude, FISTA and coordinate descent still minimize the same
// objective, so their achieved objective values must agree closely and
// every coefficient must stay finite. Standardization is what makes
// this work — and what the degenerate-column guards protect.
func TestSolversAgreePerturbedScales(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(30)
		d := 2 + rng.Intn(5)
		scales := make([]float64, d)
		coef := make([]float64, d)
		for j := range scales {
			scales[j] = math.Pow(10, float64(rng.Intn(13)-6))
			coef[j] = (rng.Float64()*4 - 2) / scales[j]
		}
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.Float64() * scales[j]
			}
			X[i] = row
			y[i] = 1.5
			for j := range row {
				y[i] += coef[j] * row[j]
			}
			y[i] += rng.NormFloat64() * 0.01
		}
		gamma := []float64{0, 0.01, 1}[trial%3]

		pf, err := Fit(X, y, Config{Alpha: 1, Gamma: gamma, MaxIter: 8000})
		if err != nil {
			t.Fatalf("trial %d: fista: %v", trial, err)
		}
		pc, err := FitCD(X, y, gamma, 400)
		if err != nil {
			t.Fatalf("trial %d: cd: %v", trial, err)
		}
		assertFinite(t, pf)
		assertFinite(t, pc)

		// Compare achieved objectives in the shared standardized space.
		pr := newProblem(X, y)
		st := pr.st
		obj := func(p *Predictor) float64 {
			w := make([]float64, d)
			b0 := p.Intercept
			for j := 0; j < d; j++ {
				w[j] = p.Coef[j] * st.sigma[j]
				b0 += p.Coef[j] * st.mu[j]
			}
			return pr.objective(w, b0, 1, gamma)
		}
		of, oc := obj(pf), obj(pc)
		ref := math.Max(math.Abs(of), math.Abs(oc))
		if math.Abs(of-oc) > 0.01*ref+1e-9 {
			t.Errorf("trial %d (n=%d d=%d γ=%g): objectives diverge: fista %v vs cd %v (scales %v)",
				trial, n, d, gamma, of, oc, scales)
		}
	}
}
