package model

import (
	"math"
	"math/rand"
	"testing"
)

// TestSolversAgreeOnSymmetricProblems cross-validates FISTA against
// coordinate descent: on α=1 problems both minimize the same convex
// objective, so their solutions (and objective values) must coincide.
func TestSolversAgreeOnSymmetricProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		d := 2 + rng.Intn(6)
		coef := make([]float64, d)
		for j := range coef {
			if rng.Intn(2) == 0 {
				coef[j] = rng.Float64() * 8
			}
		}
		X, y := synth(rng, 150, coef, 10*rng.Float64(), 2)
		gamma := []float64{0, 50, 500}[trial%3]

		fista, err := Fit(X, y, Config{Alpha: 1, Gamma: gamma, MaxIter: 30000, Tol: 1e-14})
		if err != nil {
			t.Fatal(err)
		}
		cd, err := FitCD(X, y, gamma, 3000)
		if err != nil {
			t.Fatal(err)
		}
		// Compare via the objective value (coefficients can differ
		// slightly under correlated columns at equal objective).
		pr := newProblem(X, y)
		st := pr.st
		toStd := func(p *Predictor) ([]float64, float64) {
			w := make([]float64, d)
			b0 := p.Intercept
			for j := 0; j < d; j++ {
				w[j] = p.Coef[j] * st.sigma[j]
				b0 += p.Coef[j] * st.mu[j]
			}
			return w, b0
		}
		wF, bF := toStd(fista)
		wC, bC := toStd(cd)
		objF := pr.objective(wF, bF, 1, gamma)
		objC := pr.objective(wC, bC, 1, gamma)
		rel := math.Abs(objF-objC) / (math.Abs(objC) + 1)
		if rel > 1e-3 {
			t.Errorf("trial %d (gamma=%v): objectives differ: fista=%.8g cd=%.8g (rel %.2g)",
				trial, gamma, objF, objC, rel)
		}
		// And predictions agree pointwise to a tight tolerance.
		for i := 0; i < 20; i++ {
			pf := fista.Predict(X[i])
			pc := cd.Predict(X[i])
			if math.Abs(pf-pc) > 1e-2*(math.Abs(pc)+1) {
				t.Errorf("trial %d: prediction mismatch at %d: %v vs %v", trial, i, pf, pc)
				break
			}
		}
	}
}

func TestFitCDRejectsBadInput(t *testing.T) {
	if _, err := FitCD(nil, nil, 0, 10); err == nil {
		t.Error("empty data accepted")
	}
}

func TestFitCDExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	X, y := synth(rng, 200, []float64{3, 0, 7}, 25, 0)
	p, err := FitCD(X, y, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{3, 0, 7} {
		if math.Abs(p.Coef[j]-want) > 0.02 {
			t.Errorf("coef[%d] = %v, want %v", j, p.Coef[j], want)
		}
	}
}
