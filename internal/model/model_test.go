package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synth generates y = b0 + Σ coef_j x_j + noise over random features.
func synth(rng *rand.Rand, n int, coef []float64, b0, noise float64) ([][]float64, []float64) {
	d := len(coef)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		X[i] = row
		y[i] = b0
		for j := range row {
			y[i] += coef[j] * row[j]
		}
		y[i] += noise * rng.NormFloat64()
	}
	return X, y
}

func TestFitRecoversExactLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coef := []float64{2.5, 0, 7.25, 1}
	X, y := synth(rng, 400, coef, 50, 0)
	p, err := Fit(X, y, Config{Alpha: 1, Gamma: 0, MaxIter: 20000, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range coef {
		if math.Abs(p.Coef[j]-c) > 0.02 {
			t.Errorf("coef[%d] = %v, want %v", j, p.Coef[j], c)
		}
	}
	if math.Abs(p.Intercept-50) > 2 {
		t.Errorf("intercept = %v, want 50", p.Intercept)
	}
	e := Evaluate(p, X, y)
	if e.MeanAbs > 1e-3 {
		t.Errorf("mean abs rel error = %v on noiseless data", e.MeanAbs)
	}
}

func TestAsymmetryReducesUnderPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := synth(rng, 500, []float64{3, 1.5}, 20, 15)
	sym, err := Fit(X, y, Config{Alpha: 1, MaxIter: 8000})
	if err != nil {
		t.Fatal(err)
	}
	asym, err := Fit(X, y, Config{Alpha: 20, MaxIter: 8000})
	if err != nil {
		t.Fatal(err)
	}
	eSym := Evaluate(sym, X, y)
	eAsym := Evaluate(asym, X, y)
	if eAsym.UnderFrac >= eSym.UnderFrac {
		t.Errorf("asymmetric under-fraction %v not below symmetric %v",
			eAsym.UnderFrac, eSym.UnderFrac)
	}
	if eAsym.WorstUnder < eSym.WorstUnder {
		t.Errorf("asymmetric worst under %v worse than symmetric %v",
			eAsym.WorstUnder, eSym.WorstUnder)
	}
}

func TestLassoSparsifies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Ten features, only two matter.
	coef := make([]float64, 10)
	coef[1], coef[7] = 5, 2
	X, y := synth(rng, 300, coef, 10, 1)
	dense, err := Fit(X, y, Config{Alpha: 1, Gamma: 0, MaxIter: 6000})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Fit(X, y, Config{Alpha: 1, Gamma: 2000, MaxIter: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sparse.NonZero()) >= len(dense.NonZero()) && len(dense.NonZero()) > 2 {
		t.Errorf("gamma did not sparsify: dense %d, sparse %d",
			len(dense.NonZero()), len(sparse.NonZero()))
	}
	// The informative features must survive.
	has := map[int]bool{}
	for _, j := range sparse.NonZero() {
		has[j] = true
	}
	if !has[1] || !has[7] {
		t.Errorf("informative features dropped: nonzero = %v", sparse.NonZero())
	}
	e := Evaluate(sparse, X, y)
	if e.MeanAbs > 0.05 {
		t.Errorf("sparse model inaccurate: mean abs rel err %v", e.MeanAbs)
	}
}

func TestHugeGammaZeroesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := synth(rng, 100, []float64{1, 2}, 5, 1)
	p, err := Fit(X, y, Config{Alpha: 1, Gamma: 1e12, MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if nz := p.NonZero(); len(nz) != 0 {
		t.Errorf("non-zero coefficients under huge gamma: %v", nz)
	}
}

func TestObjectiveConvexityMidpoint(t *testing.T) {
	// f((a+b)/2) <= (f(a)+f(b))/2 for random points: a necessary
	// condition of convexity for the implemented objective.
	rng := rand.New(rand.NewSource(5))
	X, y := synth(rng, 50, []float64{1, -2, 3}, 0, 5)
	pr := newProblem(X, y)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		b := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		mid := []float64{(a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2}
		alpha, gamma := 1+r.Float64()*10, r.Float64()*100
		fa := pr.objective(a, 0, alpha, gamma)
		fb := pr.objective(b, 0, alpha, gamma)
		fm := pr.objective(mid, 0, alpha, gamma)
		return fm <= (fa+fb)/2+1e-9*(fa+fb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitHandlesConstantColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := synth(rng, 80, []float64{4}, 7, 0)
	for i := range X {
		X[i] = append(X[i], 3.14) // constant column: zero variance
	}
	p, err := Fit(X, y, Config{Alpha: 2, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if p.Coef[1] != 0 {
		t.Errorf("constant column got coefficient %v", p.Coef[1])
	}
	e := Evaluate(p, X, y)
	if e.MeanAbs > 1e-2 {
		t.Errorf("accuracy lost with constant column: %v", e.MeanAbs)
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultConfig()); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, Config{Alpha: 0.5}); err == nil {
		t.Error("alpha < 1 accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ v, t, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {0, 0, 0}, {3, 0, 3},
	}
	for _, c := range cases {
		if got := softThreshold(c.v, c.t); got != c.want {
			t.Errorf("softThreshold(%v,%v) = %v, want %v", c.v, c.t, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	if q := quantile(data, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(data, 0); q != 1 {
		t.Errorf("min = %v", q)
	}
	if q := quantile(data, 1); q != 5 {
		t.Errorf("max = %v", q)
	}
	if q := quantile(data, 0.25); q != 2 {
		t.Errorf("p25 = %v", q)
	}
	if q := quantile([]float64{7}, 0.9); q != 7 {
		t.Errorf("single = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v", q)
	}
}

func TestEvaluateStats(t *testing.T) {
	p := &Predictor{Coef: []float64{1}, Intercept: 0}
	X := [][]float64{{10}, {10}, {10}}
	y := []float64{10, 8, 12.5} // exact, under by 20%... wait: pred 10 vs 8 → over by 25%; vs 12.5 → under by 20%
	e := Evaluate(p, X, y)
	if e.UnderFrac != 1.0/3 {
		t.Errorf("under frac = %v", e.UnderFrac)
	}
	if math.Abs(e.WorstUnder-(-0.2)) > 1e-12 {
		t.Errorf("worst under = %v, want -0.2", e.WorstUnder)
	}
	if math.Abs(e.WorstOver-0.25) > 1e-12 {
		t.Errorf("worst over = %v, want 0.25", e.WorstOver)
	}
}

func TestSelectGammaPicksSparseAccurateModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	coef := make([]float64, 12)
	coef[0], coef[5] = 10, 4
	X, y := synth(rng, 400, coef, 100, 2)
	p, gamma, err := SelectGamma(X, y, 0.25, Config{Alpha: 8, MaxIter: 4000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nz := p.NonZero()
	if len(nz) > 6 {
		t.Errorf("selected model has %d terms (gamma=%v), want few", len(nz), gamma)
	}
	has := map[int]bool{}
	for _, j := range nz {
		has[j] = true
	}
	if !has[0] || !has[5] {
		t.Errorf("informative features missing from %v", nz)
	}
	e := Evaluate(p, X, y)
	if e.MeanAbs > 0.05 {
		t.Errorf("selected model inaccurate: %v", e.MeanAbs)
	}
}

func TestPredictMatchesManualDotProduct(t *testing.T) {
	p := &Predictor{Coef: []float64{2, 0, -1}, Intercept: 5}
	f := func(a32, b32, c32 float32) bool {
		a, b, c := float64(a32), float64(b32), float64(c32)
		want := 5 + 2*a - c
		got := p.Predict([]float64{a, b, c})
		return math.Abs(got-want) < 1e-9*(math.Abs(want)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReportFormat(t *testing.T) {
	p := &Predictor{Coef: []float64{1.5, 0}, Intercept: 2}
	rep := p.Report([]string{"stc:a", "stc:b"})
	if rep == "" {
		t.Fatal("empty report")
	}
	if want := "1/2 non-zero"; !contains(rep, want) {
		t.Errorf("report missing %q:\n%s", want, rep)
	}
	if !contains(rep, "stc:a") {
		t.Errorf("report missing feature name:\n%s", rep)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestDefaultGammasDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	X, y := synth(rng, 60, []float64{1, 2, 3}, 0, 1)
	gs := newProblem(X, y).gammas()
	if len(gs) < 5 {
		t.Fatalf("too few gammas: %d", len(gs))
	}
	for i := 1; i < len(gs); i++ {
		if gs[i] >= gs[i-1] {
			t.Errorf("gammas not descending at %d: %v >= %v", i, gs[i], gs[i-1])
		}
	}
	if gs[len(gs)-1] != 0 {
		t.Error("gamma path must end at 0")
	}
}

func TestPowerIterationOnIdentityLikeData(t *testing.T) {
	// For Z with orthonormal-ish columns scaled by k, λmax(ZᵀZ) ≈ k²·n/d
	// at least must be positive and finite.
	rng := rand.New(rand.NewSource(11))
	pr := &problem{n: 100, d: 2, z: make([]float64, 200)}
	for i := range pr.z {
		pr.z[i] = rng.NormFloat64()
	}
	lam := pr.powerIterLambda(50, 2)
	if lam <= 0 || math.IsNaN(lam) || math.IsInf(lam, 0) {
		t.Errorf("lambda = %v", lam)
	}
}
