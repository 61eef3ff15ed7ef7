// Package model implements the paper's execution-time prediction model
// (§3.4): a linear map from feature values to execution time, trained by
// minimizing the asymmetric, L1-regularized convex objective
//
//	minimize_β  ‖pos(Xβ−y)‖² + α·‖neg(Xβ−y)‖² + γ·‖β‖₁
//
// with α > 1 so under-predictions (which cause deadline misses) are
// penalized more than over-predictions (which only cost energy), and a
// Lasso term that drives most coefficients to zero so the hardware slice
// only needs to compute a handful of features.
//
// The objective's smooth part has a Lipschitz-continuous gradient, so it
// is minimized with FISTA (accelerated proximal gradient) using the
// soft-threshold operator as the L1 proximal map. Everything is written
// from scratch on float64 slices; there are no external dependencies.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Config holds training hyper-parameters.
type Config struct {
	// Alpha is the under-prediction penalty weight (α in the paper).
	// Must be >= 1; the paper sets it well above 1 for conservatism.
	Alpha float64
	// Gamma is the L1 penalty weight (γ). Zero disables sparsity.
	Gamma float64
	// MaxIter bounds FISTA iterations.
	MaxIter int
	// Tol is the relative objective-change convergence threshold.
	Tol float64
}

// DefaultConfig mirrors the paper's design goals: strongly conservative,
// sparse, accurate.
func DefaultConfig() Config {
	return Config{Alpha: 8, Gamma: 0, MaxIter: 4000, Tol: 1e-10}
}

// Predictor is a trained linear execution-time model. Predictions are a
// dot product plus intercept over raw (unstandardized) feature values —
// exactly the multiply-accumulate hardware evaluation of §3.4.
type Predictor struct {
	// Coef are per-feature coefficients in raw feature units.
	Coef []float64
	// Intercept is the constant term.
	Intercept float64
	// Iters is the number of FISTA iterations performed during training.
	Iters int
	// Objective is the final training objective value.
	Objective float64
}

// Predict evaluates the model on one feature vector.
func (p *Predictor) Predict(x []float64) float64 {
	y := p.Intercept
	for i, c := range p.Coef {
		if c != 0 {
			y += c * x[i]
		}
	}
	return y
}

// NonZero returns the indices of features with non-zero coefficients.
func (p *Predictor) NonZero() []int {
	var idx []int
	for i, c := range p.Coef {
		if c != 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// ErrBadShape reports inconsistent training data dimensions.
var ErrBadShape = errors.New("model: inconsistent training data shape")

// Fit trains a predictor on the design matrix X (rows = jobs, columns =
// features) and target vector y (execution times).
func Fit(X [][]float64, y []float64, cfg Config) (*Predictor, error) {
	return fit(X, y, cfg, nil)
}

// FitWarm trains like Fit but starts FISTA from the coefficients of an
// existing predictor instead of from zero. On a refit over data that
// drifted only partially from the incumbent's training set, the
// incumbent is already near the optimum and warm-starting converges in
// far fewer iterations. init must have exactly one coefficient per
// column of X; a nil init is equivalent to Fit.
func FitWarm(X [][]float64, y []float64, cfg Config, init *Predictor) (*Predictor, error) {
	return fit(X, y, cfg, init)
}

func fit(X [][]float64, y []float64, cfg Config, init *Predictor) (*Predictor, error) {
	if err := checkShape(X, y); err != nil {
		return nil, err
	}
	if d := len(X[0]); init != nil && len(init.Coef) != d {
		return nil, fmt.Errorf("%w: warm start has %d coefficients, data has %d columns", ErrBadShape, len(init.Coef), d)
	}
	if err := checkTargets(y); err != nil {
		return nil, err
	}
	cfg, err := cfg.checked()
	if err != nil {
		return nil, err
	}
	return solve(newProblem(X, y), cfg, init)
}

// checkShape rejects an empty or ragged design and a target count that
// does not match its rows.
func checkShape(X [][]float64, y []float64) error {
	n := len(X)
	if n == 0 || n != len(y) {
		return fmt.Errorf("%w: %d rows, %d targets", ErrBadShape, n, len(y))
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return fmt.Errorf("%w: ragged rows", ErrBadShape)
		}
	}
	return nil
}

func checkTargets(y []float64) error {
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: non-finite target %v", v)
		}
	}
	return nil
}

// checked validates cfg and fills the defaults of unset iteration
// limits.
func (cfg Config) checked() (Config, error) {
	if cfg.Alpha < 1 {
		return cfg, fmt.Errorf("model: alpha %v < 1", cfg.Alpha)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = DefaultConfig().MaxIter
	}
	if cfg.Tol <= 0 {
		cfg.Tol = DefaultConfig().Tol
	}
	return cfg, nil
}

// problem is one training split prepared for FISTA: everything a fit
// needs that does not depend on the hyper-parameters or the start. It
// is built once per split and only read afterwards, so concurrent fits
// (SelectGamma's γ sweep) share it.
//
// Only the varying columns (σ > 0) are fitted. A constant or
// non-finite column standardizes to all zeros, so its coefficient
// stays exactly 0 whatever the start and γ ≥ 0, and every sum it would
// enter gains only exact zeros (see nonZero). Dropping it leaves every
// fit bit-identical to one over all the columns.
type problem struct {
	// n is the row count and d the number of varying columns.
	n, d int
	// st standardizes every column of the design, varying or not.
	st scaler
	// keep lists the varying columns, ascending: column k of z is
	// column keep[k] of the design.
	keep []int
	// z is the standardized design over keep, row-major: row i is
	// z[i*d : i*d+d].
	z []float64
	y []float64
	// yMean is mean(y): the intercept's cold start, which centres the
	// targets in standardized space.
	yMean float64
	// lam estimates λmax(ZᵀZ) for the Lipschitz step size.
	lam float64
}

// newProblem prepares a validated (see checkShape) design and targets.
func newProblem(X [][]float64, y []float64) *problem {
	st := standardize(X)
	keep := st.varying()
	pr := &problem{n: len(X), d: len(keep), st: st, keep: keep, y: y, yMean: mean(y)}
	pr.z = st.apply(X, keep)
	pr.lam = pr.powerIterLambda(60, len(X[0]))
	return pr
}

func (pr *problem) row(i int) []float64 {
	return pr.z[i*pr.d : (i+1)*pr.d : (i+1)*pr.d]
}

// standardized maps a raw-unit predictor with one coefficient per
// design column into the problem's coordinates:
// raw c_j x_j + b  ==  (c_j σ_j) z_j + (b + Σ c_j μ_j).
// The map walks every column. A constant column has no w_j, but its
// c_j μ_j still shifts the intercept, and a non-finite c_j poisons the
// whole start. A nil or poisoned p yields the cold start: w = 0 and
// the intercept at mean(y), so a non-finite incumbent cannot
// contaminate a refit.
func (pr *problem) standardized(p *Predictor) ([]float64, float64) {
	w := make([]float64, pr.d)
	if p == nil {
		return w, pr.yMean
	}
	wb := p.Intercept
	k := 0
	for j, c := range p.Coef {
		wj := c * pr.st.sigma[j]
		if math.IsNaN(wj) || math.IsInf(wj, 0) {
			clear(w)
			return w, pr.yMean
		}
		wb += c * pr.st.mu[j]
		if k < pr.d && pr.keep[k] == j {
			w[k] = wj
			k++
		}
	}
	if math.IsNaN(wb) || math.IsInf(wb, 0) {
		clear(w)
		return w, pr.yMean
	}
	return w, wb
}

// solve runs FISTA over a prepared problem. cfg must be checked; a
// non-nil init must have one coefficient per design column.
func solve(pr *problem, cfg Config, init *Predictor) (*Predictor, error) {
	if cfg.Gamma < 0 {
		// A negative L1 weight rewards large coefficients, so the
		// objective has no minimum, and it would move the coefficients
		// of constant columns off zero.
		return nil, fmt.Errorf("model: gamma %v < 0", cfg.Gamma)
	}
	n, d, st := pr.n, pr.d, pr.st
	// The intercept in standardized space is trained as an explicit
	// unpenalized coordinate starting from mean(y).
	w, b0 := pr.standardized(init)

	// Lipschitz constant of the smooth part: 2·max(1,α)·λmax(AᵀA) where
	// A is Z with an all-ones intercept column.
	L := 2 * cfg.Alpha * (pr.lam + float64(n)) // +n bounds the intercept column's contribution
	if L <= 0 || math.IsNaN(L) {
		L = 1
	}
	step := 1 / (1.1 * L)

	// FISTA state.
	wPrev := append([]float64(nil), w...)
	b0Prev := b0
	tk := 1.0
	prevObj := pr.objective(w, b0, cfg.Alpha, cfg.Gamma)
	iters := 0
	yw := make([]float64, d)
	gradW := make([]float64, d)
	nz := make([]int, 0, d)

	for iters = 1; iters <= cfg.MaxIter; iters++ {
		// Extrapolated point.
		tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
		beta := (tk - 1) / tNext
		for j := range yw {
			yw[j] = w[j] + beta*(w[j]-wPrev[j])
		}
		yb0 := b0 + beta*(b0-b0Prev)

		// Gradient of the smooth part at the extrapolated point.
		gradB0 := pr.gradient(yw, yb0, cfg.Alpha, gradW, nz)

		// Proximal step: soft threshold on w, plain step on intercept.
		copy(wPrev, w)
		b0Prev = b0
		thr := cfg.Gamma * step
		for j := range w {
			v := yw[j] - step*gradW[j]
			w[j] = softThreshold(v, thr)
		}
		b0 = yb0 - step*gradB0
		tk = tNext

		if iters%25 == 0 {
			cur := pr.objective(w, b0, cfg.Alpha, cfg.Gamma)
			if math.Abs(prevObj-cur) <= cfg.Tol*(math.Abs(prevObj)+1) {
				prevObj = cur
				break
			}
			// FISTA is not monotone; restart momentum on increase.
			if cur > prevObj {
				tk = 1
			}
			prevObj = cur
		}
	}

	// Translate standardized coefficients back to raw feature units:
	// ŷ = b0 + Σ w_j (x_j − μ_j)/σ_j.
	p := &Predictor{Coef: make([]float64, len(st.mu)), Iters: iters, Objective: prevObj}
	p.Intercept = b0
	for k, j := range pr.keep {
		if w[k] == 0 {
			continue
		}
		c := w[k] / st.sigma[j]
		p.Coef[j] = c
		p.Intercept -= c * st.mu[j]
	}
	if err := p.checkFinite(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkFinite rejects a diverged solve: a caller that gets a nil error
// holds a predictor that can only emit finite values on finite inputs.
// Divergence is reachable with extreme-magnitude targets (the squared
// loss overflows before the step size can compensate), and a NaN β
// silently poisons every downstream prediction.
func (p *Predictor) checkFinite() error {
	if math.IsNaN(p.Intercept) || math.IsInf(p.Intercept, 0) {
		return fmt.Errorf("model: fit diverged to non-finite intercept")
	}
	for j, c := range p.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("model: fit diverged to non-finite coefficient %d", j)
		}
	}
	return nil
}

// objective computes the full training objective at (w, b0), with w
// over the varying columns. Zw skips w's zero coefficients (see
// nonZero).
func (pr *problem) objective(w []float64, b0, alpha, gamma float64) float64 {
	nz := nonZero(w, make([]int, 0, len(w)))
	var s float64
	for i := 0; i < pr.n; i++ {
		r := dotAt(pr.row(i), w, nz) + b0 - pr.y[i]
		if r > 0 {
			s += r * r
		} else {
			s += alpha * r * r
		}
	}
	for _, c := range w {
		s += gamma * math.Abs(c)
	}
	if pr.d < len(pr.st.mu) {
		// The constant columns' penalty terms γ·|0|: +0 for a finite γ,
		// which leaves s as it is, and NaN for a NaN or infinite one,
		// which makes s NaN wherever it is added. One stands for all.
		s += gamma * 0
	}
	return s
}

// gradient computes the smooth part's gradient at (w, b0) in one pass
// over the design: it sets out = Zᵀg and returns Σ g_i, where r = Zw +
// b0 − y and g_i = 2·r_i, or 2α·r_i when r_i ≤ 0.
//
// Rows go in blocks of four: their dot products run interleaved, then
// their terms of Zᵀg are added to each out[j] while it stays in a
// register. Every sum keeps the order of the plain two-pass form, so
// fits are bit-identical to it: each dot in j order, r_i as (dot+b0)−y_i,
// g_i as (2α)·r_i, and out[j] and Σg accumulated in i order, skipping
// rows with g_i = 0. The dot products skip w's zero coefficients, which
// nz (scratch of capacity d) collects (see nonZero).
func (pr *problem) gradient(w []float64, b0, alpha float64, out []float64, nz []int) float64 {
	d, y := pr.d, pr.y
	w = w[:d]
	out = out[:d]
	clear(out)
	nz = nonZero(w, nz)
	weight := func(s float64, i int) float64 {
		r := s + b0 - y[i]
		if r > 0 {
			return 2 * r
		}
		return 2 * alpha * r
	}
	var gradB0 float64
	i := 0
	for ; i+4 <= pr.n; i += 4 {
		blk := pr.z[i*d:]
		z0, z1, z2, z3 := blk[:d], blk[d:][:d], blk[2*d:][:d], blk[3*d:][:d]
		var s0, s1, s2, s3 float64
		for _, j := range nz {
			wj := w[j]
			s0 += z0[j] * wj
			s1 += z1[j] * wj
			s2 += z2[j] * wj
			s3 += z3[j] * wj
		}
		g0, g1, g2, g3 := weight(s0, i), weight(s1, i+1), weight(s2, i+2), weight(s3, i+3)
		gradB0 += g0
		gradB0 += g1
		gradB0 += g2
		gradB0 += g3
		if g0 == 0 || g1 == 0 || g2 == 0 || g3 == 0 {
			axpy(out, z0, g0)
			axpy(out, z1, g1)
			axpy(out, z2, g2)
			axpy(out, z3, g3)
			continue
		}
		for j := 0; j < d; j++ {
			acc := out[j]
			acc += z0[j] * g0
			acc += z1[j] * g1
			acc += z2[j] * g2
			acc += z3[j] * g3
			out[j] = acc
		}
	}
	for ; i < pr.n; i++ {
		z := pr.row(i)
		g := weight(dotAt(z, w, nz), i)
		gradB0 += g
		axpy(out, z, g)
	}
	return gradB0
}

// axpy adds row·g to out, skipping a zero g.
func axpy(out, row []float64, g float64) {
	if g == 0 {
		return
	}
	row = row[:len(out)]
	for j := range out {
		out[j] += row[j] * g
	}
}

func softThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// nonZero appends the indices of w's non-zero coefficients to nz[:0].
// A dot product with w over just those indices (dotAt) is bit-identical
// to the full one on finite rows: each skipped term z·(±0) is an exact
// zero, and adding a zero leaves a running sum that starts at +0
// unchanged (x + ±0 = x for x ≠ 0, and +0 + −0 = +0).
func nonZero(w []float64, nz []int) []int {
	nz = nz[:0]
	for j, wj := range w {
		if wj != 0 {
			nz = append(nz, j)
		}
	}
	return nz
}

// dotAt is dot(z, w) over the indices nz, in order.
func dotAt(z, w []float64, nz []int) float64 {
	var s float64
	for _, j := range nz {
		s += z[j] * w[j]
	}
	return s
}

// powerIterLambda estimates λmax(ZᵀZ) by power iteration. The start
// vector is the unit vector over all cols columns of the design,
// 1/√cols in each: a dropped column's component is zero from the first
// step on and adds only exact zeros, so the estimate is the one over
// every column, bit for bit. A start of 1/√d changes it in the last
// bits on some designs, and with it their fits.
func (pr *problem) powerIterLambda(iters, cols int) float64 {
	if pr.n == 0 || pr.d == 0 {
		return 0
	}
	v := make([]float64, pr.d)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(cols))
	}
	ztzv := make([]float64, pr.d)
	lam := 0.0
	for it := 0; it < iters; it++ {
		// ZᵀZv row by row: out[j] accumulates in i order.
		clear(ztzv)
		for i := 0; i < pr.n; i++ {
			z := pr.row(i)
			axpy(ztzv, z, dot(z, v))
		}
		norm := math.Sqrt(dot(ztzv, ztzv))
		if norm == 0 {
			return 0
		}
		for j := range v {
			v[j] = ztzv[j] / norm
		}
		lam = norm
	}
	return lam
}

// scaler holds per-column standardization parameters.
type scaler struct {
	mu, sigma []float64
}

func standardize(X [][]float64) scaler {
	d := len(X[0])
	n := float64(len(X))
	st := scaler{mu: make([]float64, d), sigma: make([]float64, d)}
	for _, row := range X {
		for j, v := range row {
			st.mu[j] += v
		}
	}
	for j := range st.mu {
		st.mu[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - st.mu[j]
			st.sigma[j] += dv * dv
		}
	}
	for j := range st.sigma {
		s := math.Sqrt(st.sigma[j] / n)
		// A non-finite mean or spread (an Inf/NaN cell anywhere in the
		// column) poisons every standardized value; such a column carries
		// no usable signal, so it is dropped the same way a constant one
		// is: sigma 0 means apply() zeroes it and the back-transform
		// skips it.
		if math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(st.mu[j]) || math.IsInf(st.mu[j], 0) {
			st.mu[j], st.sigma[j] = 0, 0
			continue
		}
		// Columns that are constant up to floating-point noise must be
		// treated as exactly constant, or the back-transform divides by
		// a denormal-scale sigma and manufactures enormous coefficients.
		if s < 1e-9*(math.Abs(st.mu[j])+1) {
			s = 0
		}
		st.sigma[j] = s
	}
	return st
}

// varying returns the columns with σ > 0, ascending.
func (st scaler) varying() []int {
	var cols []int
	for j, s := range st.sigma {
		if s > 0 {
			cols = append(cols, j)
		}
	}
	return cols
}

// apply standardizes the columns cols of X, each with σ > 0, into one
// row-major slice of len(cols) values a row.
func (st scaler) apply(X [][]float64, cols []int) []float64 {
	d := len(cols)
	z := make([]float64, len(X)*d)
	for i, row := range X {
		zi := z[i*d : (i+1)*d]
		for k, j := range cols {
			zi[k] = (row[j] - st.mu[j]) / st.sigma[j]
		}
	}
	return z
}

func mean(y []float64) float64 {
	var s float64
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}
