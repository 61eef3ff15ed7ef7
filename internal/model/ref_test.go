package model

// The reference solver: the plain two-pass FISTA over [][]float64 rows
// and every column that the prepared, fused solver over the varying
// columns replaced, kept verbatim so the tests can hold every fit to it
// bit for bit. Its one addition is the solver's refusal of a negative
// γ, under which the two would part (see solve).

import (
	"fmt"
	"math"
)

func refFit(X [][]float64, y []float64, cfg Config, init *Predictor) (*Predictor, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("%w: %d rows, %d targets", ErrBadShape, n, len(y))
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("%w: ragged rows", ErrBadShape)
		}
	}
	if init != nil && len(init.Coef) != d {
		return nil, fmt.Errorf("%w: warm start has %d coefficients, data has %d columns", ErrBadShape, len(init.Coef), d)
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("model: non-finite target %v", v)
		}
	}
	if cfg.Alpha < 1 {
		return nil, fmt.Errorf("model: alpha %v < 1", cfg.Alpha)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = DefaultConfig().MaxIter
	}
	if cfg.Tol <= 0 {
		cfg.Tol = DefaultConfig().Tol
	}
	if cfg.Gamma < 0 {
		return nil, fmt.Errorf("model: gamma %v < 0", cfg.Gamma)
	}

	st := standardize(X)
	Z := refApply(st, X)
	// Center the target; the intercept in standardized space is trained
	// as an explicit unpenalized coordinate starting from mean(y).
	w := make([]float64, d)
	b0 := mean(y)
	if init != nil {
		// Map the raw-unit warm start into standardized coordinates:
		// raw c_j x_j + b  ==  (c_j σ_j) z_j + (b + Σ c_j μ_j).
		wb := init.Intercept
		ok := true
		for j := 0; j < d; j++ {
			w[j] = init.Coef[j] * st.sigma[j]
			wb += init.Coef[j] * st.mu[j]
			if math.IsNaN(w[j]) || math.IsInf(w[j], 0) {
				ok = false
				break
			}
		}
		if ok && !math.IsNaN(wb) && !math.IsInf(wb, 0) {
			b0 = wb
		} else {
			// A poisoned warm start (non-finite incumbent) must not
			// contaminate the refit; fall back to the cold start.
			for j := range w {
				w[j] = 0
			}
			b0 = mean(y)
		}
	}

	// Lipschitz constant of the smooth part: 2·max(1,α)·λmax(AᵀA) where
	// A is Z with an all-ones intercept column.
	lam := refPowerIterLambda(Z, 60)
	L := 2 * cfg.Alpha * (lam + float64(n)) // +n bounds the intercept column's contribution
	if L <= 0 || math.IsNaN(L) {
		L = 1
	}
	step := 1 / (1.1 * L)

	obj := func(w []float64, b0 float64) float64 {
		return refObjective(Z, y, w, b0, cfg.Alpha, cfg.Gamma)
	}

	// FISTA state.
	wPrev := append([]float64(nil), w...)
	b0Prev := b0
	tk := 1.0
	prevObj := obj(w, b0)
	iters := 0
	r := make([]float64, n)
	g := make([]float64, n)
	gradW := make([]float64, d)

	for iters = 1; iters <= cfg.MaxIter; iters++ {
		// Extrapolated point.
		tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
		beta := (tk - 1) / tNext
		yw := make([]float64, d)
		for j := range yw {
			yw[j] = w[j] + beta*(w[j]-wPrev[j])
		}
		yb0 := b0 + beta*(b0-b0Prev)

		// Gradient of the smooth part at the extrapolated point.
		refResidual(Z, y, yw, yb0, r)
		var gradB0 float64
		for i := range r {
			if r[i] > 0 {
				g[i] = 2 * r[i]
			} else {
				g[i] = 2 * cfg.Alpha * r[i]
			}
			gradB0 += g[i]
		}
		refMatTVec(Z, g, gradW)

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
			cur := obj(w, b0)
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
	p := &Predictor{Coef: make([]float64, d), Iters: iters, Objective: prevObj}
	p.Intercept = b0
	for j := 0; j < d; j++ {
		if st.sigma[j] == 0 || w[j] == 0 {
			continue
		}
		c := w[j] / st.sigma[j]
		p.Coef[j] = c
		p.Intercept -= c * st.mu[j]
	}
	if err := p.checkFinite(); err != nil {
		return nil, err
	}
	return p, nil
}

// FitCD trains the *symmetric* lasso (α = 1) by cyclic coordinate
// descent with exact per-coordinate minimization — an independent
// solver the tests use to cross-check the FISTA implementation. (The
// asymmetric objective has no closed-form coordinate update, which is
// why the production path uses proximal gradients; on symmetric
// problems the two must agree, and the tests enforce it.)
func FitCD(X [][]float64, y []float64, gamma float64, sweeps int) (*Predictor, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, ErrBadShape
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, ErrBadShape
		}
	}
	st := standardize(X)
	Z := refApply(st, X)

	// Precompute column norms; residual maintained incrementally. After
	// standardization a live column has colSq ≈ n, so anything orders of
	// magnitude below that is numerical dust: dividing the coordinate
	// update by it would manufacture enormous coefficients from rounding
	// noise. Zero such columns out entirely.
	colSq := make([]float64, d)
	for _, z := range Z {
		for j, v := range z {
			colSq[j] += v * v
		}
	}
	minColSq := 1e-12 * float64(n)
	for j := range colSq {
		if colSq[j] <= minColSq {
			colSq[j] = 0
		}
	}
	w := make([]float64, d)
	b0 := mean(y)
	r := make([]float64, n) // r = y − Zw − b0
	for i := range r {
		r[i] = y[i] - b0
	}
	if sweeps <= 0 {
		sweeps = 200
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		var maxDelta float64
		// Intercept update: mean residual.
		var rm float64
		for _, v := range r {
			rm += v
		}
		rm /= float64(n)
		b0 += rm
		for i := range r {
			r[i] -= rm
		}
		for j := 0; j < d; j++ {
			if colSq[j] == 0 {
				continue
			}
			// rho = Z_jᵀ(r + Z_j w_j): the partial residual correlation.
			var rho float64
			for i := range r {
				rho += Z[i][j] * r[i]
			}
			rho += colSq[j] * w[j]
			// Soft-threshold update for (1/1)·‖r‖² + γ‖w‖₁ scaling:
			// minimizing ‖y−Zw‖² + γ‖w‖₁ coordinate-wise gives
			// w_j = S(rho, γ/2) / colSq[j].
			newW := softThreshold(rho, gamma/2) / colSq[j]
			if delta := newW - w[j]; delta != 0 {
				for i := range r {
					r[i] -= Z[i][j] * delta
				}
				if ad := math.Abs(delta); ad > maxDelta {
					maxDelta = ad
				}
				w[j] = newW
			}
		}
		if maxDelta < 1e-12 {
			break
		}
	}

	p := &Predictor{Coef: make([]float64, d), Intercept: b0}
	for j := 0; j < d; j++ {
		if st.sigma[j] == 0 || w[j] == 0 {
			continue
		}
		c := w[j] / st.sigma[j]
		p.Coef[j] = c
		p.Intercept -= c * st.mu[j]
	}
	if err := p.checkFinite(); err != nil {
		return nil, err
	}
	return p, nil
}

// refObjective computes the full training objective.
func refObjective(Z [][]float64, y, w []float64, b0, alpha, gamma float64) float64 {
	var s float64
	for i := range Z {
		r := dot(Z[i], w) + b0 - y[i]
		if r > 0 {
			s += r * r
		} else {
			s += alpha * r * r
		}
	}
	for _, c := range w {
		s += gamma * math.Abs(c)
	}
	return s
}

// refResidual fills r with Zw + b0 − y.
func refResidual(Z [][]float64, y, w []float64, b0 float64, r []float64) {
	for i := range Z {
		r[i] = dot(Z[i], w) + b0 - y[i]
	}
}

// refMatTVec computes out = Zᵀ g.
func refMatTVec(Z [][]float64, g []float64, out []float64) {
	for j := range out {
		out[j] = 0
	}
	for i := range Z {
		gi := g[i]
		if gi == 0 {
			continue
		}
		row := Z[i]
		for j := range row {
			out[j] += row[j] * gi
		}
	}
}

// refPowerIterLambda estimates λmax(ZᵀZ) by power iteration.
func refPowerIterLambda(Z [][]float64, iters int) float64 {
	if len(Z) == 0 || len(Z[0]) == 0 {
		return 0
	}
	d := len(Z[0])
	v := make([]float64, d)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(d))
	}
	zv := make([]float64, len(Z))
	ztzv := make([]float64, d)
	lam := 0.0
	for it := 0; it < iters; it++ {
		for i := range Z {
			zv[i] = dot(Z[i], v)
		}
		refMatTVec(Z, zv, ztzv)
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

func refApply(st scaler, X [][]float64) [][]float64 {
	Z := make([][]float64, len(X))
	for i, row := range X {
		z := make([]float64, len(row))
		for j, v := range row {
			if st.sigma[j] > 0 {
				z[j] = (v - st.mu[j]) / st.sigma[j]
			}
		}
		Z[i] = z
	}
	return Z
}

// refSelectGamma is the serial γ sweep, each fit preparing its own
// split.
func refSelectGamma(X [][]float64, y []float64, valFrac float64, cfg Config, gammas []float64) (*Predictor, float64, error) {
	if valFrac <= 0 || valFrac >= 1 {
		valFrac = 0.25
	}
	n := len(X)
	nVal := int(float64(n) * valFrac)
	if nVal < 1 || n-nVal < 1 {
		return nil, 0, fmt.Errorf("model: dataset too small for validation split (%d rows)", n)
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
	if len(gammas) == 0 {
		gammas = refDefaultGammas(trX, trY)
	}
	var best *Predictor
	bestGamma := 0.0
	bestScore := math.Inf(1)
	for _, g := range gammas {
		c := cfg
		c.Gamma = g
		p, err := refFit(trX, trY, c, nil)
		if err != nil {
			return nil, 0, err
		}
		e := Evaluate(p, vaX, vaY)
		// Under-predictions dominate the score; each non-zero term costs
		// a little, encoding the paper's preference for tiny slices.
		score := e.MeanAbs - 3*e.WorstUnder + 0.004*float64(len(p.NonZero()))
		if score < bestScore {
			bestScore = score
			best = p
			bestGamma = g
		}
	}
	// Refit on all data at the chosen gamma.
	c := cfg
	c.Gamma = bestGamma
	p, err := refFit(X, y, c, nil)
	if err != nil {
		return nil, 0, err
	}
	_ = best
	return p, bestGamma, nil
}

func refDefaultGammas(X [][]float64, y []float64) []float64 {
	// γ_max ≈ 2·max_j |Z_jᵀ y_c| zeroes all coefficients for plain
	// lasso; the asymmetric weight only increases it, so this is a good
	// upper anchor.
	st := standardize(X)
	Z := refApply(st, X)
	ym := mean(y)
	gmax := 0.0
	for j := 0; j < len(st.mu); j++ {
		var s float64
		for i := range Z {
			s += Z[i][j] * (y[i] - ym)
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
