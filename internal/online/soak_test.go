package online_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/accel/stencil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/workload"
)

// fixedColsImages builds n stencil images with rows varying 8..44 and a
// fixed column count. Fixing cols during training makes the column
// counter collinear with the row features, so the lasso's weight split
// decouples under a column shift — a real covariate-drift scenario: the
// cols=40-trained model over-predicts cols=8 jobs by ~200%.
func fixedColsImages(n, cols int, seed int64) []workload.StencilImage {
	imgs := make([]workload.StencilImage, n)
	for i := range imgs {
		imgs[i] = workload.StencilImage{Rows: 8 + (i*7+int(seed))%37, Cols: cols, Class: "soak"}
	}
	return imgs
}

func trainStencil(t *testing.T) *core.Predictor {
	t.Helper()
	train := stencil.JobsFrom(fixedColsImages(40, 40, 3), 3)
	p, err := core.Train(stencil.Spec(), core.Options{TrainJobs: train})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stencilProfile builds the serving profile the same way exp.Lab does:
// energy models from the clean design's and the slice's area stats.
func stencilProfile(p *core.Predictor) serve.Profile {
	spec := p.Spec
	params := power.DefaultParams(spec.NominalHz)
	params.MemFraction = spec.MemFraction
	pm := power.FromStats(rtl.Stats(stencil.Build()), params)
	sliceStats := rtl.Stats(p.Slice.M)
	sliceParams := power.DefaultParams(spec.NominalHz)
	sliceParams.MemFraction = 0.1
	spm := power.FromStats(rtl.AreaStats{
		LogicGates: sliceStats.LogicGates,
		RegGates:   sliceStats.RegGates,
		Nodes:      sliceStats.Nodes,
		Regs:       sliceStats.Regs,
	}, sliceParams)
	return serve.Profile{
		Pred:       p,
		Device:     dvfs.ASIC(spec.NominalHz, false),
		Power:      pm,
		SlicePower: spm,
		Deadline:   16.7e-3,
		Margin:     0.05,
	}
}

type soakResult struct {
	online     online.Stats
	pool       cluster.PoolStats
	coef       []float64
	intercept  float64
	postEnergy float64
	postMisses int
	traces     []core.JobTrace
	profile    serve.Profile
	pred       *core.Predictor
}

// runDriftSoak serves 96 cols=40 jobs (the training distribution) and
// then 208 cols=8 jobs through an online-enabled one-replica pool — the
// daemon's default front end, whose router runs the trainer. With ring 64,
// window 32 and hot-streak 2, the drift monitor arms the refit at
// observation 160 — when the ring holds exactly the first 64 drifted
// jobs — and the canary decision lands at observation 192, so jobs
// 193..304 are served by whatever model the decision installed. Jobs
// are submitted one at a time with 20 ms spacing, so every job starts
// with a full deadline budget and the served stream reconciles with an
// offline stepper replay.
func runDriftSoak(t *testing.T, workers int) soakResult {
	t.Helper()
	core.SetWorkers(workers)
	defer core.SetWorkers(0)

	p := trainStencil(t)
	prof := stencilProfile(p)
	jobs := stencil.JobsFrom(fixedColsImages(96, 40, 7), 7)
	jobs = append(jobs, stencil.JobsFrom(fixedColsImages(208, 8, 11), 11)...)

	// Precompute every job's trace offline (prediction fields aside,
	// traces are model-independent) for the reconciliation checks.
	js := p.NewJobSimulator()
	traces := make([]core.JobTrace, len(jobs))
	for i, job := range jobs {
		tr, err := js.Trace(job)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
	}

	pool, err := cluster.NewPool(cluster.Config{Shard: serve.ShardConfig{
		Name:       "stencil",
		Profile:    prof,
		QueueDepth: 8,
		Online:     &online.Config{RingSize: 64, MinObservations: 64, DriftWindow: 32, CanaryWindow: 32},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan serve.Outcome, 1)
	var postEnergy float64
	postMisses := 0
	for i, job := range jobs {
		if err := pool.Submit(cluster.Job{Arrival: float64(i) * 0.02, Payload: job, Result: res}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		out := <-res
		if out.Err != nil {
			t.Fatalf("job %d: %v", i, out.Err)
		}
		if i >= 192 { // post-decision segment
			postEnergy += out.Job.Energy
			if out.Job.Missed {
				postMisses++
			}
		}
	}
	pool.Close()
	st := pool.Stats()
	if st.Online.State == "off" {
		t.Fatal("online-enabled pool reports no trainer")
	}
	live := p.LiveModel()
	return soakResult{
		online: st.Online, pool: st,
		coef: append([]float64(nil), live.Coef...), intercept: live.Intercept,
		postEnergy: postEnergy, postMisses: postMisses,
		traces: traces, profile: prof, pred: p,
	}
}

// TestServeDriftSoak is the end-to-end acceptance soak: a served
// covariate shift produces exactly one detect→refit→canary→promote
// cycle, the promoted model dominates the incumbent on the shadow
// window, the promoted β is bit-identical to an offline refit on the
// same observation window, the post-swap served energy reconciles with
// an offline replay under the refit model to within 1%, and a rerun
// under a different worker count is bit-identical.
func TestServeDriftSoak(t *testing.T) {
	r := runDriftSoak(t, 1)

	// Exactly one full cycle, promoted.
	os := r.online
	if os.Observations != 304 || os.DriftEvents != 1 || os.Retrains != 1 ||
		os.Promotions != 1 || os.CanaryRejects != 0 || os.FitErrors != 0 {
		t.Fatalf("trainer cycle: %+v, want exactly one promoted cycle over 304 observations", os)
	}
	if os.ModelVersion != 1 || os.State != "idle" {
		t.Fatalf("post-soak trainer state: %+v", os)
	}
	d := os.LastDecision
	if !d.Promoted || d.Version != 1 || d.AtObservation != 192 {
		t.Fatalf("decision: %+v, want promotion at observation 192", d)
	}
	// Dominance on the shadow window.
	if d.Candidate.Misses > d.Incumbent.Misses {
		t.Fatalf("promoted candidate misses more: %+v", d)
	}
	if d.Candidate.Misses == d.Incumbent.Misses && d.Candidate.Energy >= d.Incumbent.Energy {
		t.Fatalf("promotion without energy dominance: %+v", d)
	}

	// The replica serves the swapped version, and every job was served
	// predictively.
	if len(r.pool.Replicas) != 1 {
		t.Fatalf("%d replicas, want 1", len(r.pool.Replicas))
	}
	st := r.pool.Replicas[0]
	if st.ModelVersion != 1 {
		t.Fatalf("replica model version %d out of step with the trainer", st.ModelVersion)
	}
	if st.Done != 304 || st.Degraded != 0 || st.Errors != 0 || r.pool.Shed != 0 || r.pool.Errors != 0 {
		t.Fatalf("serving counters: done %d degraded %d errors %d, pool shed %d errors %d",
			st.Done, st.Degraded, st.Errors, r.pool.Shed, r.pool.Errors)
	}

	// Promoted β ≡ offline refit on the same observation window (the 64
	// drifted jobs in the ring when the refit armed: jobs 97..160).
	X := make([][]float64, 64)
	y := make([]float64, 64)
	for i := 0; i < 64; i++ {
		X[i] = r.traces[96+i].SliceFeatures
		y[i] = r.traces[96+i].Seconds
	}
	init := &model.Predictor{Coef: make([]float64, len(r.pred.Kept)), Intercept: r.pred.Model.Intercept}
	for i, k := range r.pred.Kept {
		init.Coef[i] = r.pred.Model.Coef[k]
	}
	m, err := model.FitWarm(X, y, model.DefaultConfig(), init)
	if err != nil {
		t.Fatal(err)
	}
	offline := &model.Predictor{Coef: make([]float64, len(r.pred.Model.Coef)), Intercept: m.Intercept}
	for i, k := range r.pred.Kept {
		offline.Coef[k] = m.Coef[i]
	}
	if !reflect.DeepEqual(r.coef, offline.Coef) || r.intercept != offline.Intercept {
		t.Fatalf("promoted β diverges from offline refit:\nlive    %v / %v\noffline %v / %v",
			r.coef, r.intercept, offline.Coef, offline.Intercept)
	}

	// Post-swap reconciliation: replaying jobs 193..304 offline through
	// a fresh governor under the refit model matches the served energy
	// to within 1% and the served miss count exactly. (The only drift
	// allowed is the initial DVFS level: the served stream inherits the
	// canary era's level, the fresh stepper starts at nominal.)
	stp, err := r.profile.Stepper()
	if err != nil {
		t.Fatal(err)
	}
	var offE float64
	offMiss := 0
	for i := 192; i < 304; i++ {
		tr := r.traces[i]
		tr.PredSeconds = r.pred.PredictClamped(offline, tr.SliceFeatures)
		jr := stp.Step(tr, r.profile.Deadline)
		offE += jr.Energy
		if jr.Missed {
			offMiss++
		}
	}
	if math.Abs(r.postEnergy-offE) > 0.01*offE {
		t.Errorf("post-swap served energy %v vs offline replay %v (>1%% apart)", r.postEnergy, offE)
	}
	if r.postMisses != offMiss {
		t.Errorf("post-swap served misses %d vs offline replay %d", r.postMisses, offMiss)
	}

	// Rerun under a different worker count: training fan-out must not
	// leak into the serving stream — everything is bit-identical.
	r2 := runDriftSoak(t, 4)
	if !reflect.DeepEqual(r.online, r2.online) {
		t.Errorf("trainer stats diverge across worker counts:\n%+v\n%+v", r.online, r2.online)
	}
	if !reflect.DeepEqual(r.pool, r2.pool) {
		t.Errorf("pool stats diverge across worker counts:\n%+v\n%+v", r.pool, r2.pool)
	}
	if !reflect.DeepEqual(r.coef, r2.coef) || r.intercept != r2.intercept {
		t.Errorf("promoted β diverges across worker counts")
	}
	if r.postEnergy != r2.postEnergy || r.postMisses != r2.postMisses {
		t.Errorf("post-swap accounting diverges across worker counts: %v/%d vs %v/%d",
			r.postEnergy, r.postMisses, r2.postEnergy, r2.postMisses)
	}
}

// TestServeDriftModelStatus: the promoted model is visible through the
// pool's model-status report (the /v1/model payload).
func TestServeDriftModelStatus(t *testing.T) {
	p := trainStencil(t)
	prof := stencilProfile(p)
	next := &model.Predictor{Coef: make([]float64, len(p.Model.Coef)), Intercept: p.Model.Intercept}
	copy(next.Coef, p.Model.Coef)
	if _, err := p.SwapModel(next); err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.NewPool(cluster.Config{Shard: serve.ShardConfig{Name: "stencil", Profile: prof,
		Online: &online.Config{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ms, ok := pool.ModelStatus()
	if !ok {
		t.Fatal("predictor-backed pool reports no model status")
	}
	if ms.Version != 1 || !ms.Online || ms.Pool != "stencil" {
		t.Fatalf("model status: %+v", ms)
	}
	if len(ms.Model) != len(p.Kept) {
		t.Fatalf("model status exposes %d coefficients, want %d kept", len(ms.Model), len(p.Kept))
	}
}
