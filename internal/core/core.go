// Package core implements the paper's central contribution: an
// automated flow that, given an accelerator netlist and a training
// workload, produces an execution-time predictor consisting of
//
//  1. an instrumented design whose FSM/counter features are recorded in
//     witness registers (§3.2–§3.3),
//  2. a sparse linear model mapping features to execution time, trained
//     with the asymmetric Lasso objective (§3.4),
//  3. a hardware slice that computes exactly the model's selected
//     features in a fraction of the accelerator's time and area (§3.5).
//
// The Predictor produced here is what the DVFS controller of package
// control consults before each job (§3.6): run the slice on the job's
// input, evaluate the dot product, choose the lowest safe DVFS level.
//
// Everything is automatic: no stage receives benchmark-specific
// knowledge beyond the netlist and the job bytes.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/analyze"
	"repro/internal/instrument"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/rtl"

	// Register the pre-generated native simulators for the benchmark
	// suite: with this import, the native default engine resolves suite
	// netlists (full designs, pruned twins, timing cones, predictor
	// slices) to specialized straight-line code in every flow built on
	// core.
	_ "repro/internal/rtl/native"

	"repro/internal/slice"
)

// Options configures Train.
type Options struct {
	// Seed drives workload generation when TrainJobs is nil.
	Seed int64
	// TrainJobs overrides the spec's training workload.
	TrainJobs []accel.Job
	// Model holds solver hyper-parameters; zero value = defaults.
	Model model.Config
	// Gammas overrides the γ path for sparsity selection.
	Gammas []float64
	// Slice holds slicing options; zero value = DefaultOptions.
	Slice *slice.Options
	// SkipLint bypasses the pre-instrumentation lint gate (for
	// experiments on deliberately broken designs).
	SkipLint bool
}

// Predictor is a trained execution-time predictor for one accelerator.
type Predictor struct {
	// Spec is the accelerator this predictor was trained for.
	Spec accel.Spec
	// Ins is the instrumented full design: the source of the feature
	// catalog, the hardware slice and the timing cone.
	Ins *instrument.Instrumented
	// Model maps full feature vectors to execution seconds at nominal
	// frequency.
	Model *model.Predictor
	// Gamma is the selected L1 weight.
	Gamma float64
	// Kept lists the feature indices with non-zero coefficients — the
	// features the hardware slice must compute.
	Kept []int
	// Slice is the generated hardware slice.
	Slice *slice.Result
	// TrainErr summarizes accuracy on the training set.
	TrainErr model.Errors
	// Bounds is the static cycles-to-done interval of the full
	// instrumented design, from abstract interpretation. Predictions are
	// clamped into it (a prediction outside the provable interval is
	// physically impossible), and every observed ground-truth run (the
	// timing cone's, whose ticks equal the full design's) is checked
	// against it — an out-of-bounds trace means an engine or analysis
	// bug, and hard-errors. The zero value (Min 0, unbounded Max)
	// disables both, so hand-built predictors stay valid.
	Bounds absint.CycleBounds
	// SliceBounds is the same interval for the hardware slice; observed
	// slice runs are checked against it.
	SliceBounds absint.CycleBounds

	// coneSim runs the timing cone (see TimingCone), the ground-truth
	// simulator; coneItems are its IC witness registers.
	coneSim   *rtl.Sim
	coneItems []int
	sliceSim  *rtl.Sim

	// boundClamps counts predictions pulled into Bounds (see
	// PredFromSliceOrFloor); exposed in serving metrics.
	boundClamps atomic.Uint64

	// live is the serving model: nil means Model (version 0, the
	// offline-trained β); after a SwapModel it points at the promoted
	// refit. An atomic pointer so the serving hot path never takes a
	// lock and a swap is one word store (see SwapModel).
	live atomic.Pointer[liveModel]
}

// Train runs the full offline flow of Figure 6 for one accelerator.
func Train(spec accel.Spec, opt Options) (*Predictor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := spec.Build()
	// Lint before instrumenting (which appends witness hardware in
	// place): error-severity findings are violations of obligations the
	// rest of the flow silently depends on — an unqualified counter load
	// or an escaping wait counter would corrupt features, not crash.
	// The structural analysis is shared with the instrumenter.
	a := analyze.Analyze(m)
	if !opt.SkipLint {
		if rep := lint.RunAnalyzed(m, a, lint.Config{}); rep.HasErrors() {
			return nil, fmt.Errorf("core: %s failed pre-train lint: %w", spec.Name, rep.Err())
		}
	}
	ins, err := instrument.WithAnalysis(m, a)
	if err != nil {
		return nil, fmt.Errorf("core: instrument %s: %w", spec.Name, err)
	}
	jobs := opt.TrainJobs
	if jobs == nil {
		jobs = spec.TrainJobs(opt.Seed)
	}
	if len(jobs) < 8 {
		return nil, fmt.Errorf("core: %s: %d training jobs is too few", spec.Name, len(jobs))
	}

	// RTL simulation of the training set: features + execution time.
	// Jobs are independent and fan out across worker goroutines, each
	// owning a private Sim clone; results land in index-addressed slots
	// and are identical to a serial run. The full-design simulators run
	// the absint-pruned twin: identical cycle-for-cycle on done,
	// memories, and every witness register, but with proven-constant
	// logic folded away.
	fullM, featRegs, err := bindFull(ins)
	if err != nil {
		return nil, err
	}
	// Static cycle bounds of the instrumented design double as a free
	// engine-bug tripwire: any observed run outside the provable
	// interval is a hard error, not a bad sample. (The bounds hold for
	// the pruned twin too — pruning is behavior-preserving.)
	bounds := absint.Bounds(ins.M)
	readFeats := func(s *rtl.Sim) []float64 {
		out := make([]float64, len(featRegs))
		for i, ri := range featRegs {
			out[i] = float64(s.RegValue(ri))
		}
		return out
	}
	sim := rtl.NewSim(fullM)
	simJobs.Add(uint64(len(jobs)))
	X := make([][]float64, len(jobs))
	y := make([]float64, len(jobs))
	newState := func() *rtl.Sim { return sim.Clone() }
	runJob := func(s *rtl.Sim, i, attempt int) error {
		if err := FaultInjector().ErrN(FaultJob, fmt.Sprintf("train/%s/%d", spec.Name, i), attempt); err != nil {
			return fmt.Errorf("core: %s train job %d: %w", spec.Name, i, err)
		}
		ticks, err := accel.RunJob(s, jobs[i], spec.MaxTicks)
		if err != nil {
			return fmt.Errorf("core: %s train job %d: %w", spec.Name, i, err)
		}
		if !bounds.Contains(ticks) {
			return fmt.Errorf("core: %s train job %d: observed %d ticks outside static bounds %s — engine or analysis bug",
				spec.Name, i, ticks, bounds)
		}
		X[i] = readFeats(s)
		y[i] = spec.Seconds(ticks)
		return nil
	}
	if err := runParallel(len(jobs), newState, runJob); err != nil {
		return nil, err
	}

	cfg := opt.Model
	if cfg.Alpha == 0 {
		cfg = model.DefaultConfig()
	}
	p, gamma, err := model.SelectGamma(X, y, 0.25, cfg, opt.Gammas)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", spec.Name, err)
	}
	kept := p.NonZero()
	if len(kept) == 0 {
		// Constant-time accelerator: the model is its intercept. The
		// slice still needs one witness so the flow stays uniform; keep
		// the cheapest (first) feature.
		kept = []int{0}
	}

	so := slice.DefaultOptions()
	if opt.Slice != nil {
		so = *opt.Slice
	}
	sl, err := slice.Slice(ins, kept, so)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", spec.Name, err)
	}
	pred := &Predictor{
		Spec:        spec,
		Ins:         ins,
		Model:       p,
		Gamma:       gamma,
		Kept:        kept,
		Slice:       sl,
		TrainErr:    model.Evaluate(p, X, y),
		Bounds:      bounds,
		SliceBounds: absint.Bounds(sl.M),
	}
	return pred.withSims()
}

// withSims binds the predictor's simulators: the hardware slice and
// the timing cone its JobSimulators run for ground truth.
func (p *Predictor) withSims() (*Predictor, error) {
	cone, err := TimingCone(p.Ins)
	if err != nil {
		return nil, err
	}
	p.coneSim, p.coneItems = rtl.NewSim(cone.M), itemRegs(p.Ins, cone)
	p.sliceSim = rtl.NewSim(p.Slice.M)
	return p, nil
}

// liveModel pairs a hot-swapped β with its monotonically increasing
// version so readers observe both atomically.
type liveModel struct {
	m       *model.Predictor
	version uint64
}

// LiveModel returns the model predictions are currently served from:
// the training-time Model until a SwapModel, the latest promoted refit
// after. Safe for concurrent use.
func (p *Predictor) LiveModel() *model.Predictor {
	if lm := p.live.Load(); lm != nil {
		return lm.m
	}
	return p.Model
}

// ModelVersion returns the live model's version: 0 for the offline
// training-time β, incremented once per promoted swap. Safe for
// concurrent use.
func (p *Predictor) ModelVersion() uint64 {
	if lm := p.live.Load(); lm != nil {
		return lm.version
	}
	return 0
}

// SwapModel atomically replaces the serving model with m and returns
// the new version. The model must be full-width (one coefficient per
// instrumented feature, like Model) and finite; the slice hardware is
// fixed, so a swapped model may only use the Kept features — any
// non-zero coefficient outside Kept is rejected, because the serving
// path would silently read garbage for features the slice never
// computes.
//
// Version assignment assumes one swapping owner (the online trainer);
// readers are fully concurrent-safe, but two goroutines swapping at
// once could mint the same version.
func (p *Predictor) SwapModel(m *model.Predictor) (uint64, error) {
	if m == nil {
		return 0, fmt.Errorf("core: %s: swap of nil model", p.Spec.Name)
	}
	if len(m.Coef) != len(p.Model.Coef) {
		return 0, fmt.Errorf("core: %s: swapped model has %d coefficients, predictor has %d",
			p.Spec.Name, len(m.Coef), len(p.Model.Coef))
	}
	if math.IsNaN(m.Intercept) || math.IsInf(m.Intercept, 0) {
		return 0, fmt.Errorf("core: %s: swapped model has non-finite intercept", p.Spec.Name)
	}
	kept := make(map[int]bool, len(p.Kept))
	for _, k := range p.Kept {
		kept[k] = true
	}
	for j, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return 0, fmt.Errorf("core: %s: swapped model has non-finite coefficient at %d", p.Spec.Name, j)
		}
		if c != 0 && !kept[j] {
			return 0, fmt.Errorf("core: %s: swapped model uses feature %d outside the hardware slice", p.Spec.Name, j)
		}
	}
	version := p.ModelVersion() + 1
	p.live.Store(&liveModel{m: m, version: version})
	return version, nil
}

// PredictFromSlice evaluates the live model given the slice's feature
// values (aligned with Kept). This is the runtime dot product of §3.4.
func (p *Predictor) PredictFromSlice(sliceFeats []float64) float64 {
	return predictSlice(p.LiveModel(), p.Kept, sliceFeats)
}

func predictSlice(m *model.Predictor, kept []int, sliceFeats []float64) float64 {
	yhat := m.Intercept
	for i, k := range kept {
		yhat += m.Coef[k] * sliceFeats[i]
	}
	return yhat
}

// JobTrace records one test job's ground truth and predictor outputs.
// Controllers and experiments replay traces: cycle counts are
// frequency-independent (T = C/f, §3.6), so each job's RTL simulation
// runs once no matter how many schemes and deadlines are evaluated.
//
// The ground truth (Ticks, Seconds, Cycles, Items) is simulated on the
// timing cone (see TimingCone), not the full design. It is exact: the
// cone keeps everything done and the IC witnesses depend on, with no
// wait elided, so done fires on the full design's cycle.
type JobTrace struct {
	// Ticks and Seconds are the full design's execution at nominal.
	Ticks   uint64
	Seconds float64
	// Cycles is Ticks scaled to hardware cycles.
	Cycles float64
	// PredSeconds is the slice-driven model prediction of Seconds.
	PredSeconds float64
	// SliceTicks and SliceSeconds are the slice's own execution time.
	SliceTicks   uint64
	SliceSeconds float64
	// SliceFeatures are the kept features' values (aligned with
	// Predictor.Kept); equal to the full design's values by the slicing
	// invariant.
	SliceFeatures []float64
	// Items is the job's work-item count, read as the largest counter
	// initialization count (IC) across all instrumented features (the
	// cone's IC witnesses) — the number of iterations any
	// feature-computing loop must make. Used by the HLS slicing
	// extension's cost model (§4.5).
	Items float64
	// Class is the job's coarse parameter (for table-based control).
	Class string
}

// JobSimulator owns private simulator clones and turns individual jobs
// into JobTraces — the per-job, online analogue of CollectTraces. Its
// ground truth comes from the timing cone (see TimingCone), whose done
// cycle and IC witnesses equal the full design's because nothing they
// depend on is cut. A JobSimulator is NOT safe for concurrent use; each
// goroutine (worker, serving shard) creates its own, which is cheap
// because the step functions and ROM images are shared read-only
// through Clone.
type JobSimulator struct {
	p           *Predictor
	cone, slice *rtl.Sim
}

// NewJobSimulator returns a simulator bound to this predictor with
// private clones of the timing cone and the slice.
func (p *Predictor) NewJobSimulator() *JobSimulator {
	return &JobSimulator{p: p, cone: p.coneSim.Clone(), slice: p.sliceSim.Clone()}
}

// Engines reports the engines actually executing the predictor's
// hardware slice and its full-design ground truth, the timing cone.
// Under the native default, a netlist without a registered generated
// step reports the plan fallback.
func (p *Predictor) Engines() (slice, full rtl.Engine) {
	return p.sliceSim.Engine(), p.coneSim.Engine()
}

// Engines reports the engines actually executing this simulator's
// slice — the latency-critical simulator on the serving path — and its
// full-design ground truth, the timing cone (exact: see TimingCone).
// When the default engine is native but a netlist has no registered
// generated step, it reports the plan fallback, making a silently
// stale registry observable (see rtl.NativeFallbacks).
func (js *JobSimulator) Engines() (slice, full rtl.Engine) {
	return js.slice.Engine(), js.cone.Engine()
}

// Prediction is the slice half of a JobTrace: what the runtime loop
// knows about a job before running it.
type Prediction struct {
	// SliceTicks is the slice's own execution time in IR ticks.
	SliceTicks uint64
	// Features are the kept features' values, aligned with
	// Predictor.Kept.
	Features []float64
	// Seconds is the live model's clamped prediction of the job's
	// execution time at nominal frequency (see PredFromSliceOrFloor).
	Seconds float64
}

// Predict runs one job on the hardware slice and evaluates the live
// model on the slice's features: the prediction step of §3.6, without
// the full design. Job memories are checked against the instrumented
// design and only those the slice kept are loaded (see accel.RunCone),
// so Predict accepts exactly the jobs the full design accepts.
func (js *JobSimulator) Predict(job accel.Job) (Prediction, error) {
	simJobs.Add(1)
	p := js.p
	ticks, err := accel.RunCone(js.slice, p.Ins.M, job, p.Spec.MaxTicks)
	if err != nil {
		return Prediction{}, fmt.Errorf("core: %s slice job: %w", p.Spec.Name, err)
	}
	if !p.SliceBounds.Contains(ticks) {
		return Prediction{}, fmt.Errorf("core: %s: observed %d slice ticks outside static bounds %s — engine or analysis bug",
			p.Spec.Name, ticks, p.SliceBounds)
	}
	feats := p.Slice.ReadFeatures(js.slice)
	return Prediction{SliceTicks: ticks, Features: feats, Seconds: p.PredFromSliceOrFloor(feats)}, nil
}

// Complete runs one job on the timing cone and joins the ground truth
// with the job's earlier Prediction into its JobTrace.
func (js *JobSimulator) Complete(job accel.Job, pr Prediction) (JobTrace, error) {
	ticks, err := js.runCone(job)
	if err != nil {
		return JobTrace{}, err
	}
	p := js.p
	var items float64
	for _, ri := range p.coneItems {
		items = max(items, float64(js.cone.RegValue(ri)))
	}
	return JobTrace{
		Items:         items,
		Ticks:         ticks,
		Seconds:       p.Spec.Seconds(ticks),
		Cycles:        p.Spec.Cycles(ticks),
		PredSeconds:   pr.Seconds,
		SliceTicks:    pr.SliceTicks,
		SliceSeconds:  p.Spec.Seconds(pr.SliceTicks),
		SliceFeatures: pr.Features,
		Class:         job.Class,
	}, nil
}

// Trace runs one job on the hardware slice and then the timing cone,
// returning its complete trace (the slice-driven prediction plus
// ground-truth cycles). It is Predict followed by Complete.
func (js *JobSimulator) Trace(job accel.Job) (JobTrace, error) {
	pr, err := js.Predict(job)
	if err != nil {
		return JobTrace{}, err
	}
	return js.Complete(job, pr)
}

// runCone runs one job on the timing cone and checks the observed tick
// count against the full design's static bounds, which hold for the
// cone because its ticks are the full design's: a run escaping the
// provable interval can only mean a simulation-engine or analysis bug,
// never a legitimate sample. Job memories are checked against the
// instrumented design (see accel.RunCone).
func (js *JobSimulator) runCone(job accel.Job) (uint64, error) {
	simJobs.Add(1)
	p := js.p
	ticks, err := accel.RunCone(js.cone, p.Ins.M, job, p.Spec.MaxTicks)
	if err != nil {
		return 0, fmt.Errorf("core: %s job: %w", p.Spec.Name, err)
	}
	if !p.Bounds.Contains(ticks) {
		return 0, fmt.Errorf("core: %s: observed %d ticks outside static bounds %s — engine or analysis bug",
			p.Spec.Name, ticks, p.Bounds)
	}
	return ticks, nil
}

// Execute runs one job on the timing cone only (the full design's
// exact done cycle, see TimingCone), skipping the slice and the
// prediction — the serving layer's degraded path, where the job runs at
// maximum frequency and the predictor is bypassed entirely. Prediction
// fields and Items are zero.
func (js *JobSimulator) Execute(job accel.Job) (JobTrace, error) {
	ticks, err := js.runCone(job)
	if err != nil {
		return JobTrace{}, err
	}
	p := js.p
	return JobTrace{
		Ticks:   ticks,
		Seconds: p.Spec.Seconds(ticks),
		Cycles:  p.Spec.Cycles(ticks),
		Class:   job.Class,
	}, nil
}

// CollectTraces runs each job on both the timing cone and the slice,
// returning per-job traces. Jobs fan out across worker goroutines (see
// SetWorkers), each with a private JobSimulator; trace slots are
// index-addressed, so the result is byte-identical to a serial run.
func (p *Predictor) CollectTraces(jobs []accel.Job) ([]JobTrace, error) {
	traces := make([]JobTrace, len(jobs))
	runJob := func(js *JobSimulator, i, attempt int) error {
		if err := FaultInjector().ErrN(FaultJob, fmt.Sprintf("traces/%s/%d", p.Spec.Name, i), attempt); err != nil {
			return fmt.Errorf("core: job %d: %w", i, err)
		}
		tr, err := js.Trace(jobs[i])
		if err != nil {
			return fmt.Errorf("core: job %d: %w", i, err)
		}
		traces[i] = tr
		return nil
	}
	if err := runParallel(len(jobs), p.NewJobSimulator, runJob); err != nil {
		return nil, err
	}
	return traces, nil
}

// PredFromSliceOrFloor clamps predictions at a small positive floor so
// downstream frequency demands stay meaningful. A NaN prediction (a
// poisoned model row) maps to +Inf — an unbounded demand the DVFS layer
// resolves to "infeasible, run at the highest permitted level" — rather
// than comparing false against the floor and escaping unclamped.
//
// Finite predictions are additionally clamped into the full design's
// static cycle bounds: a prediction below Seconds(Bounds.Min) claims a
// run the hardware provably cannot finish that fast, and one above
// Seconds(Bounds.Max) (when bounded) claims a run the design provably
// never takes — moving either to the nearest bound is strictly more
// accurate and keeps the under-prediction guarantee sound. Each clamp
// increments the BoundClamps counter.
func (p *Predictor) PredFromSliceOrFloor(sliceFeats []float64) float64 {
	return p.clamp(p.PredictFromSlice(sliceFeats), true)
}

// PredictClamped evaluates an arbitrary full-width model — typically an
// online-refit canary candidate that is not (yet) the live model — on
// slice feature values, with the same NaN/bounds/floor clamps as the
// serving path. Candidate predictions go through the identical safety
// envelope the incumbent enjoys, so a pathological refit can never emit
// values outside the provable cycle interval even while only
// shadow-predicting. Clamps here do not count toward BoundClamps: the
// counter tracks the served model only.
func (p *Predictor) PredictClamped(m *model.Predictor, sliceFeats []float64) float64 {
	return p.clamp(predictSlice(m, p.Kept, sliceFeats), false)
}

func (p *Predictor) clamp(yhat float64, count bool) float64 {
	if math.IsNaN(yhat) {
		return math.Inf(1)
	}
	if lo := p.Spec.Seconds(p.Bounds.Min); yhat < lo {
		yhat = lo
		if count {
			p.boundClamps.Add(1)
		}
	} else if p.Bounds.MaxBounded {
		if hi := p.Spec.Seconds(p.Bounds.Max); yhat > hi {
			yhat = hi
			if count {
				p.boundClamps.Add(1)
			}
		}
	}
	if yhat < 1e-6 {
		yhat = 1e-6
	}
	return yhat
}

// BoundClamps returns how many predictions have been pulled into the
// static cycle bounds since training. Safe to read concurrently.
func (p *Predictor) BoundClamps() uint64 { return p.boundClamps.Load() }

// EvaluateTest computes prediction-error statistics over test jobs,
// comparing slice-driven predictions against full-design ground truth
// (the data behind the paper's Figure 10).
func (p *Predictor) EvaluateTest(jobs []accel.Job) (model.Errors, error) {
	traces, err := p.CollectTraces(jobs)
	if err != nil {
		return model.Errors{}, err
	}
	return TraceErrors(traces), nil
}

// TraceErrors derives error statistics from collected traces.
func TraceErrors(traces []JobTrace) model.Errors {
	X := make([][]float64, len(traces))
	y := make([]float64, len(traces))
	for i, t := range traces {
		X[i] = []float64{t.PredSeconds}
		y[i] = t.Seconds
	}
	ident := &model.Predictor{Coef: []float64{1}}
	return model.Evaluate(ident, X, y)
}

// FeatureNames returns the names of the kept features.
func (p *Predictor) FeatureNames() []string {
	names := make([]string, len(p.Kept))
	all := p.Ins.Names()
	for i, k := range p.Kept {
		names[i] = all[k]
	}
	return names
}

// Report renders a human-readable training summary.
func (p *Predictor) Report() string {
	return fmt.Sprintf(
		"%s: %d features detected, %d kept (gamma=%.3g)\n%s  train error: median %+.2f%%, worst under %+.2f%%, worst over %+.2f%%\n",
		p.Spec.Name, len(p.Ins.Features), len(p.Kept), p.Gamma,
		p.Model.Report(p.Ins.Names()),
		100*p.TrainErr.Median, 100*p.TrainErr.WorstUnder, 100*p.TrainErr.WorstOver)
}
