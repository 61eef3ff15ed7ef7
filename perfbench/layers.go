package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/instrument"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/slice"
)

// stage is one kind of traced span. Spans are recorded from this
// package, around its calls into each layer's public functions.
type stage int

const (
	stTrace stage = iota
	stSlice
	stPredict
	stFull
	stSubmit
	stHarness
	stDrain
	stWarm
	stReplay
	stAnalyze
	stLint
	stInstrument
	stAbsint
	stTrainSim
	stFit
	stSliceGen
	stTrain
	stCollect
	stPredictLoop
	stStep
	stProject
	stSelect
	stObserve
	numStages
)

const noParent stage = -1

// stageInfo names each stage and the stage whose span encloses it, so a
// stage's self time is its total minus its children's totals.
var stageInfo = [numStages]struct {
	name   string
	parent stage
}{
	stTrace:       {"core.trace", noParent}, // the staged equivalent of JobSimulator.Trace
	stSlice:       {"rtl.slice", stTrace},   // accel.RunJob on the slice + Slice.ReadFeatures
	stPredict:     {"core.predict", stTrace},
	stFull:        {"rtl.full", stTrace}, // JobSimulator.Execute
	stSubmit:      {"cluster.submit", noParent},
	stHarness:     {"bench.harness", noParent}, // the generator's own loop
	stDrain:       {"cluster.drain", noParent}, // last outcomes, Pool.Close
	stWarm:        {"exp.warm", noParent},
	stReplay:      {"exp.replay", noParent},
	stAnalyze:     {"analyze", noParent},
	stLint:        {"lint", noParent},
	stInstrument:  {"instrument", noParent},
	stAbsint:      {"absint", noParent}, // Bounds + Prune
	stTrainSim:    {"frontend.train_sim", noParent},
	stFit:         {"model.fit", noParent}, // SelectGamma
	stSliceGen:    {"slice", noParent},
	stTrain:       {"core.train", noParent},
	stCollect:     {"core.collect", noParent},
	stPredictLoop: {"core.predict_loop", noParent},
	stStep:        {"sim.step", noParent},
	stProject:     {"sim.project", noParent},
	stSelect:      {"dvfs.select", noParent},
	stObserve:     {"online.observe", noParent},
}

// spans keeps one traced timeline's spans in memory, aggregated per
// stage — how many ended and their summed duration — plus the RTL ticks
// its staged jobs ran. One goroutine owns each spans value; write prints
// it when the benchmark ends.
type spans struct {
	label             string
	count             [numStages]int
	total             [numStages]time.Duration
	ticks, sliceTicks uint64
}

func newSpans(label string) *spans { return &spans{label: label} }

func (s *spans) add(st stage, d time.Duration) { s.addN(st, d, 1) }

func (s *spans) addN(st stage, d time.Duration, n int) {
	s.count[st] += n
	s.total[st] += d
}

// lap ends the span that began at *mark and starts the next one at the
// same instant, so consecutive stages tile the timeline without gaps.
func (s *spans) lap(st stage, mark *time.Time) {
	now := time.Now() //detlint:allow traced span boundary
	s.add(st, now.Sub(*mark))
	*mark = now
}

func (s *spans) self(st stage) time.Duration {
	d := s.total[st]
	for c := range stageInfo {
		if stageInfo[c].parent == st {
			d -= s.total[c]
		}
	}
	return d
}

// selfSum is the summed self time of every stage: the part of the
// timeline the spans account for.
func (s *spans) selfSum() time.Duration {
	var d time.Duration
	for st := stage(0); st < numStages; st++ {
		d += s.self(st)
	}
	return d
}

func (s *spans) meanNS(st stage) float64 {
	if s.count[st] == 0 {
		return 0
	}
	return float64(s.total[st].Nanoseconds()) / float64(s.count[st])
}

func (s *spans) meanUS(st stage) float64 { return s.meanNS(st) / 1e3 }

func (s *spans) write(w io.Writer) {
	for st := stage(0); st < numStages; st++ {
		if s.count[st] == 0 {
			continue
		}
		parent := "-"
		if p := stageInfo[st].parent; p != noParent {
			parent = stageInfo[p].name
		}
		fmt.Fprintf(w, "# span %s %s parent=%s n=%d total_s=%.6f self_s=%.6f mean_us=%.3f\n",
			s.label, stageInfo[st].name, parent, s.count[st], s.total[st].Seconds(), s.self(st).Seconds(), s.meanUS(st))
	}
}

// stager runs one job stage by stage through public calls — the slice
// simulation and its feature read-out, the live model's prediction,
// the full design — and assembles the JobTrace that JobSimulator.Trace
// would return for it (Items, which only the HLS cost model reads, stays
// zero). Submitting that trace serves the job exactly as submitting its
// payload does; the benchmark checks this.
type stager struct {
	pred  *core.Predictor
	slice *rtl.Sim
	js    *core.JobSimulator
}

func newStager(p *core.Predictor) *stager {
	return &stager{pred: p, slice: rtl.NewSim(p.Slice.M), js: p.NewJobSimulator()}
}

func (s *stager) stage(job accel.Job, sp *spans, mark *time.Time) (core.JobTrace, error) {
	p := s.pred
	start := *mark
	sliceTicks, err := accel.RunJob(s.slice, job, p.Spec.MaxTicks)
	if err != nil {
		return core.JobTrace{}, fmt.Errorf("%s slice: %w", p.Spec.Name, err)
	}
	feats := p.Slice.ReadFeatures(s.slice)
	sp.lap(stSlice, mark)
	pred := p.PredFromSliceOrFloor(feats)
	sp.lap(stPredict, mark)
	tr, err := s.js.Execute(job)
	if err != nil {
		return core.JobTrace{}, err
	}
	sp.lap(stFull, mark)
	tr.PredSeconds = pred
	tr.SliceTicks = sliceTicks
	tr.SliceSeconds = p.Spec.Seconds(sliceTicks)
	tr.SliceFeatures = feats
	sp.ticks += tr.Ticks
	sp.sliceTicks += sliceTicks
	now := time.Now() //detlint:allow traced span boundary
	sp.add(stTrace, now.Sub(start))
	*mark = now
	return tr, nil
}

// sameTrace compares everything a served job reads from its trace.
func sameTrace(a, b core.JobTrace) bool {
	return a.Ticks == b.Ticks && a.Seconds == b.Seconds && a.Cycles == b.Cycles &&
		a.PredSeconds == b.PredSeconds && a.SliceTicks == b.SliceTicks &&
		a.SliceSeconds == b.SliceSeconds && a.Class == b.Class &&
		reflect.DeepEqual(a.SliceFeatures, b.SliceFeatures)
}

// redrive repeats core.Train's front end for each predictor from outside
// the core package, one public call per stage, and reports where it does
// not select the same features at the same γ as core.Train did.
func redrive(preds []*core.Predictor, train [][]accel.Job, sp *spans) ([]string, error) {
	var bad []string
	for i, p := range preds {
		spec := p.Spec
		mark := time.Now() //detlint:allow traced span boundary
		m := spec.Build()
		a := analyze.Analyze(m)
		sp.lap(stAnalyze, &mark)
		if rep := lint.RunAnalyzed(m, a, lint.Config{}); rep.HasErrors() {
			return nil, fmt.Errorf("%s: lint: %w", spec.Name, rep.Err())
		}
		sp.lap(stLint, &mark)
		ins, err := instrument.WithAnalysis(m, a)
		if err != nil {
			return nil, fmt.Errorf("%s: instrument: %w", spec.Name, err)
		}
		sp.lap(stInstrument, &mark)
		bounds := absint.Bounds(ins.M)
		regs := make([]int, len(ins.Features))
		for k, f := range ins.Features {
			regs[k] = f.Witness
		}
		fullM := ins.M
		if core.PruningEnabled() {
			pruned, regMap := absint.Prune(ins.M, regs)
			for k, r := range regs {
				nr, ok := regMap[r]
				if !ok {
					return nil, fmt.Errorf("%s: prune dropped witness register %d", spec.Name, r)
				}
				regs[k] = nr
			}
			fullM = pruned
		}
		sp.lap(stAbsint, &mark)
		s := rtl.NewSim(fullM)
		X := make([][]float64, len(train[i]))
		y := make([]float64, len(train[i]))
		for j, job := range train[i] {
			ticks, err := accel.RunJob(s, job, spec.MaxTicks)
			if err != nil {
				return nil, fmt.Errorf("%s: train job %d: %w", spec.Name, j, err)
			}
			if !bounds.Contains(ticks) {
				return nil, fmt.Errorf("%s: train job %d ran %d ticks, outside static bounds %s", spec.Name, j, ticks, bounds)
			}
			row := make([]float64, len(regs))
			for k, r := range regs {
				row[k] = float64(s.RegValue(r))
			}
			X[j], y[j] = row, spec.Seconds(ticks)
		}
		sp.lap(stTrainSim, &mark)
		fit, gamma, err := model.SelectGamma(X, y, 0.25, model.DefaultConfig(), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: fit: %w", spec.Name, err)
		}
		sp.lap(stFit, &mark)
		kept := fit.NonZero()
		if len(kept) == 0 {
			kept = []int{0}
		}
		so := slice.DefaultOptions()
		so.Prune = core.PruningEnabled()
		if _, err := slice.Slice(ins, kept, so); err != nil {
			return nil, fmt.Errorf("%s: slice: %w", spec.Name, err)
		}
		sp.lap(stSliceGen, &mark)
		if gamma != p.Gamma || !reflect.DeepEqual(kept, p.Kept) {
			bad = append(bad, fmt.Sprintf("%s: re-driven front end kept %v at gamma %g; core.Train kept %v at gamma %g",
				spec.Name, kept, gamma, p.Kept, p.Gamma))
		}
	}
	return bad, nil
}

// probeCalls is how many calls a standalone loop times at once, so the
// clock's own cost vanishes from calls that take tens of nanoseconds.
const probeCalls = 20000

var (
	sinkF   float64
	sinkJob sim.JobResult
	sinkDec dvfs.Decision
)

func loopReps(n int) int { return max(1, probeCalls/n) }

// predictProbe times PredFromSliceOrFloor — the live model's dot product
// and clamps — over each pool's trace features. It advances the
// predictors' BoundClamps counters, so it runs after they are read.
func predictProbe(preds []*core.Predictor, traces [][]core.JobTrace, sp *spans) {
	for p, pred := range preds {
		trs := traces[p]
		if len(trs) == 0 {
			continue
		}
		reps := loopReps(len(trs))
		t0 := time.Now() //detlint:allow standalone layer timing
		for r := 0; r < reps; r++ {
			for _, tr := range trs {
				sinkF += pred.PredFromSliceOrFloor(tr.SliceFeatures)
			}
		}
		sp.addN(stPredictLoop, time.Since(t0), reps*len(trs)) //detlint:allow standalone layer timing
	}
}

// stepperProbe times the governor twin's Project and Step and the DVFS
// level selection over each pool's traces at a fresh deadline.
func stepperProbe(cfgs []cluster.Config, traces [][]core.JobTrace, sp *spans) error {
	for p, c := range cfgs {
		trs := traces[p]
		if len(trs) == 0 {
			continue
		}
		prof := c.Shard.Profile
		st, err := prof.Stepper()
		if err != nil {
			return err
		}
		reps := loopReps(len(trs))
		n := reps * len(trs)
		t0 := time.Now() //detlint:allow standalone layer timing
		for r := 0; r < reps; r++ {
			for _, tr := range trs {
				sinkJob = st.Project(tr, prof.Deadline, false)
			}
		}
		t1 := time.Now() //detlint:allow standalone layer timing
		sp.addN(stProject, t1.Sub(t0), n)
		for r := 0; r < reps; r++ {
			for _, tr := range trs {
				sinkJob = st.Step(tr, prof.Deadline)
			}
		}
		t2 := time.Now() //detlint:allow standalone layer timing
		sp.addN(stStep, t2.Sub(t1), n)
		dev := prof.Device
		for r := 0; r < reps; r++ {
			for _, tr := range trs {
				sinkDec = dev.Select(dvfs.Request{
					PredictedT0: tr.PredSeconds, Margin: prof.Margin * tr.PredSeconds, Budget: prof.Deadline,
					SliceTime: tr.SliceSeconds, SwitchTime: dev.SwitchTime,
				})
			}
		}
		sp.addN(stSelect, time.Since(t2), n) //detlint:allow standalone layer timing
	}
	return nil
}

// runtimeStats is a snapshot of the Go runtime's allocation counters and
// heap in use (runtime.MemStats.HeapInuse, read without stopping the
// world).
type runtimeStats struct{ alloc, gcs, heap uint64 }

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{alloc: s[0].Value.Uint64(), gcs: s[1].Value.Uint64(), heap: s[2].Value.Uint64() + s[3].Value.Uint64()}
}

// heapSampleEvery is how often the timed phase samples the heap in use.
const heapSampleEvery = time.Millisecond

// quantile returns the q-quantile of xs, interpolating between closest
// ranks; it sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// setUp runs build cfg.setups times and returns the last result with the
// median host time of the runs: setup_s.
func setUp[T any](cfg config, build func() (T, error)) (T, float64, error) {
	var out T
	var times []float64
	for i := 0; i < max(1, cfg.setups); i++ {
		t0 := time.Now() //detlint:allow set-up timing
		v, err := build()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(t0).Seconds()) //detlint:allow set-up timing
		out = v
	}
	return out, median(times), nil
}

// timed keeps starting passes until cfg.seconds of host time have passed
// and at least one untraced pass (and, with tracing, one traced pass)
// has run. Traced passes alternate with untraced ones.
func timed(cfg config, minPlain int, pass func(traced bool) error) error {
	start := time.Now() //detlint:allow length of the timed phase
	var plain, traced int
	for {
		tr := cfg.trace && traced < plain
		if err := pass(tr); err != nil {
			return err
		}
		if tr {
			traced++
		} else {
			plain++
		}
		elapsed := time.Since(start).Seconds() //detlint:allow length of the timed phase
		if elapsed >= cfg.seconds && plain >= minPlain && (!cfg.trace || traced > 0) {
			return nil
		}
	}
}
