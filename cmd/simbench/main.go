// Command simbench measures the simulation engines and writes a
// machine-readable BENCH_sim.json so the performance trajectory can be
// tracked across changes.
//
// Usage:
//
//	simbench [-out BENCH_sim.json] [-workers N] [-seed N] [-reps N]
//	         [-designs a,b,...] [-engine E] [-warm]
//
// Every timed cell is samplesPerCell samples; the report keeps each
// cell's median and interquartile range (q1, q3), never a best run,
// and records the host the samples were taken on (GOMAXPROCS, CPU
// count, Go version, commit). Within a cell group the engines take
// their samples round-robin, so background load drifts onto every
// engine alike.
//
// It times and counts only netlist shapes a flow simulates. It
// reports six things:
//
//  1. engine speed (ns/cycle, Mevals/s) for interp, the codegen plan
//     (the native fallback), and native (pre-generated straight-line
//     code) on the Toy design and on every benchmark's ground-truth
//     simulator (core.GroundTruth: the all-witness slice of a certified
//     design, else the timing cone), with per-design speedup ratios.
//     Toy has no generated native simulator by design, so it has no
//     native row (a native request would measure the plan fallback),
//  2. CollectTraces wall-clock swept across worker counts (1, 2, 4, 8,
//     capped at -workers, default GOMAXPROCS) under the native engine,
//  3. trace-collection throughput per benchmark — one CollectTraces
//     job as it runs: the ground-truth simulator plus the slice
//     trained at -seed — plan jobs/s vs native jobs/s and their ratio,
//  4. the wall-clock of warming the full (quick) experiment lab
//     (skipped with -warm=false),
//  5. per benchmark, the ground-truth simulator on native code over
//     several jobs: ns/cycle, µs/job, combinational nodes and memories,
//  6. per benchmark, core.Train at -seed and the γ sweep inside it
//     (model.SelectGamma on the same training matrix), in ms.
//
// -designs restricts sections 1, 3, 5 and 6 to a comma-separated subset of
// benchmarks (CI smoke runs use this). -engine sets the process-wide
// default RTL engine, which section 4 picks up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/instrument"
	"repro/internal/model"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/slice"
	"repro/internal/suite"
	"repro/internal/testdesigns"
)

// samplesPerCell is the number of timed samples behind every reported
// cell.
const samplesPerCell = 7

// Dist summarizes the samples of one timed cell: the median and the
// first and third quartiles (linear interpolation between order
// statistics).
type Dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	K      int     `json:"k"`
}

// newDist summarizes samples (which it sorts in place).
func newDist(samples []float64) Dist {
	sort.Float64s(samples)
	q := func(p float64) float64 {
		pos := p * float64(len(samples)-1)
		lo := int(pos)
		if lo+1 >= len(samples) {
			return samples[lo]
		}
		return samples[lo] + (pos-float64(lo))*(samples[lo+1]-samples[lo])
	}
	return Dist{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), K: len(samples)}
}

// Host records what the numbers depend on.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// EngineResult is one engine's speed on one design: per-cycle cost
// over samplesPerCell samples, each a timed run of -reps jobs.
type EngineResult struct {
	Engine     string `json:"engine"`
	NsPerCycle Dist   `json:"ns_per_cycle"`
	// MevalsPerS is node evaluations per second at the median.
	MevalsPerS float64 `json:"mevals_per_s"`
}

// DesignResult groups the engines' numbers on one design plus the
// headline ratios (of medians; equivalently wall-clock, same work).
type DesignResult struct {
	Design       string         `json:"design"`
	Nodes        int            `json:"nodes"`
	Engines      []EngineResult `json:"engines"`
	PlanVsInterp float64        `json:"plan_vs_interp"`
	// NativeVsPlan compares the pre-generated native code against the
	// plan it was emitted from, run by the fallback evaluator, on the
	// same job; absent for designs without a generated simulator (toy).
	NativeVsPlan float64 `json:"native_vs_plan,omitempty"`
}

// TraceResult reports the job fan-out measurement at one worker count
// under one engine.
type TraceResult struct {
	Benchmark string `json:"benchmark"`
	Engine    string `json:"engine"`
	Jobs      int    `json:"jobs"`
	Workers   int    `json:"workers"`
	Seconds   Dist   `json:"seconds"`
	// Speedup is the 1-worker median over this median, within the same
	// engine's sweep.
	Speedup float64 `json:"speedup"`
}

// ThroughputResult is one benchmark's trace-collection throughput:
// plan vs native on the same work (one CollectTraces job: a
// ground-truth run plus a trained-slice run).
type ThroughputResult struct {
	Benchmark      string  `json:"benchmark"`
	PlanJobsPerS   Dist    `json:"plan_jobs_per_s"`
	NativeJobsPerS Dist    `json:"native_jobs_per_s"`
	NativeVsPlan   float64 `json:"native_vs_plan"`
}

// TruthResult times one benchmark's ground-truth simulator (see
// core.GroundTruth) on the native engine over several jobs.
type TruthResult struct {
	Benchmark string `json:"benchmark"`
	// Simulator names the module: "slice_all" (a certified design's
	// all-witness slice, whose ticks plus closed-form elided cycles
	// are the design's) or "cone" (the timing cone).
	Simulator string `json:"simulator"`
	Jobs      int    `json:"jobs"`
	// Comb counts combinational nodes (rtl.CombNodes); Mems counts
	// memories, each zeroed on every Reset unless the job loads it.
	Comb int `json:"comb"`
	Mems int `json:"mems"`
	// NsPerCycle and UsPerJob time the same samples two ways; cycles
	// are the simulator's own.
	NsPerCycle Dist `json:"ns_per_cycle"`
	UsPerJob   Dist `json:"us_per_job"`
}

// TrainResult times one benchmark's offline training at -seed:
// core.Train end to end, and model.SelectGamma on its training matrix
// (the γ sweep and the refit at the chosen γ, which Train runs after
// simulating the training jobs). The two take their samples
// round-robin.
type TrainResult struct {
	Benchmark string `json:"benchmark"`
	Jobs      int    `json:"jobs"`
	// Columns is the feature count; Varying counts the columns whose
	// values are not all equal, the only ones the solver fits.
	Columns int     `json:"columns"`
	Varying int     `json:"varying"`
	Gamma   float64 `json:"gamma"`
	TrainMs Dist    `json:"train_ms"`
	SweepMs Dist    `json:"sweep_ms"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Generated       string             `json:"generated"`
	Host            Host               `json:"host"`
	SamplesPerCell  int                `json:"samples_per_cell"`
	MaxWorkers      int                `json:"max_workers"`
	Designs         []DesignResult     `json:"designs"`
	WorkerSweep     []TraceResult      `json:"worker_sweep"`
	TraceThroughput []ThroughputResult `json:"trace_throughput"`
	SuiteWallclockS *Dist              `json:"suite_wallclock_s,omitempty"`
	Truth           []TruthResult      `json:"truth"`
	Train           []TrainResult      `json:"train"`
	// NativeFallbacks is rtl.NativeFallbacks at the end of the run:
	// native requests that silently measured the plan fallback.
	NativeFallbacks uint64 `json:"native_fallbacks"`
}

// cell is one engine's timed work within a round-robin group.
type cell struct {
	engine rtl.Engine
	run    func() (uint64, error) // returns the work units done
}

// sampleCells times samplesPerCell samples of every cell, round-robin
// across cells, and returns per-cell samples of seconds per work unit.
func sampleCells(cells []cell) ([][]float64, error) {
	out := make([][]float64, len(cells))
	for _, c := range cells {
		if _, err := c.run(); err != nil { // warm-up, untimed
			return nil, fmt.Errorf("%s: %w", c.engine, err)
		}
	}
	for i := 0; i < samplesPerCell; i++ {
		for ci, c := range cells {
			start := time.Now() //detlint:allow simbench measures wall-clock throughput by design
			units, err := c.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.engine, err)
			}
			out[ci] = append(out[ci], time.Since(start).Seconds()/float64(units))
		}
	}
	return out, nil
}

// measureDesign times one job on a design under each engine, each
// sample reps back-to-back runs. The native engine is measured only
// when a generated simulator is registered for the design.
func measureDesign(design string, m *rtl.Module, reps int,
	runner func(*rtl.Sim) func() (uint64, error)) (DesignResult, error) {
	dr := DesignResult{Design: design, Nodes: m.NumNodes()}
	type engineSim struct {
		engine rtl.Engine
		sim    *rtl.Sim
	}
	sims := []engineSim{{rtl.EngineInterp, rtl.NewInterpSim(m)}, {rtl.EnginePlan, planSim(m)}}
	if step, ok := rtl.NativeStepFor(m); ok {
		sims = append(sims, engineSim{rtl.EngineNative, rtl.NewNativeSim(m, step)})
	}
	var cells []cell
	for _, es := range sims {
		job := runner(es.sim)
		cells = append(cells, cell{engine: es.engine, run: func() (uint64, error) {
			var cycles uint64
			for i := 0; i < reps; i++ {
				c, err := job()
				if err != nil {
					return 0, err
				}
				cycles += c
			}
			return cycles, nil
		}})
	}
	samples, err := sampleCells(cells)
	if err != nil {
		return dr, fmt.Errorf("%s: %w", design, err)
	}
	for ci, c := range cells {
		for i := range samples[ci] {
			samples[ci][i] *= 1e9 // seconds per cycle -> ns per cycle
		}
		d := newDist(samples[ci])
		dr.Engines = append(dr.Engines, EngineResult{
			Engine:     string(c.engine),
			NsPerCycle: d,
			MevalsPerS: float64(m.NumNodes()) / d.Median * 1e3,
		})
	}
	interp, plan := dr.Engines[0].MevalsPerS, dr.Engines[1].MevalsPerS
	dr.PlanVsInterp = plan / interp
	if len(dr.Engines) > 2 {
		dr.NativeVsPlan = dr.Engines[2].MevalsPerS / plan
	}
	return dr, nil
}

// planSim runs the module on the codegen plan, the native fallback,
// without counting a fallback.
func planSim(m *rtl.Module) *rtl.Sim { return rtl.NewNativeSim(m, codegen.Build(m).Step) }

func run() error {
	out := flag.String("out", "BENCH_sim.json", "output path for the JSON report")
	workers := flag.Int("workers", 0, "max parallel job-simulation workers for the sweep (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 42, "workload generation seed")
	reps := flag.Int("reps", 20, "jobs per engine-speed sample")
	designs := flag.String("designs", "", "comma-separated benchmark subset for the throughput sections (default: all)")
	engine := flag.String("engine", "", "process-wide default RTL engine: native or interp (default: native, or $REPRO_ENGINE)")
	warm := flag.Bool("warm", true, "measure the quick-lab warm-up wall-clock")
	flag.Parse()

	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	if *engine != "" {
		if err := rtl.SetDefaultEngine(rtl.Engine(*engine)); err != nil {
			return err
		}
	}
	specs := suite.All()
	if *designs != "" {
		var picked []accel.Spec
		for _, name := range strings.Split(*designs, ",") {
			spec, err := suite.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			picked = append(picked, spec)
		}
		specs = picked
	}

	maxWorkers := *workers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339), //detlint:allow simbench measures wall-clock throughput by design
		Host: Host{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
		},
		SamplesPerCell: samplesPerCell,
		MaxWorkers:     maxWorkers,
	}

	// 1. Engine speed: Toy plus every benchmark.
	toy := testdesigns.Toy()
	items := make([]uint64, 100)
	for i := range items {
		items[i] = testdesigns.ToyItem(i%2 == 0, 20)
	}
	toyJob := testdesigns.ToyJob(items)
	dr, err := measureDesign("toy", toy.M, *reps, func(s *rtl.Sim) func() (uint64, error) {
		return func() (uint64, error) {
			s.Reset()
			if err := s.LoadMem("in", toyJob); err != nil {
				return 0, err
			}
			return s.Run(1 << 20)
		}
	})
	if err != nil {
		return err
	}
	rep.Designs = append(rep.Designs, dr)
	for _, spec := range specs {
		spec := spec
		ins, err := instrument.Instrument(spec.Build())
		if err != nil {
			return err
		}
		truth, name, err := groundTruth(ins)
		if err != nil {
			return err
		}
		job := spec.TestJobs(3)[0]
		dr, err := measureDesign(spec.Name+"_"+name, truth.M, *reps, func(s *rtl.Sim) func() (uint64, error) {
			return func() (uint64, error) { return accel.RunCone(s, ins.M, job, spec.MaxTicks) }
		})
		if err != nil {
			return err
		}
		rep.Designs = append(rep.Designs, dr)
	}

	// 2. CollectTraces fan-out: sweep worker counts 1, 2, 4, 8 (capped
	// at maxWorkers) under the native engine. Train binds the
	// predictor's simulators to the engine current at train time, so
	// native is selected for the Train call.
	spec, err := suite.ByName("stencil")
	if err != nil {
		return err
	}
	jobs := spec.TestJobs(*seed + 1)
	counts := []int{}
	for w := 1; w < maxWorkers && w < 8; w *= 2 {
		counts = append(counts, w)
	}
	if cap := min(maxWorkers, 8); len(counts) == 0 || counts[len(counts)-1] != cap {
		counts = append(counts, cap)
	}
	sweepDefault := rtl.DefaultEngine()
	if err := rtl.SetDefaultEngine(rtl.EngineNative); err != nil {
		return err
	}
	pred, err := core.Train(spec, core.Options{Seed: *seed})
	if err != nil {
		return err
	}
	var oneWorker float64
	for _, w := range counts {
		core.SetWorkers(w)
		samples, err := sampleCells([]cell{{engine: rtl.EngineNative, run: func() (uint64, error) {
			_, err := pred.CollectTraces(jobs)
			return 1, err
		}}})
		if err != nil {
			return err
		}
		d := newDist(samples[0])
		if w == counts[0] {
			oneWorker = d.Median
		}
		rep.WorkerSweep = append(rep.WorkerSweep, TraceResult{
			Benchmark: spec.Name,
			Engine:    string(rtl.EngineNative),
			Jobs:      len(jobs),
			Workers:   w,
			Seconds:   d,
			Speedup:   oneWorker / d.Median,
		})
	}
	if err := rtl.SetDefaultEngine(sweepDefault); err != nil {
		return err
	}
	core.SetWorkers(*workers)

	// 3. Trace-collection throughput per benchmark: the work one
	// CollectTraces job does (ground truth + trained slice), plan vs
	// native, in jobs/s.
	for _, spec := range specs {
		tr, err := measureTraceThroughput(spec, *seed)
		if err != nil {
			return err
		}
		rep.TraceThroughput = append(rep.TraceThroughput, tr)
	}

	// 4. Full quick-lab warm-up wall-clock (train + trace all seven
	// benchmarks), the end-to-end number the experiments feel.
	if *warm {
		samples, err := sampleCells([]cell{{engine: rtl.DefaultEngine(), run: func() (uint64, error) {
			lab := exp.NewLab(*seed)
			lab.Quick = true
			return 1, lab.Warm()
		}}})
		if err != nil {
			return err
		}
		d := newDist(samples[0])
		rep.SuiteWallclockS = &d
	}
	// 5. Ground truth, native.
	for _, spec := range specs {
		tr, err := measureTruth(spec)
		if err != nil {
			return err
		}
		rep.Truth = append(rep.Truth, tr)
	}
	// 6. Training and its γ sweep.
	for _, spec := range specs {
		tr, err := measureTrain(spec, *seed)
		if err != nil {
			return err
		}
		rep.Train = append(rep.Train, tr)
	}
	rep.NativeFallbacks = rtl.NativeFallbacks()

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	nativeThreeX, withNative := 0, 0
	for _, d := range rep.Designs {
		if d.NativeVsPlan == 0 {
			continue
		}
		withNative++
		if d.NativeVsPlan >= 3 {
			nativeThreeX++
		}
	}
	last := rep.WorkerSweep[len(rep.WorkerSweep)-1]
	wall := "skipped"
	if rep.SuiteWallclockS != nil {
		wall = fmt.Sprintf("%.2fs", rep.SuiteWallclockS.Median)
	}
	fmt.Printf("simbench: native>=3x plan on %d/%d benchmarks, traces %.2fx with %d workers (%s), quick suite %s, %d native fallbacks -> %s\n",
		nativeThreeX, withNative, last.Speedup, last.Workers, last.Engine, wall, rep.NativeFallbacks, *out)
	fmt.Printf("jobs simulated: %d\n", core.SimulatedJobs())
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// saw one ("unknown" under go run, or in a checkout without .git).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// groundTruth builds the module a predictor of ins takes ground truth
// from (see core.GroundTruth) and names its shape as cmd/rtlgen does:
// "slice_all" or "cone".
func groundTruth(ins *instrument.Instrumented) (*slice.Result, string, error) {
	all, err := core.AllWitnessSlice(ins)
	if err != nil {
		return nil, "", err
	}
	truth, certified, err := core.GroundTruth(ins, all)
	if err != nil {
		return nil, "", err
	}
	if certified {
		return truth, "slice_all", nil
	}
	return truth, "cone", nil
}

// measureTraceThroughput times the per-job work of CollectTraces — one
// ground-truth simulation plus one simulation of the slice trained at
// seed, each loading only the memories it kept (accel.RunCone) — on the
// plan and native engines, each sample traceReps jobs.
func measureTraceThroughput(spec accel.Spec, seed int64) (ThroughputResult, error) {
	pred, err := core.Train(spec, core.Options{Seed: seed})
	if err != nil {
		return ThroughputResult{}, err
	}
	truth, _, err := groundTruth(pred.Ins)
	if err != nil {
		return ThroughputResult{}, err
	}
	design := pred.Ins.M
	job := spec.TestJobs(3)[0]
	// The sections before this one leave a large heap behind; collect
	// now so background GC does not tax one engine's timed window.
	runtime.GC()
	const traceReps = 8
	var cells []cell
	for _, eng := range []rtl.Engine{rtl.EnginePlan, rtl.EngineNative} {
		sim := planSim
		if eng == rtl.EngineNative {
			sim = func(m *rtl.Module) *rtl.Sim { return rtl.NewSimEngine(m, rtl.EngineNative) }
		}
		truthS, sliceS := sim(truth.M), sim(pred.Slice.M)
		cells = append(cells, cell{engine: eng, run: func() (uint64, error) {
			for i := 0; i < traceReps; i++ {
				for _, s := range []*rtl.Sim{truthS, sliceS} {
					if _, err := accel.RunCone(s, design, job, spec.MaxTicks); err != nil {
						return 0, err
					}
				}
			}
			return traceReps, nil
		}})
	}
	samples, err := sampleCells(cells)
	if err != nil {
		return ThroughputResult{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	jps := make([]Dist, len(cells))
	for ci := range cells {
		for i, secs := range samples[ci] {
			samples[ci][i] = 1 / secs
		}
		jps[ci] = newDist(samples[ci])
	}
	return ThroughputResult{
		Benchmark:      spec.Name,
		PlanJobsPerS:   jps[0],
		NativeJobsPerS: jps[1],
		NativeVsPlan:   jps[1].Median / jps[0].Median,
	}, nil
}

// measureTruth times the ground-truth simulator on the native engine,
// each sample truthJobs jobs run back to back the way the flows run
// them (accel.RunCone, which loads only the memories the module kept).
func measureTruth(spec accel.Spec) (TruthResult, error) {
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return TruthResult{}, err
	}
	truth, name, err := groundTruth(ins)
	if err != nil {
		return TruthResult{}, err
	}
	const truthJobs = 8
	jobs := spec.TestJobs(3)[:truthJobs]
	runtime.GC()
	cs := rtl.NewSimEngine(truth.M, rtl.EngineNative)
	c := cell{engine: rtl.EngineNative, run: func() (uint64, error) {
		var cycles uint64
		for _, job := range jobs {
			n, err := accel.RunCone(cs, ins.M, job, spec.MaxTicks)
			if err != nil {
				return 0, err
			}
			cycles += n
		}
		return cycles, nil
	}}
	cycles, err := c.run()
	if err != nil {
		return TruthResult{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	samples, err := sampleCells([]cell{c})
	if err != nil {
		return TruthResult{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	// Every sample runs the same jobs for the same cycles, so seconds
	// per cycle converts exactly to µs per job.
	perJob := make([]float64, len(samples[0]))
	for i, secs := range samples[0] {
		perJob[i] = secs * float64(cycles) / truthJobs * 1e6
		samples[0][i] = secs * 1e9
	}
	return TruthResult{
		Benchmark:  spec.Name,
		Simulator:  name,
		Jobs:       truthJobs,
		Comb:       rtl.CombNodes(truth.M),
		Mems:       len(truth.M.Mems),
		NsPerCycle: newDist(samples[0]),
		UsPerJob:   newDist(perJob),
	}, nil
}

// measureTrain times core.Train of spec at seed against
// model.SelectGamma on the training matrix Train fits. The matrix is
// read off the absint-pruned full instrumented design on the codegen
// plan, whose features and ticks are Train's bit for bit (see
// core's TestTrainingSetMatchesPrunedFullDesign); this setup is
// untimed, and the plan run is not counted as a native fallback. A
// sweep that picks another γ than Train did is an error.
func measureTrain(spec accel.Spec, seed int64) (TrainResult, error) {
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return TrainResult{}, err
	}
	regs := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		regs[i] = f.Witness
	}
	pm, regMap := absint.Prune(ins.M, regs)
	full := planSim(pm)
	jobs := spec.TrainJobs(seed)
	X := make([][]float64, len(jobs))
	y := make([]float64, len(jobs))
	for i, job := range jobs {
		ticks, err := accel.RunJob(full, job, spec.MaxTicks)
		if err != nil {
			return TrainResult{}, fmt.Errorf("%s train job %d: %w", spec.Name, i, err)
		}
		X[i] = make([]float64, len(regs))
		for k, r := range regs {
			X[i][k] = float64(full.RegValue(regMap[r]))
		}
		y[i] = spec.Seconds(ticks)
	}
	varying := 0
	for k := range regs {
		for i := range X {
			if X[i][k] != X[0][k] {
				varying++
				break
			}
		}
	}
	var trainGamma, sweepGamma float64
	runtime.GC()
	samples, err := sampleCells([]cell{
		{engine: rtl.DefaultEngine(), run: func() (uint64, error) {
			p, err := core.Train(spec, core.Options{Seed: seed})
			if err == nil {
				trainGamma = p.Gamma
			}
			return 1, err
		}},
		{engine: rtl.DefaultEngine(), run: func() (uint64, error) {
			_, g, err := model.SelectGamma(X, y, 0.25, model.DefaultConfig(), nil)
			sweepGamma = g
			return 1, err
		}},
	})
	if err != nil {
		return TrainResult{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if trainGamma != sweepGamma {
		return TrainResult{}, fmt.Errorf("%s: the sweep on the pruned full design's matrix chose γ %g, Train chose %g",
			spec.Name, sweepGamma, trainGamma)
	}
	for _, ss := range samples {
		for i := range ss {
			ss[i] *= 1e3
		}
	}
	return TrainResult{
		Benchmark: spec.Name,
		Jobs:      len(jobs),
		Columns:   len(regs),
		Varying:   varying,
		Gamma:     trainGamma,
		TrainMs:   newDist(samples[0]),
		SweepMs:   newDist(samples[1]),
	}, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
}
