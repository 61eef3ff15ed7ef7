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
// It reports five things:
//
//  1. engine speed (ns/cycle, Mevals/s) for interp, the codegen plan
//     (the native fallback), and native (pre-generated straight-line
//     code) on the Toy design and on every benchmark of the suite,
//     with per-design speedup ratios. Toy has no generated native
//     simulator by design, so it has no native row (a native request
//     would measure the plan fallback),
//  2. CollectTraces wall-clock swept across worker counts (1, 2, 4, 8,
//     capped at -workers, default GOMAXPROCS) under the native engine,
//  3. trace-collection throughput (instrumented design + hardware
//     slice per job, the work core.CollectTraces does) per benchmark:
//     plan jobs/s vs native jobs/s and their ratio,
//  4. the wall-clock of warming the full (quick) experiment lab
//     (skipped with -warm=false),
//  5. per benchmark, the ground-truth simulators on native code: the
//     pruned full design core.Train simulates against the timing cone
//     every JobSimulator serves from (core.TimingCone) — ns/cycle,
//     µs/job, combinational nodes and memories.
//
// -designs restricts sections 1, 3 and 5 to a comma-separated subset of
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
// plan vs native on the same work (one instrumented full-design job
// plus one slice job).
type ThroughputResult struct {
	Benchmark      string  `json:"benchmark"`
	PlanJobsPerS   Dist    `json:"plan_jobs_per_s"`
	NativeJobsPerS Dist    `json:"native_jobs_per_s"`
	NativeVsPlan   float64 `json:"native_vs_plan"`
}

// PruneResult records the static win of absint pruning on one
// benchmark: combinational nodes (those an engine evaluates each
// cycle, see rtl.CombNodes) of the instrumented full design and its
// hardware slice, unpruned vs pruned.
type PruneResult struct {
	Benchmark        string  `json:"benchmark"`
	FullComb         int     `json:"full_comb"`
	FullCombPruned   int     `json:"full_comb_pruned"`
	FullReductionPct float64 `json:"full_reduction_pct"`
	SliceComb        int     `json:"slice_comb"`
	SliceCombPruned  int     `json:"slice_comb_pruned"`
}

// ConeResult compares one benchmark's two ground-truth simulators on
// the native engine over the same jobs: the pruned full design and the
// timing cone, whose ticks are equal by construction.
type ConeResult struct {
	Benchmark string `json:"benchmark"`
	Jobs      int    `json:"jobs"`
	// FullComb and ConeComb count combinational nodes (rtl.CombNodes);
	// FullMems and ConeMems count memories, each zeroed on every Reset.
	FullComb int `json:"full_comb"`
	ConeComb int `json:"cone_comb"`
	FullMems int `json:"full_mems"`
	ConeMems int `json:"cone_mems"`
	// NsPerCycle and UsPerJob time the same samples two ways.
	FullNsPerCycle Dist `json:"full_ns_per_cycle"`
	ConeNsPerCycle Dist `json:"cone_ns_per_cycle"`
	FullUsPerJob   Dist `json:"full_us_per_job"`
	ConeUsPerJob   Dist `json:"cone_us_per_job"`
	// ConeVsFull is the full design's median µs/job over the cone's.
	ConeVsFull float64 `json:"cone_vs_full"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Generated       string             `json:"generated"`
	Host            Host               `json:"host"`
	SamplesPerCell  int                `json:"samples_per_cell"`
	MaxWorkers      int                `json:"max_workers"`
	Designs         []DesignResult     `json:"designs"`
	Prune           []PruneResult      `json:"prune"`
	WorkerSweep     []TraceResult      `json:"worker_sweep"`
	TraceThroughput []ThroughputResult `json:"trace_throughput"`
	SuiteWallclockS *Dist              `json:"suite_wallclock_s,omitempty"`
	Cone            []ConeResult       `json:"cone"`
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
		job := spec.TestJobs(3)[0]
		dr, err := measureDesign(spec.Name, spec.Build(), *reps, func(s *rtl.Sim) func() (uint64, error) {
			return func() (uint64, error) { return accel.RunJob(s, job, spec.MaxTicks) }
		})
		if err != nil {
			return err
		}
		rep.Designs = append(rep.Designs, dr)
	}

	// 1b. Static pruning win: combinational nodes, unpruned vs
	// absint-pruned, for each benchmark's instrumented design and its
	// hardware slice.
	for _, spec := range specs {
		pr, err := measurePrune(spec)
		if err != nil {
			return err
		}
		rep.Prune = append(rep.Prune, pr)
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
	// CollectTraces job does (instrumented full design + hardware
	// slice), plan vs native, in jobs/s.
	for _, spec := range specs {
		tr, err := measureTraceThroughput(spec)
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
	// 5. Ground truth: pruned full design vs timing cone, native.
	for _, spec := range specs {
		cr, err := measureCone(spec)
		if err != nil {
			return err
		}
		rep.Cone = append(rep.Cone, cr)
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

// measurePrune counts the combinational nodes of each benchmark's
// instrumented design and slice with and without absint pruning.
func measurePrune(spec accel.Spec) (PruneResult, error) {
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return PruneResult{}, err
	}
	keep := make([]int, len(ins.Features))
	kept := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		keep[i] = f.Witness
		kept[i] = i
	}
	pm, _ := absint.Prune(ins.M, keep)
	plain := slice.DefaultOptions()
	plain.Prune = false
	slP, err := slice.Slice(ins, kept, plain)
	if err != nil {
		return PruneResult{}, err
	}
	slA, err := slice.Slice(ins, kept, slice.DefaultOptions())
	if err != nil {
		return PruneResult{}, err
	}
	fi, pi := rtl.CombNodes(ins.M), rtl.CombNodes(pm)
	return PruneResult{
		Benchmark:        spec.Name,
		FullComb:         fi,
		FullCombPruned:   pi,
		FullReductionPct: 100 * float64(fi-pi) / float64(fi),
		SliceComb:        rtl.CombNodes(slP.M),
		SliceCombPruned:  rtl.CombNodes(slA.M),
	}, nil
}

// measureTraceThroughput times the per-job work of CollectTraces —
// one instrumented full-design simulation plus one slice simulation —
// on the plan and native engines, each sample traceReps jobs.
func measureTraceThroughput(spec accel.Spec) (ThroughputResult, error) {
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return ThroughputResult{}, err
	}
	keep := make([]int, len(ins.Features))
	for i := range keep {
		keep[i] = i
	}
	sl, err := slice.Slice(ins, keep, slice.DefaultOptions())
	if err != nil {
		return ThroughputResult{}, err
	}
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
		full, sliceS := sim(ins.M), sim(sl.M)
		cells = append(cells, cell{engine: eng, run: func() (uint64, error) {
			for i := 0; i < traceReps; i++ {
				for _, s := range []*rtl.Sim{full, sliceS} {
					if _, err := accel.RunJob(s, job, spec.MaxTicks); err != nil {
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

// measureCone times the pruned full design against the timing cone on
// the native engine, each sample coneJobs jobs run back to back the way
// the flows run them (accel.RunJob on the full design, accel.RunCone on
// the cone, which loads only the memories it kept).
func measureCone(spec accel.Spec) (ConeResult, error) {
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return ConeResult{}, err
	}
	regs := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		regs[i] = f.Witness
	}
	pm, _ := absint.Prune(ins.M, regs)
	cone, err := core.TimingCone(ins)
	if err != nil {
		return ConeResult{}, err
	}
	const coneJobs = 8
	jobs := spec.TestJobs(3)[:coneJobs]
	runtime.GC()
	full, cs := rtl.NewSimEngine(pm, rtl.EngineNative), rtl.NewSimEngine(cone.M, rtl.EngineNative)
	runAll := func(run func(accel.Job) (uint64, error)) func() (uint64, error) {
		return func() (uint64, error) {
			var cycles uint64
			for _, job := range jobs {
				c, err := run(job)
				if err != nil {
					return 0, err
				}
				cycles += c
			}
			return cycles, nil
		}
	}
	cells := []cell{
		{engine: rtl.EngineNative, run: runAll(func(job accel.Job) (uint64, error) {
			return accel.RunJob(full, job, spec.MaxTicks)
		})},
		{engine: rtl.EngineNative, run: runAll(func(job accel.Job) (uint64, error) {
			return accel.RunCone(cs, ins.M, job, spec.MaxTicks)
		})},
	}
	cycles, err := cells[0].run()
	if err != nil {
		return ConeResult{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	samples, err := sampleCells(cells)
	if err != nil {
		return ConeResult{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	// Both cells run the same jobs for the same cycles, so seconds per
	// cycle converts exactly to µs per job.
	var ns, us [2]Dist
	for ci := range cells {
		perJob := make([]float64, len(samples[ci]))
		for i, secs := range samples[ci] {
			perJob[i] = secs * float64(cycles) / coneJobs * 1e6
			samples[ci][i] = secs * 1e9
		}
		ns[ci], us[ci] = newDist(samples[ci]), newDist(perJob)
	}
	return ConeResult{
		Benchmark:      spec.Name,
		Jobs:           coneJobs,
		FullComb:       rtl.CombNodes(pm),
		ConeComb:       rtl.CombNodes(cone.M),
		FullMems:       len(pm.Mems),
		ConeMems:       len(cone.M.Mems),
		FullNsPerCycle: ns[0],
		ConeNsPerCycle: ns[1],
		FullUsPerJob:   us[0],
		ConeUsPerJob:   us[1],
		ConeVsFull:     us[0].Median / us[1].Median,
	}, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
}
