package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/suite"
	"repro/internal/workload"
)

// offline-paper is the researcher's path: a cold, non-quick exp.Lab —
// Warm, then RunAll — with no trace cache and core's workers at
// GOMAXPROCS. Its set-up checks the quick lab against the golden tables.
//
// The lab runs at paperSeed, the seed of the paper's tables and of the
// golden files, whatever --seed says: the predictive scheme's miss rate
// at one seed rests on a handful of misses and varies fourfold from seed
// to seed, more than any regression bound could absorb. --seed instead
// rotates the order in which the benchmarks start warming, which moves
// the interleaving of the concurrent warm-up and nothing it computes.

const (
	paperSeed = 42
	// stagedPerBench caps the test jobs per benchmark the traced run
	// stages.
	stagedPerBench = 100
)

// offlinePass is one cold lab.
type offlinePass struct {
	wall, warm, replay time.Duration
	// entry is each benchmark's Lab.Entry host time during Warm.
	entry   []time.Duration
	tables  []string
	lab     *exp.Lab
	entries []*exp.Entry
	// jobs counts the lab's train and test jobs; leastSimJobs is the
	// simulator runs they take at least.
	jobs                           int
	simJobs, clamps, leastSimJobs  uint64
	peakHeap, allocBytes, gcCycles uint64
}

func runOfflinePaper(cfg config) (*report, error) {
	if err := refuseWarmCache(); err != nil {
		return nil, err
	}
	g, setupS, err := setUp(cfg, checkGolden)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.failures = g.bad
	rep.values["setup_s"] = setupS
	var plain, traced []*offlinePass
	err = timed(cfg, 1, func(tr bool) error {
		p, err := runOfflinePass(cfg)
		if err != nil {
			return err
		}
		if tr {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		rep.attempted += p.jobs
		rep.walls = append(rep.walls, p.wall.Seconds())
		if len(plain)+len(traced) > 1 {
			p.lab, p.entries = nil, nil // keep one lab's traces in memory, not every pass's
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Each pass renders the same tables and simulates the same jobs, at
	// least every training job once for the model and once for its trace
	// and every test job once, two runs (design and slice) per trace; the
	// experiments simulate a few more.
	for _, p := range append(append([]*offlinePass(nil), plain...), traced...) {
		if !reflect.DeepEqual(p.tables, plain[0].tables) {
			rep.fail("rendered tables differ between cold labs at the same seed")
		}
		if p.simJobs < p.leastSimJobs || p.simJobs != plain[0].simJobs {
			rep.fail("cold lab simulated %d jobs, want at least %d and %d as in the first pass (a warm trace cache measures nothing)",
				p.simJobs, p.leastSimJobs, plain[0].simJobs)
		}
	}

	first := plain[0]
	energyMJ, missRate, savings, under, err := offlineSimulated(first)
	if err != nil {
		return nil, err
	}
	var walls, p50s, p99s, peaks []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		entries := micros(p.entry)
		p50s = append(p50s, quantile(entries, 0.50))
		p99s = append(p99s, quantile(entries, 0.99))
		peaks = append(peaks, float64(p.peakHeap))
	}
	v := rep.values
	v["wall_s"] = median(walls)
	v["jobs_per_s"] = float64(first.jobs) / median(walls)
	v["job_p50_us"] = median(p50s)
	v["job_p99_us"] = median(p99s)
	v["peak_heap_mb"] = median(peaks) / (1 << 20)
	v["energy_mj_per_job"] = energyMJ
	v["miss_rate"] = missRate
	v["energy_savings_pct"] = savings
	v["pred_under_pct"] = under
	if cfg.trace {
		if err := offlineLayers(cfg, rep, plain, traced); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runOfflinePass runs one cold lab: every benchmark's Lab.Entry
// concurrently, exactly as Lab.Warm does but timed per benchmark, then
// RunAll.
func runOfflinePass(cfg config) (*offlinePass, error) {
	l := exp.NewLab(paperSeed)
	l.Quick = cfg.quick
	names := l.Names()
	p := &offlinePass{lab: l, entry: make([]time.Duration, len(names)), entries: make([]*exp.Entry, len(names))}
	errs := make([]error, len(names))
	stop, peak := make(chan struct{}), make(chan uint64)
	go sampleHeap(stop, peak)
	rt0, sims0 := readRuntime(), core.SimulatedJobs()

	start := time.Now() //detlint:allow host timing of the pass
	var wg sync.WaitGroup
	for k := range names {
		i := (k + int(uint64(cfg.seed)%uint64(len(names)))) % len(names)
		name := names[i]
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			t0 := time.Now() //detlint:allow host timing of one benchmark's Lab.Entry
			p.entries[i], errs[i] = l.Entry(name)
			p.entry[i] = time.Since(t0) //detlint:allow host timing of one benchmark's Lab.Entry
		}(i, name)
	}
	wg.Wait()
	warmErr := l.Warm()
	warmed := time.Now() //detlint:allow host timing of the pass
	tables, runErr := exp.RunAll(l)
	end := time.Now() //detlint:allow host timing of the pass

	close(stop)
	p.peakHeap = <-peak
	if err := errors.Join(append(errs, warmErr, runErr)...); err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	p.wall, p.warm, p.replay = end.Sub(start), warmed.Sub(start), end.Sub(warmed)
	p.allocBytes, p.gcCycles = rt1.alloc-rt0.alloc, rt1.gcs-rt0.gcs
	p.simJobs = core.SimulatedJobs() - sims0
	for _, t := range tables {
		p.tables = append(p.tables, t.Render())
	}
	for _, e := range p.entries {
		p.jobs += len(e.Train) + len(e.Test)
		p.clamps += e.Pred.BoundClamps()
		p.leastSimJobs += 3*uint64(len(e.Train)) + 2*uint64(len(e.Test))
	}
	return p, nil
}

// sampleHeap records the highest heap in use, once a millisecond, until
// stop closes; then it sends the peak and returns.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	var top uint64
	for {
		top = max(top, readRuntime().heap)
		select {
		case <-stop:
			peak <- top
			return
		case <-tick.C:
		}
	}
}

// offlineSimulated derives the modelled-hardware metrics of a lab: the
// predictive scheme's ASIC test replay, Fig. 11's mean savings, the
// deadline-miss rate, and Fig. 10's share of under-predicted test jobs.
func offlineSimulated(p *offlinePass) (energyMJ, missRate, savings, under float64, err error) {
	fig11, err := exp.Figure11(p.lab)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	savings = 100 - fig11.AvgNormalized["prediction"]
	missRate = fig11.AvgMiss["prediction"]
	var energy float64
	var jobs, underN, total int
	for _, e := range p.entries {
		r, err := sim.Run(e.Test, sim.Config{
			Device: dvfs.ASIC(e.Pred.Spec.NominalHz, false), Power: e.Power, SlicePower: e.SlicePower,
			Deadline: exp.Deadline, Controller: control.NewPredictive(exp.PredictiveMargin, false),
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		energy += r.Energy
		jobs += r.Jobs
		for _, tr := range e.Test {
			total++
			if tr.PredSeconds < tr.Seconds {
				underN++
			}
		}
	}
	return 1e3 * ratio(energy, float64(jobs)), missRate, savings, 100 * ratio(float64(underN), float64(total)), nil
}

// refuseWarmCache fails offline-paper when REPRO_CACHE_DIR names a trace
// cache that already holds entries: the workload times cold simulation,
// and the tools that honour the variable would be timing cache hits.
func refuseWarmCache() error {
	dir := os.Getenv("REPRO_CACHE_DIR")
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("trace cache %s: %w", dir, err)
	}
	if len(entries) > 0 {
		return fmt.Errorf("trace cache %s is not empty; offline-paper times cold simulation", dir)
	}
	return nil
}

// golden is a quick lab at seed 42 checked against the golden tables.
type golden struct {
	// bad lists the tables that differ from their golden files.
	bad []string
	// replay is the host time of exp.RunAll on the warm lab.
	replay time.Duration
}

// checkGolden warms a quick lab at seed 42, renders every table with
// RunAll and compares each byte for byte with
// internal/exp/testdata/golden.
func checkGolden() (golden, error) {
	var g golden
	dir := ""
	for _, d := range []string{"internal", filepath.Join("..", "internal")} {
		if st, err := os.Stat(filepath.Join(d, "exp", "testdata", "golden")); err == nil && st.IsDir() {
			dir = filepath.Join(d, "exp", "testdata", "golden")
			break
		}
	}
	if dir == "" {
		return g, errors.New("golden tables not found; run from the repository root")
	}
	l := exp.NewLab(paperSeed)
	l.Quick = true
	if err := l.Warm(); err != nil {
		return g, err
	}
	t0 := time.Now() //detlint:allow host timing of RunAll
	tables, err := exp.RunAll(l)
	g.replay = time.Since(t0) //detlint:allow host timing of RunAll
	if err != nil {
		return g, err
	}
	for _, t := range tables {
		want, err := os.ReadFile(filepath.Join(dir, t.ID+".golden"))
		if err != nil {
			return g, err
		}
		if t.Render() != string(want) {
			g.bad = append(g.bad, fmt.Sprintf("%s at seed 42 (quick) differs from its golden table", t.ID))
		}
	}
	return g, nil
}

// offlineLayers fills the per-layer metrics of a traced offline run.
// Lab hides its stages, so the run repeats each benchmark's flow from
// outside — core.Train, CollectTraces, the front end stage by stage,
// staged test jobs — and replays the test traces through 1-replica
// pools for the serving layers.
func offlineLayers(cfg config, rep *report, plain, traced []*offlinePass) error {
	v := rep.values
	probe, staged, replay := newSpans("probe"), newSpans("staged"), newSpans("replay")
	specs := suite.All()
	w := &servingWorkload{replay: true}
	for i, spec := range specs {
		train := trimJobs(spec.TrainJobs(paperSeed), cfg.quick)
		test := trimJobs(spec.TestJobs(paperSeed+1), cfg.quick)
		t0 := time.Now() //detlint:allow host timing of core.Train
		p, err := core.Train(spec, core.Options{Seed: paperSeed, TrainJobs: train})
		t1 := time.Now() //detlint:allow host timing of CollectTraces
		probe.add(stTrain, t1.Sub(t0))
		if err != nil {
			return fmt.Errorf("train %s: %w", spec.Name, err)
		}
		if _, err := p.CollectTraces(train); err != nil {
			return err
		}
		trs, err := p.CollectTraces(test)
		if err != nil {
			return err
		}
		probe.add(stCollect, time.Since(t1)) //detlint:allow host timing of CollectTraces
		if !reflect.DeepEqual(trs, plain[0].entries[i].Test) {
			rep.fail("%s: test traces collected outside the lab differ from the lab's", spec.Name)
		}
		st := newStager(p)
		mark := time.Now() //detlint:allow traced span boundary
		for j := 0; j < min(len(test), stagedPerBench); j++ {
			tr, err := st.stage(test[j], staged, &mark)
			if err != nil {
				return err
			}
			if !sameTrace(tr, trs[j]) {
				rep.fail("%s test job %d: staged trace differs from CollectTraces", spec.Name, j)
			}
		}
		w.preds = append(w.preds, p)
		w.trainJobs = append(w.trainJobs, train)
		w.traces = append(w.traces, trs)
		w.cfgs = append(w.cfgs, poolConfig(p, 1))
	}
	stagedLayers(v, staged)
	v["core.train_s"] = probe.total[stTrain].Seconds()
	v["core.collect_s"] = probe.total[stCollect].Seconds()
	v["core.sim_jobs"] = float64(plain[0].simJobs)
	v["core.bound_clamps"] = float64(plain[0].clamps)

	bad, err := redrive(w.preds, w.trainJobs, probe)
	if err != nil {
		return err
	}
	rep.failures = append(rep.failures, bad...)

	// The serving layers: each benchmark's test traces, once each, at
	// Poisson arrivals with a mean gap of one deadline.
	perPool := make([][]streamJob, len(w.traces))
	for i, trs := range w.traces {
		s := cfg.seed*7919 + int64(i)
		perPool[i] = poolStream(i, len(trs), workload.PoissonArrivals(len(trs), 1/exp.Deadline, s), rand.New(rand.NewSource(s)))
	}
	w.chunks = [][]streamJob{mergeStreams(perPool)}
	res, err := w.runPass(0, passMode{traced: true}, replay)
	if err != nil {
		return err
	}
	checkPools(rep, res)
	servedLayers(v, replay, []*passResult{res})
	if _, err := w.observeProbe(res, probe); err != nil {
		return err
	}
	predictProbe(w.preds, w.traces, probe)
	if err := stepperProbe(w.cfgs, w.traces, probe); err != nil {
		return err
	}
	probeLayers(v, probe)

	var plainWalls, tracedWalls, replays []float64
	var alloc, gcs float64
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
		alloc += float64(p.allocBytes) / float64(p.jobs)
		gcs += float64(p.gcCycles)
	}
	pass := newSpans("pass")
	var tracedWall time.Duration
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		replays = append(replays, p.replay.Seconds())
		pass.add(stWarm, p.warm)
		pass.add(stReplay, p.replay)
		tracedWall += p.wall
	}
	v["exp.replay_s"] = median(replays)
	v["go.alloc_kb_per_job"] = alloc / float64(len(plain)) / 1024
	v["go.gc_cycles"] = gcs / float64(len(plain))
	v["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)
	v["trace.coverage"] = pass.selfSum().Seconds() / tracedWall.Seconds()
	rep.spans = []*spans{pass, staged, replay, probe}
	return nil
}
