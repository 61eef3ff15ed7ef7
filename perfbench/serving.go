package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"repro/internal/accel"
	"repro/internal/accel/stencil"
	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/suite"
	"repro/internal/workload"
)

// The serving workloads share one harness: predictors trained in
// set-up, a job stream generated from the seed in one or more chunks,
// and timed passes that each serve one chunk through fresh pools. One
// generator goroutine submits in closed loop — the next Submit goes out
// when the previous one returns — and one collector goroutine receives
// the outcomes in submission order. Arrival times are virtual-time
// inputs; host time is what is measured.

const (
	// trainSeed trains every serving predictor, as dvfserved does by
	// default, and picks the jobs served: the model and the job pool are
	// fixed, and the seed varies the traffic.
	trainSeed = 42
	// poolJobs caps the distinct test jobs one accelerator's stream
	// draws from (h264's test set alone has 1,500 frames).
	poolJobs = 100
	// pendingDepth bounds how far the generator runs ahead of the
	// collector. It exceeds what every replica queue can hold at once
	// (7 pools x 4 replicas x 64 jobs), so it never throttles the loop.
	pendingDepth = 4096

	// serve-mixed: chunks of 200 jobs per accelerator (1,400 jobs, about
	// 2 s with the compiled engine on 2 cores), each distinct job twice a
	// chunk, so every chunk runs the same RTL work. Poisson arrivals with
	// a mean gap of one deadline. The simulated metrics cover all the
	// chunks, 5,600 jobs: over one chunk the miss rate rests on about 170
	// misses and sheds and moved by 18 % between seeds.
	mixedJobsPerPool = 200
	mixedChunks      = 4

	// fleet-replay: 4 replicas per accelerator, bursts of 8 jobs every 4
	// deadlines, 10,000 jobs per accelerator per pass.
	fleetReplicas    = 4
	fleetJobsPerPool = 10000
	fleetBurst       = 8

	// serve-drift: phases of 192 stencil jobs alternate between the
	// training distribution (40 columns) and 8-column images. The first
	// switch drives one detect, refit, canary and promote cycle, and every
	// pass starts again from the offline model, so the cycle repeats once
	// a pass; the refit model then serves both distributions.
	driftPhases    = 8
	driftPhaseJobs = 192
	driftTrainCols = 40
	driftCols      = 8

	// observeCap bounds the standalone online.Trainer replay per pool on
	// workloads that serve without online learning.
	observeCap = 256
)

// servingWorkload is one generated serving workload.
type servingWorkload struct {
	// cfgs holds one pool configuration per accelerator and preds the
	// trained predictors behind them. saved holds the serialized models
	// when online learning rewrites the live model: every pass then
	// serves fresh clones, so every pass starts from the same β.
	cfgs  []cluster.Config
	preds []*core.Predictor
	saved [][]byte
	// trainJobs are the sets preds were trained on.
	trainJobs [][]accel.Job
	// payloads and traces are per pool and index-aligned: the distinct
	// jobs the stream draws from, and their traces. replay submits the
	// traces instead of the payloads.
	payloads [][]accel.Job
	traces   [][]core.JobTrace
	replay   bool
	// chunks split the stream into equal parts; a pass serves one chunk.
	chunks [][]streamJob
	// trainTime and collectTime are the host time of core.Train and of
	// CollectTraces over the pools' jobs.
	trainTime, collectTime time.Duration
}

type streamJob struct {
	pool, job int
	arrival   float64
}

func runServeMixed(cfg config) (*report, error) {
	return runServing(cfg, func() (*servingWorkload, error) {
		specs := suite.All()
		w := &servingWorkload{}
		if err := w.trainPools(specs, trainSets(specs, cfg.quick), 1); err != nil {
			return nil, err
		}
		w.payloads = testPools(specs, cfg)
		n := cfg.perPass(mixedJobsPerPool)
		for c := int64(0); c < mixedChunks; c++ {
			perPool := make([][]streamJob, len(specs))
			for i := range specs {
				s := (cfg.seed*mixedChunks+c)*7919 + int64(i)
				arrivals := workload.PoissonArrivals(n, 1/exp.Deadline, s)
				perPool[i] = poolStream(i, len(w.payloads[i]), arrivals, rand.New(rand.NewSource(s)))
			}
			w.chunks = append(w.chunks, mergeStreams(perPool))
		}
		return w, nil
	})
}

func runFleetReplay(cfg config) (*report, error) {
	return runServing(cfg, func() (*servingWorkload, error) {
		specs := suite.All()
		w := &servingWorkload{replay: true}
		if err := w.trainPools(specs, trainSets(specs, cfg.quick), fleetReplicas); err != nil {
			return nil, err
		}
		w.payloads = testPools(specs, cfg)
		if err := w.collect(); err != nil {
			return nil, err
		}
		n := cfg.perPass(fleetJobsPerPool)
		arrivals := workload.BurstyArrivals(n, fleetBurst, 4*exp.Deadline)
		perPool := make([][]streamJob, len(specs))
		for i := range specs {
			rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))
			perPool[i] = poolStream(i, len(w.traces[i]), arrivals, rng)
		}
		w.chunks = [][]streamJob{mergeStreams(perPool)}
		return w, nil
	})
}

func runServeDrift(cfg config) (*report, error) {
	return runServing(cfg, func() (*servingWorkload, error) {
		spec := stencil.Spec()
		train := stencil.JobsFrom(stencilImages(40, driftTrainCols, 3), 3)
		w := &servingWorkload{}
		if err := w.trainPools([]accel.Spec{spec}, [][]accel.Job{train}, 1); err != nil {
			return nil, err
		}
		w.cfgs[0].Shard.Online = &online.Config{RingSize: 64, MinObservations: 64, DriftWindow: 32, CanaryWindow: 32}
		saved, err := w.preds[0].Save()
		if err != nil {
			return nil, err
		}
		w.saved = [][]byte{saved}
		// The phases' jobs and their order are fixed and the seed draws
		// the gaps between arrivals, each one to two deadlines long. No job
		// then waits behind the one before it (a job that overruns resyncs
		// the clock to its own deadline), so every job is served and
		// observed the same way whatever the seed: which jobs the trainer
		// refits on decides the promoted model, and under queueing the
		// share of under-predicted jobs ranged from 8 % to 83 % across
		// seeds.
		per := cfg.perPass(driftPhaseJobs)
		jobs := stencil.JobsFrom(stencilImages(per, driftTrainCols, 7), 7)
		jobs = append(jobs, stencil.JobsFrom(stencilImages(per, driftCols, 11), 11)...)
		w.payloads = [][]accel.Job{jobs}
		rng := rand.New(rand.NewSource(cfg.seed))
		var stream []streamJob
		t := 0.0
		for k := 0; k < driftPhases; k++ {
			for i := 0; i < per; i++ {
				t += exp.Deadline * (1 + rng.Float64())
				stream = append(stream, streamJob{pool: 0, job: (k%2)*per + i, arrival: t})
			}
		}
		w.chunks = [][]streamJob{stream}
		return w, nil
	})
}

// stencilImages builds n stencil images of one column count with rows
// cycling through 8..44 — the covariate-drift recipe of the online
// soak tests: a model trained at one column count mispredicts the other.
func stencilImages(n, cols, off int) []workload.StencilImage {
	imgs := make([]workload.StencilImage, n)
	for i := range imgs {
		imgs[i] = workload.StencilImage{Rows: 8 + (i*7+off)%37, Cols: cols, Class: "drift"}
	}
	return imgs
}

func trimJobs(jobs []accel.Job, quick bool) []accel.Job {
	if quick && len(jobs) > 60 {
		return jobs[:60]
	}
	return jobs
}

// trainSets returns each spec's training set at trainSeed.
func trainSets(specs []accel.Spec, quick bool) [][]accel.Job {
	out := make([][]accel.Job, len(specs))
	for i, s := range specs {
		out[i] = trimJobs(s.TrainJobs(trainSeed), quick)
	}
	return out
}

// testPools returns each accelerator's distinct stream jobs: a fixed
// subset of at most poolJobs jobs of the test set exp.Lab replays at
// trainSeed. The jobs stay the same for every seed, so host-time metrics
// compare across seeds; the seed varies their order and arrival times.
func testPools(specs []accel.Spec, cfg config) [][]accel.Job {
	limit := poolJobs
	if cfg.quick {
		limit = 20
	}
	out := make([][]accel.Job, len(specs))
	for i, s := range specs {
		all := s.TestJobs(trainSeed + 1)
		if len(all) > limit {
			idx := rand.New(rand.NewSource(trainSeed*31 + int64(i))).Perm(len(all))[:limit]
			sort.Ints(idx)
			pick := make([]accel.Job, limit)
			for k, j := range idx {
				pick[k] = all[j]
			}
			all = pick
		}
		out[i] = all
	}
	return out
}

// poolStream assigns a pool's distinct jobs to the arrival times in
// whole seeded permutations, back to back, so every job recurs equally.
func poolStream(pool, distinct int, arrivals []float64, rng *rand.Rand) []streamJob {
	out := make([]streamJob, len(arrivals))
	var perm []int
	for i := range out {
		if i%distinct == 0 {
			perm = rng.Perm(distinct)
		}
		out[i] = streamJob{pool: pool, job: perm[i%distinct], arrival: arrivals[i]}
	}
	return out
}

// mergeStreams orders the pools' streams by arrival into the one stream
// the generator submits; ties keep pool order, then each pool's order.
func mergeStreams(perPool [][]streamJob) []streamJob {
	var all []streamJob
	for _, s := range perPool {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].arrival < all[b].arrival })
	return all
}

// powerModels calibrates the accelerator and slice energy models the
// way exp.Lab does for the paper's tables, so served energy compares
// with the offline replay.
func powerModels(spec accel.Spec, p *core.Predictor) (power.Model, power.Model) {
	params := power.DefaultParams(spec.NominalHz)
	params.MemFraction = spec.MemFraction
	pm := power.FromStats(rtl.Stats(spec.Build()), params)
	st := rtl.Stats(p.Slice.M)
	sliceParams := power.DefaultParams(spec.NominalHz)
	sliceParams.MemFraction = 0.1
	spm := power.FromStats(rtl.AreaStats{LogicGates: st.LogicGates, RegGates: st.RegGates, Nodes: st.Nodes, Regs: st.Regs}, sliceParams)
	return pm, spm
}

// poolConfig is the served configuration of one accelerator: the
// predict policy over replicas replicas, the ASIC DVFS profile, and the
// paper's 16.7 ms deadline and 5% margin.
func poolConfig(p *core.Predictor, replicas int) cluster.Config {
	pm, spm := powerModels(p.Spec, p)
	return cluster.Config{
		Shard: serve.ShardConfig{
			Name: p.Spec.Name,
			Profile: serve.Profile{
				Pred: p, Device: dvfs.ASIC(p.Spec.NominalHz, false), Power: pm, SlicePower: spm,
				Deadline: exp.Deadline, Margin: exp.PredictiveMargin,
			},
		},
		Replicas: replicas,
	}
}

// trainPools trains one predictor per spec and configures its pool.
func (w *servingWorkload) trainPools(specs []accel.Spec, train [][]accel.Job, replicas int) error {
	w.trainJobs = train
	for i, spec := range specs {
		t0 := time.Now() //detlint:allow host timing of core.Train
		p, err := core.Train(spec, core.Options{Seed: trainSeed, TrainJobs: train[i]})
		w.trainTime += time.Since(t0) //detlint:allow host timing of core.Train
		if err != nil {
			return fmt.Errorf("train %s: %w", spec.Name, err)
		}
		w.preds = append(w.preds, p)
		w.cfgs = append(w.cfgs, poolConfig(p, replicas))
	}
	return nil
}

// collect traces every pool's distinct jobs with CollectTraces, the
// fan-out the offline pipeline uses.
func (w *servingWorkload) collect() error {
	t0 := time.Now() //detlint:allow host timing of CollectTraces
	w.traces = make([][]core.JobTrace, len(w.payloads))
	for i, jobs := range w.payloads {
		trs, err := w.preds[i].CollectTraces(jobs)
		if err != nil {
			return fmt.Errorf("collect %s: %w", w.cfgs[i].Shard.Name, err)
		}
		w.traces[i] = trs
	}
	w.collectTime = time.Since(t0) //detlint:allow host timing of CollectTraces
	return nil
}

// newPools starts one pool per configuration, over clones of the
// predictors when online learning rewrites them.
func (w *servingWorkload) newPools() ([]*cluster.Pool, []*core.Predictor, error) {
	var pools []*cluster.Pool
	var preds []*core.Predictor
	for i, c := range w.cfgs {
		if w.saved != nil {
			p, err := core.Load(w.saved[i], w.preds[i].Spec)
			if err != nil {
				closePools(pools)
				return nil, nil, fmt.Errorf("clone %s predictor: %w", c.Shard.Name, err)
			}
			c.Shard.Pred = p
		}
		pool, err := cluster.NewPool(c)
		if err != nil {
			closePools(pools)
			return nil, nil, err
		}
		pools = append(pools, pool)
		preds = append(preds, c.Shard.Pred)
	}
	return pools, preds, nil
}

func closePools(pools []*cluster.Pool) {
	for _, p := range pools {
		p.Close()
	}
}

func sumClamps(preds []*core.Predictor) uint64 {
	var n uint64
	for _, p := range preds {
		n += p.BoundClamps()
	}
	return n
}

// passMode selects how a pass submits its jobs.
type passMode struct {
	// replay submits the pools' pre-collected traces instead of payloads.
	replay bool
	// traced stages payload jobs through public calls before submitting
	// the assembled traces, and records spans on the generator's timeline.
	traced bool
}

// passResult is one pass over one chunk of the stream.
type passResult struct {
	chunk int
	wall  time.Duration
	// lat is per stream job: from the Submit call until the Outcome
	// arrives, or until Submit returns for a shed job. p50 and p99 are
	// its quantiles in microseconds.
	lat      []time.Duration
	p50, p99 float64
	// waitSum and waits total the host wait of served jobs: from Submit
	// returning until the Outcome arrives.
	waitSum  time.Duration
	waits    int
	outcomes []serve.Outcome
	shed     []bool
	// staged holds, on traced payload passes, the trace each job was
	// submitted with.
	staged                         []core.JobTrace
	stats                          []cluster.PoolStats
	peakHeap, allocBytes, gcCycles uint64
	simJobs, clamps                uint64
	failed                         int
}

// pendingJob hands one submitted job to the collector.
type pendingJob struct {
	i      int
	ch     chan serve.Outcome // nil when the pool shed the job
	t0, t1 time.Time          // Submit called and returned
}

// runPass serves one chunk of the stream through fresh pools.
func (w *servingWorkload) runPass(chunk int, mode passMode, sp *spans) (*passResult, error) {
	pools, preds, err := w.newPools()
	if err != nil {
		return nil, err
	}
	var stagers []*stager
	if mode.traced && !mode.replay && !w.replay {
		for _, p := range preds {
			stagers = append(stagers, newStager(p))
		}
	}
	stream := w.chunks[chunk]
	n := len(stream)
	res := &passResult{chunk: chunk, lat: make([]time.Duration, n), outcomes: make([]serve.Outcome, n), shed: make([]bool, n)}
	if stagers != nil {
		res.staged = make([]core.JobTrace, n)
	}
	clamps0, sims0 := sumClamps(preds), core.SimulatedJobs()
	rt0 := readRuntime()
	pending := make(chan pendingJob, pendingDepth)
	done := make(chan struct{})
	go collect(pending, res, done)

	start := time.Now() //detlint:allow host timing of the pass
	mark := start
	var runErr error
	for i, sj := range stream {
		if sp != nil {
			sp.lap(stHarness, &mark)
		}
		ch := make(chan serve.Outcome, 1)
		job := cluster.Job{Arrival: sj.arrival, Result: ch}
		switch {
		case mode.replay || w.replay:
			job.Trace = &w.traces[sj.pool][sj.job]
		case stagers != nil:
			tr, err := stagers[sj.pool].stage(w.payloads[sj.pool][sj.job], sp, &mark)
			if err != nil {
				runErr = err
			}
			res.staged[i] = tr
			job.Trace = &res.staged[i]
		default:
			job.Payload = w.payloads[sj.pool][sj.job]
		}
		if runErr != nil {
			break
		}
		t0 := mark
		if sp == nil {
			t0 = time.Now() //detlint:allow job latency starts at the Submit call
		}
		err := pools[sj.pool].Submit(job)
		t1 := time.Now() //detlint:allow Submit return time
		if sp != nil {
			sp.add(stSubmit, t1.Sub(t0))
			mark = t1
		}
		pj := pendingJob{i: i, ch: ch, t0: t0, t1: t1}
		if errors.Is(err, cluster.ErrShed) {
			res.shed[i] = true
			pj.ch = nil
		} else if err != nil {
			runErr = fmt.Errorf("submit job %d: %w", i, err)
			break
		}
		pending <- pj
	}
	close(pending)
	<-done
	closePools(pools)
	end := time.Now() //detlint:allow host timing of the pass
	res.wall = end.Sub(start)
	if sp != nil {
		sp.add(stDrain, end.Sub(mark))
	}
	if runErr != nil {
		return nil, runErr
	}
	rt1 := readRuntime()
	res.allocBytes, res.gcCycles = rt1.alloc-rt0.alloc, rt1.gcs-rt0.gcs
	res.peakHeap = max(res.peakHeap, rt0.heap, rt1.heap)
	res.simJobs, res.clamps = core.SimulatedJobs()-sims0, sumClamps(preds)-clamps0
	for _, p := range pools {
		res.stats = append(res.stats, p.Stats())
	}
	for i, o := range res.outcomes {
		if !res.shed[i] && o.Err != nil {
			res.failed++
		}
	}
	lat := micros(res.lat)
	res.p50, res.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	return res, nil
}

// collect receives outcomes in submission order, timestamping each as
// it arrives, and samples the heap in use as it goes.
func collect(pending <-chan pendingJob, res *passResult, done chan<- struct{}) {
	defer close(done)
	var last time.Time
	for pj := range pending {
		if pj.ch == nil {
			res.lat[pj.i] = pj.t1.Sub(pj.t0)
			continue
		}
		o := <-pj.ch
		now := time.Now() //detlint:allow outcome arrival time
		res.lat[pj.i] = now.Sub(pj.t0)
		res.waitSum += now.Sub(pj.t1)
		res.waits++
		res.outcomes[pj.i] = o
		if now.Sub(last) >= heapSampleEvery {
			res.peakHeap = max(res.peakHeap, readRuntime().heap)
			last = now
		}
	}
}

// comparable strips the counters that accumulate across a whole
// predictor rather than one pass (BoundClamps), so pool stats of passes
// over the same chunk compare bit for bit.
func comparable(stats []cluster.PoolStats) []cluster.PoolStats {
	out := make([]cluster.PoolStats, len(stats))
	for i, st := range stats {
		st.Replicas = append([]cluster.ReplicaStats(nil), st.Replicas...)
		for j := range st.Replicas {
			st.Replicas[j].BoundClamps = 0
		}
		out[i] = st
	}
	return out
}

// checkPools verifies job conservation: every submitted job was served
// or shed, every placed job completed or was handed off, and the
// collector received one outcome per served job.
func checkPools(rep *report, res *passResult) {
	var served uint64
	for _, st := range res.stats {
		if st.Fleet.Done+st.Shed != st.Submitted {
			rep.fail("%s: done %d + shed %d != submitted %d", st.Name, st.Fleet.Done, st.Shed, st.Submitted)
		}
		for _, r := range st.Replicas {
			if r.Done+r.HandedOff != r.Placed {
				rep.fail("%s: done %d + handed off %d != placed %d", r.Name, r.Done, r.HandedOff, r.Placed)
			}
		}
		served += st.Fleet.Done
	}
	if served != uint64(res.waits) {
		rep.fail("%d outcomes received for %d served jobs", res.waits, served)
	}
}

// simulated holds the modelled-hardware metrics of one pass over every
// chunk: deterministic for a given stream, whatever the host does.
type simulated struct {
	energyMJ, missRate, savingsPct, underPct float64
}

func (w *servingWorkload) simulated(passes []*passResult) (simulated, error) {
	var m simulated
	var submitted, done, errs, misses, shed, lost uint64
	var energy float64
	// The baseline is each pool's completed jobs replayed at the constant
	// nominal frequency; under-predictions count among predicted jobs.
	byPool := make([][]core.JobTrace, len(w.cfgs))
	var predicted, under int
	for _, res := range passes {
		for _, st := range res.stats {
			submitted += st.Submitted
			shed += st.Shed
			lost += st.Lost
			done += st.Fleet.Done
			misses += st.Fleet.Misses
			energy += st.Fleet.Energy
			for _, r := range st.Replicas {
				errs += r.Errors
			}
		}
		for i, sj := range w.chunks[res.chunk] {
			o := res.outcomes[i]
			if res.shed[i] || o.Err != nil {
				continue
			}
			tr := w.traces[sj.pool][sj.job]
			byPool[sj.pool] = append(byPool[sj.pool], tr)
			if !o.Degraded {
				predicted++
				if o.Job.PredT0 < tr.Seconds {
					under++
				}
			}
		}
	}
	var base float64
	for p, trs := range byPool {
		prof := w.cfgs[p].Shard.Profile
		r, err := sim.Run(trs, sim.Config{Device: prof.Device, Power: prof.Power, SlicePower: prof.SlicePower,
			Deadline: prof.Deadline, Controller: control.NewBaseline()})
		if err != nil {
			return m, err
		}
		base += r.Energy
	}
	m.energyMJ = 1e3 * ratio(energy, float64(done-errs))
	m.missRate = ratio(float64(misses+shed+errs+lost), float64(submitted))
	m.savingsPct = 100 * (1 - ratio(energy, base))
	m.underPct = 100 * ratio(float64(under), float64(predicted))
	return m, nil
}

// runServing sets a serving workload up, runs its timed passes, checks
// their outputs and reports its metrics.
func runServing(cfg config, build func() (*servingWorkload, error)) (*report, error) {
	w, setupS, err := setUp(cfg, build)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.values["setup_s"] = setupS
	// Untraced passes cycle through the chunks, and so do traced ones.
	// Every pass over a chunk, traced or not, must give the same pool
	// stats as the first. The first untraced pass of each chunk keeps its
	// per-job data for the simulated metrics, and the first traced pass
	// for the layer probes.
	k := len(w.chunks)
	var plain, traced []*passResult
	firsts := make([]*passResult, k)
	refs := make([][]cluster.PoolStats, k)
	passSpans := newSpans("pass")
	err = timed(cfg, k, func(tr bool) error {
		c, sp := len(plain)%k, (*spans)(nil)
		if tr {
			c, sp = len(traced)%k, passSpans
		}
		res, err := w.runPass(c, passMode{traced: tr}, sp)
		if err != nil {
			return err
		}
		rep.attempted += len(w.chunks[c])
		rep.failed += res.failed
		rep.walls = append(rep.walls, res.wall.Seconds())
		checkPools(rep, res)
		if refs[c] == nil {
			refs[c] = comparable(res.stats)
		} else if !reflect.DeepEqual(comparable(res.stats), refs[c]) {
			rep.fail("chunk %d: pool stats differ between passes over it", c)
		}
		keep := false
		if tr {
			keep = len(traced) == 0
			traced = append(traced, res)
		} else {
			keep = firsts[c] == nil
			if keep {
				firsts[c] = res
			}
			plain = append(plain, res)
		}
		if !keep {
			res.lat, res.outcomes, res.shed, res.staged = nil, nil, nil, nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if w.traces == nil {
		if err := w.collect(); err != nil {
			return nil, err
		}
	}
	if !w.replay && w.saved == nil {
		res, err := w.runPass(0, passMode{replay: true}, nil)
		if err != nil {
			return nil, err
		}
		checkPools(rep, res)
		if !reflect.DeepEqual(comparable(res.stats), refs[0]) {
			rep.fail("replaying pre-collected traces gave other pool stats than serving the payloads")
		}
	}

	sm, err := w.simulated(firsts)
	if err != nil {
		return nil, err
	}
	var walls, p50s, p99s, peaks []float64
	for _, res := range plain {
		walls = append(walls, res.wall.Seconds())
		p50s = append(p50s, res.p50)
		p99s = append(p99s, res.p99)
		peaks = append(peaks, float64(res.peakHeap))
	}
	v := rep.values
	v["wall_s"] = median(walls)
	v["jobs_per_s"] = float64(len(w.chunks[0])) / median(walls)
	v["job_p50_us"] = median(p50s)
	v["job_p99_us"] = median(p99s)
	v["peak_heap_mb"] = median(peaks) / (1 << 20)
	v["energy_mj_per_job"] = sm.energyMJ
	v["miss_rate"] = sm.missRate
	v["energy_savings_pct"] = sm.savingsPct
	v["pred_under_pct"] = sm.underPct
	if cfg.trace {
		if err := w.layers(rep, plain, traced, passSpans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// layers fills the per-layer metrics of a traced serving run.
func (w *servingWorkload) layers(rep *report, plain, traced []*passResult, pass *spans) error {
	v := rep.values
	probe := newSpans("probe")
	rep.spans = []*spans{pass}

	// The RTL and core stages: the traced passes staged every job; the
	// fleet's timed phase runs no RTL, so its set-up collection is staged
	// instead and checked against CollectTraces.
	t := traced[0]
	staged, sims, clamps, wantSims := pass, t.simJobs, t.clamps, len(w.chunks[t.chunk])
	if w.replay {
		staged = newSpans("staged-setup")
		rep.spans = append(rep.spans, staged)
		clamps0, sims0 := sumClamps(w.preds), core.SimulatedJobs()
		wantSims = 0
		for p, jobs := range w.payloads {
			st := newStager(w.preds[p])
			mark := time.Now() //detlint:allow traced span boundary
			for j, job := range jobs {
				tr, err := st.stage(job, staged, &mark)
				if err != nil {
					return err
				}
				if !sameTrace(tr, w.traces[p][j]) {
					rep.fail("%s job %d: staged trace differs from CollectTraces", w.cfgs[p].Shard.Name, j)
				}
			}
			wantSims += len(jobs)
		}
		sims, clamps = core.SimulatedJobs()-sims0, sumClamps(w.preds)-clamps0
	}
	if sims != uint64(wantSims) {
		rep.fail("core.sim_jobs %d, want one full-design run per job (%d)", sims, wantSims)
	}
	stagedLayers(v, staged)
	v["core.train_s"] = w.trainTime.Seconds()
	v["core.collect_s"] = w.collectTime.Seconds()
	v["core.sim_jobs"] = float64(sims)
	v["core.bound_clamps"] = float64(clamps)

	bad, err := redrive(w.preds, w.trainJobs, probe)
	if err != nil {
		return err
	}
	rep.failures = append(rep.failures, bad...)
	g, err := checkGolden()
	if err != nil {
		return err
	}
	rep.failures = append(rep.failures, g.bad...)
	v["exp.replay_s"] = g.replay.Seconds()

	stats, err := w.observeProbe(t, probe)
	if err != nil {
		return err
	}
	if w.saved != nil {
		for p, st := range stats {
			if !reflect.DeepEqual(st, t.stats[p].Online) {
				rep.fail("%s: replayed trainer %+v differs from the pool's %+v", w.cfgs[p].Shard.Name, st, t.stats[p].Online)
			}
		}
	}
	predictProbe(w.preds, w.traces, probe)
	if err := stepperProbe(w.cfgs, w.traces, probe); err != nil {
		return err
	}
	probeLayers(v, probe)
	servedLayers(v, pass, traced)
	runtimeLayers(v, plain, len(w.chunks[0]))

	var plainWalls, tracedWalls []float64
	var tracedWall time.Duration
	for _, res := range plain {
		plainWalls = append(plainWalls, res.wall.Seconds())
	}
	for _, res := range traced {
		tracedWalls = append(tracedWalls, res.wall.Seconds())
		tracedWall += res.wall
	}
	v["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)
	cov := pass.selfSum().Seconds() / tracedWall.Seconds()
	v["trace.coverage"] = cov
	if cov < 0.9 || cov > 1.1 {
		rep.fail("traced stage self times cover %.3f of the traced wall time", cov)
	}
	rep.spans = append(rep.spans, probe)
	return nil
}

// stagedLayers reports the RTL and core stages of staged jobs.
func stagedLayers(v map[string]float64, sp *spans) {
	jobs := float64(sp.count[stFull])
	v["rtl.full_us"] = sp.meanUS(stFull)
	v["rtl.slice_us"] = sp.meanUS(stSlice)
	v["rtl.full_ns_per_tick"] = ratio(float64(sp.total[stFull].Nanoseconds()), float64(sp.ticks))
	v["rtl.full_ticks_per_job"] = ratio(float64(sp.ticks), jobs)
	v["rtl.slice_ticks_per_job"] = ratio(float64(sp.sliceTicks), jobs)
	v["rtl.native_fallbacks"] = float64(rtl.NativeFallbacks())
	v["core.trace_us"] = sp.meanUS(stTrace)
}

// probeLayers reports the standalone front-end and layer timings.
func probeLayers(v map[string]float64, sp *spans) {
	v["analyze.s"] = sp.total[stAnalyze].Seconds()
	v["lint.s"] = sp.total[stLint].Seconds()
	v["instrument.s"] = sp.total[stInstrument].Seconds()
	v["absint.s"] = sp.total[stAbsint].Seconds()
	v["model.fit_s"] = sp.total[stFit].Seconds()
	v["slice.s"] = sp.total[stSliceGen].Seconds()
	v["core.predict_ns"] = sp.meanNS(stPredictLoop)
	v["sim.step_ns"] = sp.meanNS(stStep)
	v["sim.project_ns"] = sp.meanNS(stProject)
	v["dvfs.select_ns"] = sp.meanNS(stSelect)
	v["online.observe_us"] = sp.meanUS(stObserve)
}

// servedLayers reports the router, replica and trainer layers of traced
// serving passes (the first traced pass's counts).
func servedLayers(v map[string]float64, pass *spans, traced []*passResult) {
	var sum time.Duration
	var waits int
	for _, res := range traced {
		sum += res.waitSum
		waits += res.waits
	}
	v["cluster.submit_us"] = pass.meanUS(stSubmit)
	v["serve.host_wait_us"] = ratio(float64(sum.Nanoseconds())/1e3, float64(waits))
	var shed, intrinsic, degraded, switches, retrains, promotions, rejects uint64
	var waitP99 float64
	for _, st := range traced[0].stats {
		shed += st.Shed
		intrinsic += st.Intrinsic
		degraded += st.Fleet.Degraded
		switches += st.Fleet.Switches
		retrains += st.Online.Retrains
		promotions += st.Online.Promotions
		rejects += st.Online.CanaryRejects
		for _, r := range st.Replicas {
			waitP99 = max(waitP99, r.WaitP99)
		}
	}
	v["cluster.shed"] = float64(shed)
	v["cluster.intrinsic"] = float64(intrinsic)
	v["serve.degraded"] = float64(degraded)
	v["serve.switches"] = float64(switches)
	v["serve.virtual_wait_p99_ms"] = waitP99 * 1e3
	v["online.retrains"] = float64(retrains)
	v["online.promotions"] = float64(promotions)
	v["online.canary_rejects"] = float64(rejects)
}

// runtimeLayers reports the Go runtime's allocation per job and GC
// cycles per pass over the untraced passes.
func runtimeLayers(v map[string]float64, plain []*passResult, jobs int) {
	var alloc, gcs float64
	for _, res := range plain {
		alloc += float64(res.allocBytes)
		gcs += float64(res.gcCycles)
	}
	n := float64(len(plain))
	v["go.alloc_kb_per_job"] = alloc / n / float64(jobs) / 1024
	v["go.gc_cycles"] = gcs / n
}

// observeProbe replays a pass's observation stream — its completed,
// non-degraded jobs in submission order, each with the trace it was
// served from and whether it missed — into a fresh online.Trainer over
// a clone of each pool's predictor, timing every Observe (which joins a
// finished background refit). On serve-drift this is exactly the stream
// the pool's own trainer saw, so the two must agree; elsewhere it shows
// what online learning would cost, over at most observeCap jobs a pool.
func (w *servingWorkload) observeProbe(res *passResult, sp *spans) ([]online.Stats, error) {
	out := make([]online.Stats, len(w.cfgs))
	for p, c := range w.cfgs {
		var data []byte
		var err error
		if w.saved != nil {
			data = w.saved[p]
		} else if data, err = w.preds[p].Save(); err != nil {
			return nil, err
		}
		clone, err := core.Load(data, w.preds[p].Spec)
		if err != nil {
			return nil, fmt.Errorf("clone %s predictor: %w", c.Shard.Name, err)
		}
		var ocfg online.Config
		if c.Shard.Online != nil {
			ocfg = *c.Shard.Online
		}
		prof := c.Shard.Profile
		trainer, err := online.NewTrainer(clone, prof.Stepper, prof.Deadline, ocfg)
		if err != nil {
			return nil, err
		}
		n := 0
		for i, sj := range w.chunks[res.chunk] {
			o := res.outcomes[i]
			if sj.pool != p || res.shed[i] || o.Err != nil || o.Degraded {
				continue
			}
			if c.Shard.Online == nil && n >= observeCap {
				break
			}
			tr := w.traces[sj.pool][sj.job]
			if res.staged != nil {
				tr = res.staged[i]
			}
			t0 := time.Now() //detlint:allow standalone layer timing
			trainer.Observe(tr, o.Missed())
			sp.add(stObserve, time.Since(t0)) //detlint:allow standalone layer timing
			n++
		}
		trainer.Close()
		out[p] = trainer.Stats()
	}
	return out, nil
}
