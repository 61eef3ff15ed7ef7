package cluster

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/accel"
	"repro/internal/accel/stencil"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/workload"
)

// stencilImages builds n images with rows varying 8..44 at a fixed
// column count — the covariate-drift recipe shared with the online
// test suite.
func stencilImages(n, cols int, seed int64) []workload.StencilImage {
	imgs := make([]workload.StencilImage, n)
	for i := range imgs {
		imgs[i] = workload.StencilImage{Rows: 8 + (i*7+int(seed))%37, Cols: cols, Class: "drift"}
	}
	return imgs
}

// stencilConfig trains the covariate-drift predictor (cols=40 stencil
// images; see the online package's soak for why that drifts under a
// column shift) and wires it into a pool with online learning armed.
func stencilConfig(t *testing.T, replicas int, policy Policy) Config {
	t.Helper()
	p, err := core.Train(stencil.Spec(), core.Options{TrainJobs: stencil.JobsFrom(stencilImages(40, 40, 3), 3)})
	if err != nil {
		t.Fatal(err)
	}
	pm, spm := testModels()
	return Config{
		Shard: serve.ShardConfig{
			Name: "stencil",
			Profile: serve.Profile{
				Pred:       p,
				Device:     dvfs.ASIC(p.Spec.NominalHz, false),
				Power:      pm,
				SlicePower: spm,
				Deadline:   testDeadline,
				Margin:     testMargin,
			},
			QueueDepth: 512,
			Online:     &online.Config{RingSize: 64, MinObservations: 64, DriftWindow: 32, CanaryWindow: 32},
		},
		Replicas: replicas,
		Policy:   policy,
	}
}

// driftJobs is the drifted stream: 96 stencil jobs from the training
// distribution (cols=40), then 208 drifted ones (cols=8).
func driftJobs() []accel.Job {
	jobs := stencil.JobsFrom(stencilImages(96, 40, 7), 7)
	return append(jobs, stencil.JobsFrom(stencilImages(208, 8, 11), 11)...)
}

// TestClusterPromoteOnAllReplicas: with online learning attached to the
// pool, prediction happens once at the router over the shared
// predictor, so one canary promotion moves every replica — including
// replicas the hash policy never routed a drifted job to — to the new
// model version in the same instant. The run must also be
// bit-deterministic.
func TestClusterPromoteOnAllReplicas(t *testing.T) {
	run := func() PoolStats {
		// Hash spreads jobs and keeps some replicas off the drifted
		// stream's hot path.
		pool, err := NewPool(stencilConfig(t, 3, PolicyHash{}))
		if err != nil {
			t.Fatal(err)
		}
		jobs := driftJobs()
		res := make(chan serve.Outcome, len(jobs))
		for i, job := range jobs {
			if err := pool.Submit(Job{Arrival: float64(i) * 0.02, Payload: job, Result: res}); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		pool.Close()
		if got := len(res); got != len(jobs) {
			t.Fatalf("%d outcomes for %d placed jobs", got, len(jobs))
		}
		return pool.Stats()
	}

	st := run()
	// The pool-level trainer saw the full stream and ran exactly one
	// promoted cycle — identical arithmetic to the single-shard soak,
	// because observation order is submission order regardless of which
	// replica serves each job.
	o := st.Online
	if o.Observations != 304 || o.DriftEvents != 1 || o.Retrains != 1 ||
		o.Promotions != 1 || o.CanaryRejects != 0 || o.FitErrors != 0 {
		t.Fatalf("pool trainer cycle: %+v", o)
	}
	if o.ModelVersion != 1 || !o.LastDecision.Promoted || o.LastDecision.AtObservation != 192 {
		t.Fatalf("pool decision: %+v", o.LastDecision)
	}

	// Promote-on-all-replicas: every replica reports the new version —
	// they share one predictor, so none can lag.
	if len(st.Replicas) != 3 {
		t.Fatalf("%d replicas, want 3", len(st.Replicas))
	}
	var served uint64
	for _, r := range st.Replicas {
		if r.ModelVersion != 1 {
			t.Errorf("replica %d at model version %d, want 1", r.ID, r.ModelVersion)
		}
		served += r.Done
	}
	if served != 304 || st.Fleet.Done != 304 {
		t.Fatalf("replicas served %d jobs (fleet %d), want 304", served, st.Fleet.Done)
	}
	if st.Placed != 304 || st.Shed != 0 {
		t.Fatalf("placed %d shed %d, want 304/0", st.Placed, st.Shed)
	}

	// Bit-determinism: a fresh pool over the same stream reproduces the
	// stats exactly, replica by replica.
	st2 := run()
	if !reflect.DeepEqual(st, st2) {
		t.Errorf("cluster online run diverges across reruns:\n%+v\n%+v", st, st2)
	}
}

// TestClusterOnlineNeedsPredictor: a replay-only pool has no features
// to learn from; wiring a trainer to one is a configuration error.
func TestClusterOnlineNeedsPredictor(t *testing.T) {
	cfg := testConfig("replay", 2)
	cfg.Shard.Online = &online.Config{}
	if _, err := NewPool(cfg); err == nil {
		t.Error("replay-only pool accepted an online trainer")
	}
}

// driftArrivals submits the drifted stream in back-to-back pairs 40 ms
// apart, so the second job of every pair queues behind the first on a
// one-replica pool and the model swap lands under a live backlog.
func driftArrivals(n int) []float64 {
	arrivals := make([]float64, n)
	for i := range arrivals {
		arrivals[i] = float64(i/2) * 0.04
	}
	return arrivals
}

// TestOnlineSwapDuringBacklog is the shadow-predict double-count audit
// and the swap-during-backlog regression test: with a promotion landing
// while jobs queue on a one-replica pool, the router's prediction
// histogram must count exactly one observation per routed job (the
// canary's shadow predictions never touch it), the placement invariant
// Done + HandedOff == Placed must hold, miss attribution must stay
// sane, and the whole run must be bit-deterministic.
func TestOnlineSwapDuringBacklog(t *testing.T) {
	run := func() (PoolStats, uint64) {
		cfg := stencilConfig(t, 1, PolicyPressure{})
		cfg.Shard.DegradeWait = -1
		pool, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Scrape while serving: Stats must neither deadlock nor race with
		// routing, the background refit, or the replica worker.
		stop := make(chan struct{})
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			for {
				select {
				case <-stop:
					return
				default:
					pool.Stats()
				}
			}
		}()
		jobs := driftJobs()
		arrivals := driftArrivals(len(jobs))
		res := make(chan serve.Outcome, len(jobs))
		for i, job := range jobs {
			if err := pool.Submit(Job{Arrival: arrivals[i], Payload: job, Result: res}); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		close(stop)
		<-scraped
		pool.Close()
		return pool.Stats(), pool.predHist.Count()
	}

	ps, predCount := run()
	st, os := ps.Replicas[0], ps.Online

	// Exactly one promoted cycle, same arithmetic as the drain-per-job
	// soak: queueing shifts budgets, not the observation stream.
	if os.DriftEvents != 1 || os.Retrains != 1 || os.Promotions != 1 || os.CanaryRejects != 0 {
		t.Fatalf("trainer cycle under backlog: %+v", os)
	}
	if st.ModelVersion != 1 {
		t.Fatalf("model version %d after promotion", st.ModelVersion)
	}
	if st.WaitP99 == 0 {
		t.Fatal("no job ever queued — the backlog scenario is not exercising waits")
	}

	// Placement invariant: every routed job is either served or handed
	// off, never both, never lost.
	if ps.Shed != 0 || ps.Errors != 0 || ps.Placed != 304 {
		t.Fatalf("placed %d, shed %d, errors %d: want all 304 placed", ps.Placed, ps.Shed, ps.Errors)
	}
	if st.Done+st.HandedOff != st.Placed {
		t.Fatalf("Done %d + HandedOff %d != %d placed", st.Done, st.HandedOff, st.Placed)
	}

	// No shadow-predict double counting: the prediction histogram holds
	// exactly one sample per routed job, and the trainer observed every
	// predicted (non-degraded) one.
	if predCount != ps.Placed {
		t.Fatalf("predict histogram holds %d samples, want %d routed jobs — canary shadow predictions leaked", predCount, ps.Placed)
	}
	if want := st.Done - st.Degraded; os.Observations != want {
		t.Fatalf("trainer saw %d observations, want %d", os.Observations, want)
	}

	// Miss attribution: no injector, so no fault misses; queue-wait
	// misses (the second job of early pairs) land in ServingMisses.
	if st.FaultMisses != 0 {
		t.Fatalf("fault misses %d without an injector", st.FaultMisses)
	}
	if st.ServingMisses == 0 || st.ServingMisses > st.Misses {
		t.Fatalf("serving misses %d of %d total — backlog misses misattributed", st.ServingMisses, st.Misses)
	}

	// Bit-determinism under backlog: the swap still lands between the
	// same two jobs.
	ps2, predCount2 := run()
	if !reflect.DeepEqual(ps, ps2) || predCount != predCount2 {
		t.Errorf("backlogged online run diverges across reruns:\n%+v\n%+v", ps, ps2)
	}
}

// TestOnlineSwapWithCrashHorizon: a replica crash after the promotion
// hands its queued job back; the router re-places it on the survivor,
// and the placement invariant and the swapped version both survive.
func TestOnlineSwapWithCrashHorizon(t *testing.T) {
	cfg := stencilConfig(t, 2, PolicyHash{})
	// Route both jobs of a pair by one key, so a pair hashed to replica 0
	// queues its second job there. Crash replica 0 1 ms into the first
	// such pair past the swap at observation 192: the pair's first job
	// has started and completes, its second is in flight and dies.
	pairKey := func(i int) string { return strconv.Itoa(i / 2) }
	ring := []Candidate{{ID: 0, Name: "stencil/0"}, {ID: 1, Name: "stencil/1"}}
	pair := 100
	for (PolicyHash{}).Pick(ring, pairKey(2*pair)) != 0 {
		pair++
	}
	arrivals := driftArrivals(304)
	cfg.Kills = []Kill{{Replica: 0, At: arrivals[2*pair] + 1e-3, RestartAfter: -1}}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := driftJobs()
	res := make(chan serve.Outcome, len(jobs))
	for i, job := range jobs {
		if err := pool.Submit(Job{Arrival: arrivals[i], Key: pairKey(i), Payload: job, Result: res}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	pool.Close()
	st := pool.Stats()
	dead := st.Replicas[0]
	if dead.State != "dead" || dead.HandedOff == 0 {
		t.Fatalf("crash horizon handed nothing back: %+v", dead)
	}
	for _, r := range st.Replicas {
		if r.Done+r.HandedOff != r.Placed {
			t.Fatalf("replica %d: Done %d + HandedOff %d != %d placed", r.ID, r.Done, r.HandedOff, r.Placed)
		}
		if r.ModelVersion != 1 {
			t.Fatalf("replica %d at model version %d — the promotion precedes the horizon", r.ID, r.ModelVersion)
		}
	}
	if st.Replaced != st.Fleet.HandedOff || st.Lost != 0 {
		t.Fatalf("replaced %d of %d handed off, lost %d", st.Replaced, st.Fleet.HandedOff, st.Lost)
	}
	// Every job was served exactly once, and outcomes arrived only for
	// served jobs.
	if st.Fleet.Done != 304 {
		t.Fatalf("fleet served %d of 304 jobs", st.Fleet.Done)
	}
	if got := uint64(len(res)); got != st.Fleet.Done {
		t.Fatalf("%d outcomes for %d served jobs", got, st.Fleet.Done)
	}
}

// TestStageHistogramsSplit checks the router's two wall-clock stage
// histograms: predHist counts the prediction (slice plus model) of
// every routed payload — including jobs the replica then serves
// degraded, because the router predicts before it knows the wait —
// execHist the full-design run of every payload; trace jobs add to
// neither, and each is labeled with the engine its own simulator
// resolved to.
func TestStageHistogramsSplit(t *testing.T) {
	cfg := stencilConfig(t, 1, PolicyPressure{})
	cfg.Shard.Online = nil
	cfg.Shard.DegradeWait = 1e-9 // every job that waits at all degrades
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]workload.StencilImage, 6)
	for i := range imgs {
		imgs[i] = workload.StencilImage{Rows: 10 + i, Cols: 40, Class: "c"}
	}
	jobs := stencil.JobsFrom(imgs, 9)
	for _, job := range jobs {
		if err := pool.Submit(Job{Arrival: 0, Payload: job}); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := cfg.Shard.Pred.NewJobSimulator().Trace(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := pool.Submit(Job{Arrival: 0, Trace: &tr}); err != nil {
			t.Fatal(err)
		}
	}
	pool.Close()
	st := pool.Stats().Replicas[0]
	if st.Done != uint64(len(jobs)+2) || st.Degraded == 0 || st.Degraded == st.Done {
		t.Fatalf("want a mix of predicted and degraded jobs: %+v", st)
	}
	if got := pool.predHist.Count(); got != uint64(len(jobs)) {
		t.Errorf("predHist counted %d, want %d routed payloads", got, len(jobs))
	}
	if got := pool.execHist.Count(); got != uint64(len(jobs)) {
		t.Errorf("execHist counted %d, want %d routed payloads", got, len(jobs))
	}
	sl, full := cfg.Shard.Pred.Engines()
	if pool.predEngine != string(sl) || pool.execEngine != string(full) {
		t.Errorf("labels predict=%s execute=%s, want %s and %s", pool.predEngine, pool.execEngine, sl, full)
	}
}
