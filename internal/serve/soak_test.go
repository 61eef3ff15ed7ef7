package serve_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/control"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The soak tests share one quick-mode lab: training all seven
// benchmarks once is the dominant cost.
var (
	labOnce sync.Once
	soakLab *exp.Lab
	labErr  error
)

func quickLab(t *testing.T) *exp.Lab {
	t.Helper()
	labOnce.Do(func() {
		soakLab = exp.NewLab(42)
		soakLab.Quick = true
		labErr = soakLab.Warm()
	})
	if labErr != nil {
		t.Fatalf("lab warm: %v", labErr)
	}
	return soakLab
}

// shardFor builds a replica shard over the lab's trained entry, with
// the profile cmd/dvfserved hands every pool.
func shardFor(t *testing.T, e *exp.Entry, name string, queue int) *serve.Shard {
	t.Helper()
	sh, err := serve.NewShard(serve.ShardConfig{
		Name: name,
		Profile: serve.Profile{
			Pred:       e.Pred,
			Device:     dvfs.ASIC(e.Pred.Spec.NominalHz, false),
			Power:      e.Power,
			SlicePower: e.SlicePower,
			Deadline:   exp.Deadline,
			Margin:     exp.PredictiveMargin,
		},
		QueueDepth: queue,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestSoakReconcilesWithOfflineTables is the closed-loop soak of the
// replica engine: all 7 benchmark workloads' collected traces are
// replayed through a shard as frame-periodic streams, and the
// aggregate energy and deadline-miss rate must land within 1% of the
// offline exp replay of the same jobs — with zero misses attributable
// to the serving layer itself at nominal load. (The cluster package's
// fleet soak runs the same streams with prediction at the router.)
func TestSoakReconcilesWithOfflineTables(t *testing.T) {
	lab := quickLab(t)
	for _, name := range lab.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := lab.Entry(name)
			if err != nil {
				t.Fatal(err)
			}
			offline, err := sim.Run(e.Test, sim.Config{
				Device:     dvfs.ASIC(e.Pred.Spec.NominalHz, false),
				Power:      e.Power,
				SlicePower: e.SlicePower,
				Deadline:   exp.Deadline,
				Controller: control.NewPredictive(exp.PredictiveMargin, false),
			})
			if err != nil {
				t.Fatal(err)
			}

			sh := shardFor(t, e, name, len(e.Test)+1)
			arrivals := workload.PeriodicArrivals(len(e.Test), exp.Deadline)
			for i := range e.Test {
				sh.SubmitWait(serve.Job{Arrival: arrivals[i], Trace: &e.Test[i]})
			}
			sh.Close()
			st := sh.Stats()

			if st.Done != uint64(len(e.Test)) || st.Errors != 0 || st.HandedOff != 0 {
				t.Fatalf("served %d of %d jobs with %d errors, %d handed off", st.Done, len(e.Test), st.Errors, st.HandedOff)
			}
			if st.ServingMisses != 0 {
				t.Errorf("%d misses attributable to the serving layer at nominal load", st.ServingMisses)
			}
			if st.Degraded != 0 {
				t.Errorf("%d jobs degraded at nominal load", st.Degraded)
			}
			if d := math.Abs(st.Energy - offline.Energy); d > 0.01*offline.Energy {
				t.Errorf("energy %g vs offline %g (%.3f%% off)", st.Energy, offline.Energy, 100*d/offline.Energy)
			}
			if d := math.Abs(st.MissRate() - offline.MissRate()); d > 0.01 {
				t.Errorf("miss rate %.4f vs offline %.4f", st.MissRate(), offline.MissRate())
			}
			t.Logf("%s: %d jobs, energy %.3g J (offline %.3g), misses %d (offline %d), p99 latency %.2f ms",
				name, st.Done, st.Energy, offline.Energy, st.Misses, offline.Misses, st.LatencyP99*1e3)
		})
	}
}

// TestSoakOverloadDegradesInsteadOfCollapsing pushes one shard far
// past nominal load (the whole stream arrives as one burst at t=0) and
// checks the shard's safety valves: its physical queue stays bounded
// (SubmitWait applies backpressure instead of growing it), waiting
// jobs degrade to max frequency, and the shard keeps serving every
// job — no deadlock, no unbounded queue. Shedding the excess is the
// router's job (see the cluster package's overload soak).
func TestSoakOverloadDegradesInsteadOfCollapsing(t *testing.T) {
	lab := quickLab(t)
	name := "aes"
	e, err := lab.Entry(name)
	if err != nil {
		t.Fatal(err)
	}

	const queue = 8
	sh := shardFor(t, e, name, queue)
	var maxDepth int64
	for i := range e.Test {
		if d := sh.Stats().QueueDepth; d > maxDepth {
			maxDepth = d
		}
		sh.SubmitWait(serve.Job{Arrival: 0, Trace: &e.Test[i]})
	}
	sh.Close()
	st := sh.Stats()
	if st.Done != uint64(len(e.Test)) || st.Errors != 0 {
		t.Fatalf("done %d of %d submitted, %d errors", st.Done, len(e.Test), st.Errors)
	}
	if maxDepth > queue+1 {
		t.Errorf("backlog reached %d with a %d-deep queue: backpressure never applied", maxDepth, queue)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after close", st.QueueDepth)
	}
	if st.Degraded == 0 {
		t.Error("overload never degraded to max frequency")
	}
	t.Logf("%s overload: served %d, peak backlog %d, degraded %d, misses %d",
		name, st.Done, maxDepth, st.Degraded, st.Misses)
}
