package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/control"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/suite"
	"repro/internal/workload"
)

// The fleet soak shares one quick-mode lab: training all seven
// benchmarks once dominates the cost.
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

// poolCfgFor builds a cluster pool config over the lab's trained entry,
// exactly as cmd/dvfserved does.
func poolCfgFor(t *testing.T, lab *exp.Lab, name string, replicas, queue int) Config {
	t.Helper()
	e, err := lab.Entry(name)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Shard: serve.ShardConfig{
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
		},
		Replicas: replicas,
	}
}

// TestFleetSoakReconcilesWithOfflineTables is the closed-loop capstone:
// all 7 benchmark workloads stream as frame-periodic streams through
// the predict-then-place router — over the daemon's default one
// replica per accelerator, and over three — with every job simulated
// online at the router, and the fleet-wide energy and miss rate must
// land within 1% of the offline exp replay of the same jobs, with zero
// jobs shed and zero misses attributable to the serving layer at
// nominal load.
func TestFleetSoakReconcilesWithOfflineTables(t *testing.T) {
	lab := quickLab(t)
	for _, name := range lab.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, replicas := range []int{1, 3} {
				t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
					fleetSoak(t, lab, name, replicas)
				})
			}
		})
	}
}

func fleetSoak(t *testing.T, lab *exp.Lab, name string, replicas int) {
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

	spec, err := suite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	jobs := spec.TestJobs(lab.Seed + 1)[:len(e.Test)]

	p, err := NewPool(poolCfgFor(t, lab, name, replicas, len(jobs)+1))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.PeriodicArrivals(len(jobs), exp.Deadline)
	for i, job := range jobs {
		if err := p.Submit(Job{Arrival: arrivals[i], Payload: job}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Close()
	st := p.Stats()

	if st.Shed != 0 || st.Errors != 0 {
		t.Fatalf("%d jobs shed, %d errored at nominal load", st.Shed, st.Errors)
	}
	fl := st.Fleet
	if fl.Done != uint64(len(jobs)) {
		t.Fatalf("fleet served %d of %d jobs", fl.Done, len(jobs))
	}
	if fl.ServingMisses != 0 {
		t.Errorf("%d misses attributable to the serving layer at nominal load", fl.ServingMisses)
	}
	if fl.Degraded != 0 {
		t.Errorf("%d jobs degraded at nominal load", fl.Degraded)
	}
	if d := math.Abs(fl.Energy - offline.Energy); d > 0.01*offline.Energy {
		t.Errorf("fleet energy %g vs offline %g (%.3f%% off)", fl.Energy, offline.Energy, 100*d/offline.Energy)
	}
	missRate := float64(fl.Misses) / float64(fl.Done)
	if d := math.Abs(missRate - offline.MissRate()); d > 0.01 {
		t.Errorf("fleet miss rate %.4f vs offline %.4f", missRate, offline.MissRate())
	}
	spread := 0
	for _, rs := range st.Replicas {
		if rs.Placed > 0 {
			spread++
		}
	}
	t.Logf("%s: %d jobs on %d/%d replicas, energy %.3g J (offline %.3g), misses %d (offline %d), intrinsic %d",
		name, fl.Done, spread, len(st.Replicas), fl.Energy, offline.Energy, fl.Misses, offline.Misses, st.Intrinsic)
}

// TestFleetSoakShedsUnderOverload pushes a pool far past capacity (the
// whole stream arrives at once with a tight backlog bound) and checks
// the predict router's safety valves: excess load is shed at the
// router, admitted work all completes, nothing errors, and — on the
// daemon's default single replica, where every admitted job queues
// behind the last — waiting jobs degrade to max frequency.
func TestFleetSoakShedsUnderOverload(t *testing.T) {
	lab := quickLab(t)
	name := "aes"
	e, err := lab.Entry(name)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := suite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	jobs := spec.TestJobs(lab.Seed + 1)[:len(e.Test)]

	for _, replicas := range []int{2, 1} {
		cfg := poolCfgFor(t, lab, name, replicas, len(jobs)+1)
		cfg.MaxBacklog = 2
		fleet := NewFleet()
		defer fleet.Close()
		p, err := fleet.AddPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fleet.AddPool(cfg); err == nil {
			t.Fatal("duplicate pool accepted")
		}
		if err := fleet.Submit("nope", Job{}); err == nil {
			t.Fatal("unknown pool accepted a job")
		}
		accepted := 0
		for _, job := range jobs {
			switch err := fleet.Submit(name, Job{Arrival: 0, Payload: job}); err {
			case nil:
				accepted++
			case ErrShed:
			default:
				t.Fatal(err)
			}
		}
		p.Close()
		st := fleet.Stats()[0]
		if st.Shed == 0 {
			t.Errorf("%d replicas: overload never tripped the router's shed path", replicas)
		}
		if replicas == 1 && st.Fleet.Degraded == 0 {
			t.Error("1 replica: overload never degraded to max frequency")
		}
		if st.Placed != uint64(accepted) || st.Fleet.Done != uint64(accepted) {
			t.Fatalf("%d replicas: placed %d done %d, accepted %d", replicas, st.Placed, st.Fleet.Done, accepted)
		}
		if st.Submitted != uint64(len(jobs)) || st.Placed+st.Shed+st.Errors != st.Submitted || st.Errors != 0 {
			t.Fatalf("%d replicas: submitted %d != placed %d + shed %d + errors %d", replicas, st.Submitted, st.Placed, st.Shed, st.Errors)
		}
		t.Logf("%s overload on %d replicas: accepted %d (degraded %d), shed %d of %d",
			name, replicas, accepted, st.Fleet.Degraded, st.Shed, len(jobs))
	}
}
