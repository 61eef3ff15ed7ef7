package cluster

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/suite"
	"repro/internal/workload"
)

// chaosSeed drives the arrival jitter and job sizes; the test runs the
// same schedule twice and demands bit-identical fleet statistics.
const chaosSeed = 99

// chaosRun replays a seeded overload stream through a 3-replica pool
// with two crash horizons armed — one replica restarts, one stays dead
// — and returns the pool statistics after Close. Everything is virtual
// time, so the run is a pure function of the seed.
func chaosRun(t *testing.T, seed int64) PoolStats {
	t.Helper()
	cfg := testConfig("chaos", 3)
	// Least-pressure routing never sheds: the whole stream is admitted,
	// backlog forms, and jobs queued behind a crash horizon die with
	// their replica — the recovery path this test exists to exercise.
	cfg.Policy = PolicyPressure{}
	cfg.Kills = []Kill{
		{Replica: 0, At: 60e-3, RestartAfter: 20e-3},
		{Replica: 1, At: 120e-3, RestartAfter: -1},
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	const n = 150
	res := make(chan serve.Outcome, n)
	clock := 0.0
	for i := 0; i < n; i++ {
		clock += rng.Float64() * 4e-3         // ~2 ms mean gap:
		tr := synthTrace(4 + 8*rng.Float64()) // ~8 ms mean job = 4x overload on 3 replicas
		if err := p.Submit(Job{Arrival: clock, Trace: &tr, Result: res}); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	p.Close()

	// No lost, no duplicated jobs: every admitted job yields exactly one
	// outcome — from whichever replica finally served it, or an explicit
	// error if recovery found no live replica (never silence).
	if got := len(res); got != n {
		t.Fatalf("%d outcomes for %d admitted jobs", got, n)
	}
	errs := uint64(0)
	for i := 0; i < n; i++ {
		if o := <-res; o.Err != nil {
			errs++
		}
	}
	st := p.Stats()
	if errs != st.Lost {
		t.Fatalf("%d errored outcomes, %d counted lost", errs, st.Lost)
	}
	return st
}

// TestChaosKillsRestartsDeterministic is the fleet chaos capstone: a
// seeded overload stream with replica kills and a restart mid-stream.
// It asserts the hard guarantees — no lost or duplicated jobs, every
// casualty's queue recovered and re-placed (or attributed as fault
// debt when the recovered job then misses), the handoff ledger exactly
// matching the recovery counter — and that the whole run replays
// bit-identically under the same seed.
func TestChaosKillsRestartsDeterministic(t *testing.T) {
	st := chaosRun(t, chaosSeed)

	if st.Kills != 2 {
		t.Fatalf("%d kills fired, want 2", st.Kills)
	}
	if st.Lost != 0 {
		t.Fatalf("%d jobs lost with a live replica available", st.Lost)
	}
	if st.Shed != 0 {
		t.Fatalf("pressure policy shed %d jobs", st.Shed)
	}
	// 3 initial replicas + 1 restart; the restart activates after the
	// crash plus the restart delay.
	if len(st.Replicas) != 4 {
		t.Fatalf("%d replicas, want 4 (3 initial + restart)", len(st.Replicas))
	}
	if got := st.Replicas[3].ActiveFrom; got != 60e-3+20e-3 {
		t.Errorf("restart active from %g, want 0.08", got)
	}
	for _, rs := range st.Replicas {
		want := "active"
		if rs.ID == 0 || rs.ID == 1 {
			want = "dead"
		}
		if rs.State != want {
			t.Errorf("replica %d state %q, want %q", rs.ID, rs.State, want)
		}
		// Conservation per replica: everything the router committed here
		// was either served or handed back at the crash horizon.
		if rs.Done+rs.HandedOff != rs.Placed {
			t.Errorf("replica %d: done %d + handed off %d != placed %d", rs.ID, rs.Done, rs.HandedOff, rs.Placed)
		}
		if rs.State == "active" && rs.HandedOff != 0 {
			t.Errorf("live replica %d handed off %d jobs", rs.ID, rs.HandedOff)
		}
		if rs.Doomed != 0 {
			t.Errorf("replica %d: %d doomed jobs left unrecovered after Close", rs.ID, rs.Doomed)
		}
	}
	// Every handed-off job was re-placed exactly once per death it
	// suffered, and in-flight work that died with its replica either
	// completed elsewhere or shows up as fault debt — never vanishes.
	if st.Replaced == 0 {
		t.Fatal("no in-flight work died with a replica; the kill schedule is vacuous")
	}
	if st.Fleet.HandedOff != st.Replaced {
		t.Fatalf("fleet handed off %d jobs but router recovered %d", st.Fleet.HandedOff, st.Replaced)
	}
	if st.Fleet.Done != st.Submitted {
		t.Fatalf("fleet served %d of %d admitted jobs", st.Fleet.Done, st.Submitted)
	}
	if st.FaultDebtMisses == 0 {
		t.Error("recovered backlog never missed: fault-debt attribution untested")
	}
	if st.FaultDebtMisses > st.Fleet.Misses {
		t.Errorf("fault debt %d exceeds total misses %d", st.FaultDebtMisses, st.Fleet.Misses)
	}
	t.Logf("chaos: %d jobs, %d recovered, %d fault-debt misses of %d total, energy %.3g J",
		st.Submitted, st.Replaced, st.FaultDebtMisses, st.Fleet.Misses, st.Fleet.Energy)

	// Bit-identical replay: placement, kills, recovery and every counter
	// must be a pure function of the seed.
	again := chaosRun(t, chaosSeed)
	if !reflect.DeepEqual(st, again) {
		t.Fatalf("same-seed chaos runs diverged:\nfirst:  %+v\nsecond: %+v", st, again)
	}
}

// stallSeed drives TestChaosSoak's injected stall schedule.
const stallSeed = 1234

// stallSoakRun replays every benchmark's test workload through
// one-replica pressure pools — the router admits every job in arrival
// order — under a seeded stall schedule, and returns each pool's
// replica stats keyed by accelerator (replica names cleared).
func stallSoakRun(t *testing.T, lab *exp.Lab, seed int64) map[string]serve.Stats {
	t.Helper()
	out := make(map[string]serve.Stats)
	for _, name := range lab.Names() {
		cfg := poolCfgFor(t, lab, name, 1, 0)
		cfg.Policy = PolicyPressure{}
		// 15% of first attempts stall; retries never re-fault (transient),
		// so two retries guarantee every job eventually predicts. The
		// watchdog is armed but far beyond any real simulation time: only
		// the injected, deterministic stalls fire.
		cfg.Shard.Faults = fault.New(seed).Site(serve.FaultStall, 0.15)
		cfg.Shard.JobTimeout = 10 * time.Second
		cfg.Shard.MaxRetries = 2
		cfg.Shard.RetryBackoff = 20 * time.Microsecond
		cfg.Shard.StallPenalty = 2e-3
		p, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := lab.Entry(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs := spec.TestJobs(lab.Seed + 1)[:len(e.Test)]
		res := make(chan serve.Outcome, len(jobs))
		arrivals := workload.PeriodicArrivals(len(jobs), exp.Deadline)
		for i, job := range jobs {
			if err := p.Submit(Job{Arrival: arrivals[i], Payload: job, Result: res}); err != nil {
				t.Fatalf("%s: submit %d: %v", name, i, err)
			}
		}
		p.Close()

		// No lost or duplicated jobs: exactly one outcome per submitted
		// job and not one more.
		if got := len(res); got != len(jobs) {
			t.Fatalf("%s: %d outcomes for %d submitted jobs", name, got, len(jobs))
		}
		for i := range jobs {
			if o := <-res; o.Err != nil {
				t.Fatalf("%s: job %d failed: %v", name, i, o.Err)
			}
		}
		ps := p.Stats()
		if ps.Shed != 0 || ps.Errors != 0 || len(ps.Replicas) != 1 {
			t.Fatalf("%s: shed %d, errors %d, %d replicas", name, ps.Shed, ps.Errors, len(ps.Replicas))
		}
		st := ps.Replicas[0].Stats
		st.Name = ""
		out[name] = st
	}
	return out
}

// TestChaosSoak is the capstone failure-path test: all benchmarks are
// served through one-replica pools under a seeded stall schedule with
// the watchdog, retries and stall penalty armed. It asserts the hard
// chaos guarantees — no panics, no lost or duplicated jobs, no errors,
// injected stalls actually fired and were retried, every serving-layer
// miss is attributed to the injected schedule (ServingMisses stays
// zero) — and that every replica's stats match, field for field, the
// golden captured from the single-shard server this path replaced,
// and replay bit-identically under the same seed.
func TestChaosSoak(t *testing.T) {
	// A private lab: other tests force bound clamps on the shared one,
	// and BoundClamps is part of the golden.
	lab := exp.NewLab(42)
	lab.Quick = true
	if err := lab.Warm(); err != nil {
		t.Fatal(err)
	}
	first := stallSoakRun(t, lab, stallSeed)

	var stalled, retries, misses, faultMisses uint64
	for name, st := range first {
		if st.Errors != 0 {
			t.Errorf("%s: %d errors under injection", name, st.Errors)
		}
		if st.ServingMisses != 0 {
			t.Errorf("%s: %d misses attributed to the serving layer beyond the injected faults", name, st.ServingMisses)
		}
		stalled += st.Stalled
		retries += st.Retries
		misses += st.Misses
		faultMisses += st.FaultMisses
	}
	if stalled == 0 || retries == 0 {
		t.Fatalf("fault schedule never fired: stalled %d, retries %d", stalled, retries)
	}
	t.Logf("chaos: stalled %d, retries %d, misses %d (%d fault-attributed)", stalled, retries, misses, faultMisses)

	// The golden stores floats in Go's shortest round-trip form, so they
	// decode to the exact bits; an unknown field means serve.Stats lost
	// one the golden still pins.
	f, err := os.Open("testdata/chaos_soak_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var golden map[string]serve.Stats
	if err := dec.Decode(&golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(first) {
		t.Fatalf("golden covers %d accelerators, run served %d", len(golden), len(first))
	}
	for name, want := range golden {
		if got := first[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverges from the golden:\ngot:    %+v\ngolden: %+v", name, got, want)
		}
	}

	second := stallSoakRun(t, lab, stallSeed)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same-seed chaos runs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
