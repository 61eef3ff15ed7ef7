package cluster

import (
	"testing"

	"repro/internal/serve"
)

// auditPolicy wraps a routing policy and asserts the placement contract
// on every pick, with access to the pool's replica state (Pick runs
// under the pool lock, so reading it here is race-free):
//
//   - the pick is in range (or -1),
//   - dead replicas are never offered as candidates, and draining ones
//     only on the recovery fallback (every candidate draining),
//   - no candidate's step starts before its replica came up,
//   - predict picks the (energy, finish, id)-lexicographic minimum
//     among feasible candidates, sheds only load-infeasible jobs, and
//     places intrinsically infeasible ones at the earliest start.
type auditPolicy struct {
	inner Policy
	pool  *Pool
	t     *testing.T
	// picks records every decision in order.
	picks []int
}

func (a *auditPolicy) Name() string { return a.inner.Name() }

func (a *auditPolicy) Pick(cands []Candidate, key string) int {
	t := a.t
	if len(cands) == 0 {
		t.Fatal("Pick called with no candidates")
	}
	idx := a.inner.Pick(cands, key)
	if idx >= len(cands) {
		t.Fatalf("%s: pick %d of %d candidates", a.inner.Name(), idx, len(cands))
	}
	allDraining := true
	for _, c := range cands {
		for _, r := range a.pool.replicas {
			if r.id != c.ID {
				continue
			}
			if r.dead {
				t.Fatalf("dead replica %d offered as a candidate", r.id)
			}
			if c.Start < r.activeFrom {
				t.Fatalf("replica %d, active from %g, would start a job at %g", r.id, r.activeFrom, c.Start)
			}
			if !r.draining {
				allDraining = false
			}
		}
	}
	if !allDraining {
		for _, r := range a.pool.replicas {
			if !r.draining {
				continue
			}
			for _, c := range cands {
				if c.ID == r.id {
					t.Fatalf("draining replica %d offered alongside active ones", r.id)
				}
			}
		}
	}
	if _, ok := a.inner.(PolicyPredict); ok {
		a.auditPredict(cands, idx)
	}
	a.picks = append(a.picks, idx)
	return idx
}

func (a *auditPolicy) auditPredict(cands []Candidate, idx int) {
	t := a.t
	anyFeasible, anyFresh := false, false
	for _, c := range cands {
		anyFeasible = anyFeasible || c.Feasible
		anyFresh = anyFresh || c.FreshFeasible
	}
	switch {
	case idx < 0:
		if anyFeasible {
			t.Fatal("predict shed a job with a feasible replica available")
		}
		if !anyFresh {
			t.Fatal("predict shed an intrinsically infeasible job instead of placing it")
		}
	case anyFeasible:
		ch := cands[idx]
		if !ch.Feasible {
			t.Fatalf("predict picked infeasible replica %d over a feasible one", ch.ID)
		}
		for _, c := range cands {
			if c.Feasible && less3(c.Result.Energy, c.Finish, float64(c.ID),
				ch.Result.Energy, ch.Finish, float64(ch.ID)) {
				t.Fatalf("predict picked replica %d (energy %g, finish %g) over replica %d (energy %g, finish %g)",
					ch.ID, ch.Result.Energy, ch.Finish, c.ID, c.Result.Energy, c.Finish)
			}
		}
	default:
		if anyFresh {
			t.Fatal("predict placed a load-infeasible job instead of shedding it")
		}
		ch := cands[idx]
		for _, c := range cands {
			if c.Start < ch.Start || (c.Start == ch.Start && c.ID < ch.ID) {
				t.Fatalf("intrinsic job placed at start %g on replica %d, not earliest start %g on replica %d",
					ch.Start, ch.ID, c.Start, c.ID)
			}
		}
	}
}

// FuzzRouterPlacement drives a replica pool with an arbitrary byte-
// encoded scenario — policy, fleet size, backlog bound, an optional
// crash horizon (with or without restart), an optional mid-stream
// drain, and a job stream of arbitrary gaps and durations — and holds
// the router to its invariants: no panics, placements only on eligible
// replicas, predict's choice lexicographically minimal among feasible,
// and exact job conservation (every submission is placed, shed or
// counted as an error; every admitted job yields exactly one outcome;
// handoffs equal recoveries; nothing is silently dropped, and nothing
// is lost while a restart is registered).
//
// Encoding: data[0] policy, data[1] replicas, data[2] backlog bound,
// data[3] kill spec (bit0 arm, bit1 restart, rest replica index), then
// byte pairs of (arrival gap, duration); a 0xFF gap byte drains the
// highest-id active replica instead of submitting, and a 0xFE gap byte
// submits a job without a trace, which the replay-only pool must
// reject as a counted error.
func FuzzRouterPlacement(f *testing.F) {
	for _, seed := range routerSeeds {
		f.Add(seed)
	}
	f.Fuzz(fuzzScenario)
}

// routerSeeds is FuzzRouterPlacement's seed corpus.
var routerSeeds = [][]byte{
	{0, 2, 0, 0, 10, 50, 30, 80, 200, 120, 0, 60},
	{1, 2, 0, 3, 0, 90, 0, 90, 5, 90, 90, 40, 200, 100, 90, 90},
	{2, 3, 2, 0, 10, 50, 255, 0, 20, 60, 20, 60, 0, 200},
	{0, 1, 1, 1, 0, 255, 0, 255, 40, 40, 250, 10, 0, 10},
	{1, 2, 0, 0, 10, 50, 254, 0, 20, 60},
}

// fuzzScenario is FuzzRouterPlacement's body, shared with the
// deterministic regression tests that replay notable inputs.
func fuzzScenario(t *testing.T, data []byte) {
	runScenario(t, data, scenarioOpts{})
}

// scenarioOpts selects reference implementations and extra machinery
// for runScenario.
type scenarioOpts struct {
	// eagerFresh selects the reference placement that fills
	// FreshFeasible before every Pick.
	eagerFresh bool
	// freshRing routes the hash policy through PolicyHash.Pick, which
	// rebuilds the ring on every pick, instead of a pool's cached ring.
	freshRing bool
	// autoscale, when set, lets the pool scale itself.
	autoscale *AutoscaleConfig
}

// runScenario drives one encoded scenario (see FuzzRouterPlacement) and
// checks every invariant. It returns the policy's decisions in order and
// the closed pool's statistics (nil and zero for inputs too short to
// decode).
func runScenario(t *testing.T, data []byte, opts scenarioOpts) ([]int, PoolStats) {
	if len(data) < 6 {
		return nil, PoolStats{}
	}
	// The audit wrapper hides the policy's type from the pool, so the
	// hash policy's per-pool ring is created here.
	var hash Policy = &hashRing{}
	if opts.freshRing {
		hash = PolicyHash{}
	}
	pols := []Policy{PolicyPredict{}, PolicyPressure{}, hash}
	cfg := testConfig("fz", 1+int(data[1])%4)
	cfg.MaxBacklog = int(data[2]) % 4
	if k := data[3]; k&1 == 1 {
		restart := -1.0
		if k&2 == 2 {
			restart = 10e-3
		}
		cfg.Kills = []Kill{{Replica: int(k>>2) % cfg.Replicas, At: 25e-3, RestartAfter: restart}}
	}
	cfg.Autoscale = opts.autoscale
	audit := &auditPolicy{inner: pols[int(data[0])%3], t: t}
	cfg.Policy = audit
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.eagerFresh = opts.eagerFresh
	audit.pool = p

	ops := data[4:]
	res := make(chan serve.Outcome, len(ops))
	clock := 0.0
	submitted, placed, errored := 0, 0, 0
	drained := false
	for i := 0; i+1 < len(ops); i += 2 {
		if ops[i] == 0xFE {
			submitted++
			errored++
			if err := p.Submit(Job{Arrival: clock, Result: res}); err == nil || err == ErrShed {
				t.Fatalf("traceless job on a replay-only pool: err %v", err)
			}
			continue
		}
		if ops[i] == 0xFF && !drained {
			p.mu.Lock()
			if cands := p.candidates(nil, clock); len(cands) > 1 {
				cands[len(cands)-1].draining = true
				drained = true
			}
			p.mu.Unlock()
			continue
		}
		clock += float64(ops[i]) * 1e-4               // 0..25.4 ms gaps
		tr := synthTrace(0.1 + float64(ops[i+1])*0.1) // 0.1..25.6 ms jobs: some intrinsically late
		submitted++
		switch err := p.Submit(Job{Arrival: clock, Trace: &tr, Result: res}); err {
		case nil:
			placed++
		case ErrShed:
		default:
			t.Fatal(err)
		}
	}
	p.Close()

	// Every submission ended in exactly one of placed, shed or errored.
	st := p.Stats()
	shed := submitted - placed - errored
	if st.Submitted != uint64(submitted) || st.Shed != uint64(shed) || st.Errors != uint64(errored) {
		t.Fatalf("submitted %d shed %d errors %d, want %d/%d/%d",
			st.Submitted, st.Shed, st.Errors, submitted, shed, errored)
	}
	if got := len(res); got != placed+errored {
		t.Fatalf("%d outcomes for %d admitted + %d errored jobs", got, placed, errored)
	}
	errs := uint64(0)
	for i := 0; i < placed+errored; i++ {
		if o := <-res; o.Err != nil {
			errs++
		}
	}
	if errs != st.Lost+st.Errors {
		t.Fatalf("%d errored outcomes, %d counted lost + %d router errors", errs, st.Lost, st.Errors)
	}
	var done, handed uint64
	for _, rs := range st.Replicas {
		if rs.Done+rs.HandedOff != rs.Placed {
			t.Fatalf("replica %d: done %d + handed off %d != placed %d", rs.ID, rs.Done, rs.HandedOff, rs.Placed)
		}
		if rs.State == "active" && rs.HandedOff != 0 {
			t.Fatalf("live replica %d handed off %d jobs", rs.ID, rs.HandedOff)
		}
		if rs.Doomed != 0 {
			t.Fatalf("replica %d: %d doomed jobs unrecovered after Close", rs.ID, rs.Doomed)
		}
		done += rs.Done
		handed += rs.HandedOff
	}
	if handed != st.Replaced {
		t.Fatalf("shards handed off %d jobs, router recovered %d", handed, st.Replaced)
	}
	if done != uint64(placed)-st.Lost {
		t.Fatalf("fleet served %d jobs, want %d admitted - %d lost", done, placed, st.Lost)
	}
	if data[3]&3 == 3 && st.Lost != 0 {
		t.Fatalf("%d recovered jobs lost with a restart registered", st.Lost)
	}
	if st.Placed != uint64(placed)+st.Replaced-st.Lost {
		t.Fatalf("placement counter %d, want %d admissions + %d recoveries - %d lost",
			st.Placed, placed, st.Replaced, st.Lost)
	}
	return audit.picks, st
}
