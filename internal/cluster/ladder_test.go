package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/workload"
)

// stallPool is a one-replica pressure pool (admits every job in order)
// with the router's stall ladder armed: every first attempt stalls
// (rate 1, transient: retries never re-fault).
func stallPool(t *testing.T, retries int, penalty float64) *Pool {
	t.Helper()
	cfg := testConfig("stall", 1)
	cfg.Policy = PolicyPressure{}
	cfg.Shard.Faults = fault.New(3).Site(serve.FaultStall, 1)
	cfg.Shard.MaxRetries = retries
	cfg.Shard.RetryBackoff = 50 * time.Microsecond
	cfg.Shard.StallPenalty = penalty
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// submitTraces routes synthetic jobs of the given durations (ms) and
// returns their outcomes in order, closing the pool afterwards.
func submitTraces(t *testing.T, p *Pool, ms []float64, arrivals []float64) []serve.Outcome {
	t.Helper()
	res := make(chan serve.Outcome, len(ms))
	for i, m := range ms {
		tr := synthTrace(m)
		if err := p.Submit(Job{Arrival: arrivals[i], Trace: &tr, Result: res}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Close()
	out := make([]serve.Outcome, 0, len(ms))
	for range ms {
		out = append(out, <-res)
	}
	return out
}

// TestStallRetryRecovers: with one retry allowed, every job recovers on
// its retry — no degradation, no errors, and the stall delay charged
// to the budget by the replica.
func TestStallRetryRecovers(t *testing.T) {
	p := stallPool(t, 1, 1e-3)
	ms := []float64{4, 8, 12, 5}
	outs := submitTraces(t, p, ms, workload.PeriodicArrivals(len(ms), testDeadline))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Stalls != 1 || o.StallDelay != 1e-3 {
			t.Errorf("job %d: stalls %d delay %g, want 1 stall of 1ms", i, o.Stalls, o.StallDelay)
		}
		if o.Degraded {
			t.Errorf("job %d degraded despite a successful retry", i)
		}
	}
	st := p.Stats().Replicas[0]
	n := uint64(len(ms))
	if st.Stalled != n || st.Retries != n {
		t.Errorf("stalled %d retries %d, want %d each", st.Stalled, st.Retries, n)
	}
	if st.Degraded != 0 || st.DegradedStall != 0 || st.Errors != 0 {
		t.Errorf("degraded %d (stall-triggered %d), errors %d, want zeros", st.Degraded, st.DegradedStall, st.Errors)
	}
}

// TestStallExhaustionDegrades: with no retries allowed, a stalled job
// falls back to the degraded path instead of erroring, and the
// transition is attributed to stall exhaustion in the replica's stats.
func TestStallExhaustionDegrades(t *testing.T) {
	p := stallPool(t, 0, 1e-3)
	ms := []float64{4, 8, 5}
	outs := submitTraces(t, p, ms, workload.PeriodicArrivals(len(ms), testDeadline))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if !o.Degraded {
			t.Errorf("job %d not degraded after stall exhaustion", i)
		}
	}
	ps := p.Stats()
	st := ps.Replicas[0]
	n := uint64(len(ms))
	if st.Degraded != n || st.DegradedStall != n {
		t.Errorf("degraded %d (stall-triggered %d), want %d", st.Degraded, st.DegradedStall, n)
	}
	if st.Retries != 0 || st.Stalled != n || st.Errors != 0 || ps.Errors != 0 {
		t.Errorf("retries %d stalled %d errors %d (router %d)", st.Retries, st.Stalled, st.Errors, ps.Errors)
	}
}

// TestStallDelayAttributedToFaultMisses: an injected stall that pushes
// an otherwise-fitting job past its deadline counts as a fault miss,
// not a serving miss — and the router's twin projected exactly that.
func TestStallDelayAttributedToFaultMisses(t *testing.T) {
	p := stallPool(t, 1, 10e-3) // 10 ms of a 16.7 ms deadline
	// 12 ms of work fits a fresh deadline but not one down 10 ms.
	outs := submitTraces(t, p, []float64{12}, []float64{0})
	if !outs[0].Missed() {
		t.Fatal("job with 10ms injected delay met a 16.7ms deadline")
	}
	ps := p.Stats()
	st := ps.Replicas[0]
	if st.Misses != 1 || st.FaultMisses != 1 || st.ServingMisses != 0 {
		t.Errorf("misses %d fault %d serving %d, want 1/1/0", st.Misses, st.FaultMisses, st.ServingMisses)
	}
	if ps.Intrinsic != 1 {
		t.Errorf("twin projected the stalled job feasible (intrinsic %d), the replica missed it", ps.Intrinsic)
	}
}

// TestShardConfigValidatesFailureKnobs: negative watchdog knobs are
// rejected when the pool is built.
func TestShardConfigValidatesFailureKnobs(t *testing.T) {
	cfg := testConfig("x", 1)
	cfg.Shard.JobTimeout = -time.Second
	if _, err := NewPool(cfg); err == nil {
		t.Error("negative JobTimeout accepted")
	}
	cfg = testConfig("x", 1)
	cfg.Shard.RetryBackoff = -time.Second
	if _, err := NewPool(cfg); err == nil {
		t.Error("negative RetryBackoff accepted")
	}
}

// TestReplayOnlyPoolCountsPayloadJobs: a payload job on a pool without
// a predictor cannot be simulated. Submit reports the error, sends an
// error Outcome, and counts the job in Errors, so every submission
// still ends in exactly one of placed, shed or errored.
func TestReplayOnlyPoolCountsPayloadJobs(t *testing.T) {
	p, err := NewPool(testConfig("noPred", 1))
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan serve.Outcome, 2)
	if err := p.Submit(Job{Result: res}); err == nil || errors.Is(err, ErrShed) {
		t.Fatalf("payload job on a replay-only pool: err %v, want a simulation error", err)
	}
	if o := <-res; o.Err == nil {
		t.Error("payload job on a replay-only pool delivered no error outcome")
	}
	tr := synthTrace(3)
	if err := p.Submit(Job{Arrival: 1, Trace: &tr, Result: res}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if o := <-res; o.Err != nil {
		t.Fatalf("trace job after the error: %v", o.Err)
	}
	st := p.Stats()
	if st.Submitted != 2 || st.Errors != 1 || st.Placed != 1 || st.Shed != 0 {
		t.Errorf("submitted %d errors %d placed %d shed %d, want 2/1/1/0", st.Submitted, st.Errors, st.Placed, st.Shed)
	}
	if st.Fleet.Done != 1 || st.Replicas[0].Errors != 0 {
		t.Errorf("fleet done %d, replica errors %d: the failed job must never reach a replica", st.Fleet.Done, st.Replicas[0].Errors)
	}
}
