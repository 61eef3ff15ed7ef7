package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/serve"
)

// TestRestartTakesRecoveredWork: when a pool's only replica crashes
// with a restart scheduled, the work that died with it goes to the
// restart, which starts it no earlier than its activation time. None
// of it is lost, and jobs that arrive while no replica is up are shed.
func TestRestartTakesRecoveredWork(t *testing.T) {
	const killAt, restartAfter = 30e-3, 5e-3
	cfg := testConfig("restart", 1)
	cfg.Policy = PolicyPressure{}
	cfg.Kills = []Kill{{Replica: 0, At: killAt, RestartAfter: restartAfter}}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 8 ms jobs every 2 ms: the backlog past the horizon dies with the
	// replica.
	const n = 30
	tr := synthTrace(8)
	res := make([]chan serve.Outcome, n)
	placed := 0
	for i := range res {
		res[i] = make(chan serve.Outcome, 1)
		switch err := p.Submit(Job{Arrival: float64(i) * 2e-3, Trace: &tr, Result: res[i]}); err {
		case nil:
			placed++
		case ErrShed:
		default:
			t.Fatal(err)
		}
	}
	p.Close()

	st := p.Stats()
	if st.Kills != 1 || st.Lost != 0 || st.Replaced == 0 || len(st.Replicas) != 2 {
		t.Fatalf("kills %d lost %d replaced %d replicas %d, want 1 kill, none lost, some replaced, 2 replicas",
			st.Kills, st.Lost, st.Replaced, len(st.Replicas))
	}
	activeFrom := st.Replicas[1].ActiveFrom
	if k := cfg.Kills[0]; activeFrom != k.At+k.RestartAfter {
		t.Fatalf("restart active from %g, want %g", activeFrom, k.At+k.RestartAfter)
	}
	recovered := uint64(0)
	for i, ch := range res {
		if len(ch) == 0 {
			continue // shed
		}
		o := <-ch
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if float64(i)*2e-3 < killAt && o.Start >= killAt {
			recovered++
			if o.Start < activeFrom {
				t.Errorf("recovered job %d starts at %g, before the restart's activation at %g", i, o.Start, activeFrom)
			}
		}
	}
	if recovered != st.Replaced {
		t.Errorf("%d recovered jobs served by the restart, router recovered %d", recovered, st.Replaced)
	}
	if st.Fleet.Done != uint64(placed) {
		t.Errorf("fleet served %d of %d placed jobs", st.Fleet.Done, placed)
	}
	for _, rs := range st.Replicas {
		if rs.Done+rs.HandedOff != rs.Placed {
			t.Errorf("replica %d: done %d + handed off %d != placed %d", rs.ID, rs.Done, rs.HandedOff, rs.Placed)
		}
	}
}

// recordPolicy wraps a policy and records, per routing key, every
// candidate it picked.
type recordPolicy struct {
	Policy
	picks map[string][]Candidate
}

func (r *recordPolicy) Pick(cands []Candidate, key string) int {
	idx := r.Policy.Pick(cands, key)
	if idx >= 0 {
		r.picks[key] = append(r.picks[key], cands[idx])
	}
	return idx
}

// TestProjectionEqualsOutcome: the router's view of a placed job is the
// job's served outcome. For every job placed once and not re-placed,
// the outcome's Start, Finish, Degraded and JobResult equal the
// winning candidate's step bit for bit — on an overloaded kill+restart
// stream over three least-pressure replicas, and on a stream with
// injected stalls, some of them past the retry limit, placed by
// predict.
func TestProjectionEqualsOutcome(t *testing.T) {
	kills := testConfig("kills", 3)
	kills.Policy = PolicyPressure{}
	kills.Kills = []Kill{{Replica: 0, At: 60e-3, RestartAfter: 20e-3}, {Replica: 1, At: 120e-3, RestartAfter: -1}}
	stalls := testConfig("stalls", 3)
	stalls.Policy = PolicyPredict{}
	stalls.Shard.Faults = fault.New(5).Site(serve.FaultStall, 0.3)
	stalls.Shard.StallPenalty = 2e-3
	for _, cfg := range []Config{kills, stalls} {
		t.Run(cfg.Shard.Name, func(t *testing.T) {
			rec := &recordPolicy{Policy: cfg.Policy, picks: make(map[string][]Candidate)}
			cfg.Policy = rec
			p, err := NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			const n = 300
			res := make([]chan serve.Outcome, n)
			clock := 0.0
			for i := range res {
				clock += rng.Float64() * 4e-3
				tr := synthTrace(1 + 18*rng.Float64()) // some longer than the deadline
				res[i] = make(chan serve.Outcome, 1)
				if err := p.Submit(Job{Arrival: clock, Trace: &tr, Result: res[i]}); err != nil && err != ErrShed {
					t.Fatal(err)
				}
			}
			p.Close()

			compared, replaced := 0, 0
			for i, ch := range res {
				picks := rec.picks[routeKey{seq: uint64(i), bySeq: true}.String()]
				if len(picks) != 1 || picks[0].Doomed {
					replaced += min(len(picks), 1)
					continue
				}
				o := <-ch
				c := picks[0]
				if o.Err != nil || o.Degraded != c.Degraded() || o.Job.Level != c.Result.Level ||
					o.Job.Missed != c.Result.Missed || o.Job.Switched != c.Result.Switched ||
					!sameBits(o.Start, c.Start) || !sameBits(o.Finish, c.Finish) ||
					!sameBits(o.Job.Energy, c.Result.Energy) || !sameBits(o.Job.TotalSeconds, c.Result.TotalSeconds) ||
					!sameBits(o.Job.PredT0, c.Result.PredT0) {
					t.Fatalf("job %d: outcome %+v, projection on replica %d %+v", i, o, c.ID, c.Step)
				}
				compared++
			}
			st := p.Stats()
			if compared == 0 || (cfg.Kills != nil && replaced == 0) || st.Fleet.Degraded == 0 || st.Fleet.Misses == 0 {
				t.Fatalf("compared %d jobs, %d re-placed, %d degraded, %d missed: the stream must exercise each",
					compared, replaced, st.Fleet.Degraded, st.Fleet.Misses)
			}
			t.Logf("%d outcomes equal their projections; %d jobs re-placed", compared, replaced)
		})
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
