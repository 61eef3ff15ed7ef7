package serve

import (
	"math"
	"testing"
)

// TestReplicaPlanApply is the table test of the replica transition.
// Each case sets the replica's clock and fault debt, plans one job,
// checks the step, applies it, and checks the state it leaves. The
// deadline is 16.7 ms, the default wait threshold half of it, and a
// DVFS switch 100 µs.
func TestReplicaPlanApply(t *testing.T) {
	const ms = 1e-3
	cases := []struct {
		name string
		// killAt and degradeWait configure the replica; clock and debt
		// are its state before the job.
		killAt, degradeWait float64
		clock, debt         float64
		// The job: arrival, execution time and stall record; noTrace
		// drops its trace.
		arrival, run float64
		stall        Stall
		noTrace      bool

		trigger Trigger
		miss    Miss
		doomed  bool
		// The replica comes up at clock. resync: after Apply the clock
		// sits at the job's absolute deadline, or at the replica's
		// start if that is later, rather than at its finish. debt is the
		// fault debt after Apply; debtIsBacklog caps it at the backlog
		// left instead.
		resync        bool
		wantDebt      float64
		debtIsBacklog bool
	}{
		{name: "on time on the prediction", run: 5 * ms},
		// Budget 0.05 ms cannot pay for a switch; the 16.65 ms wait is
		// also past the wait threshold, but the budget trigger comes
		// first. The job fit a fresh deadline, so its queue wait owns the
		// miss, and its overrun re-anchors the clock to its deadline.
		{name: "budget trigger before wait", clock: 16.65 * ms, run: 1 * ms,
			stall:   Stall{Count: 1, Exhausted: true},
			trigger: TriggerBudget, miss: MissServing, resync: true},
		{name: "wait trigger before stall", clock: 9 * ms, run: 2 * ms,
			stall: Stall{Count: 1, Injected: 0.5 * ms, Exhausted: true}, trigger: TriggerWait,
			wantDebt: 0.5 * ms},
		{name: "wait trigger disabled", degradeWait: -1, clock: 9 * ms, run: 2 * ms},
		{name: "stall trigger", run: 2 * ms, stall: Stall{Count: 1, Injected: 1 * ms, Exhausted: true},
			trigger: TriggerStall, wantDebt: 1 * ms},
		// 10.5 ms of work in the 8.7 ms its injected stalls leave: the
		// fault schedule owns the miss.
		{name: "fault miss from own injected delay", run: 10 * ms, stall: Stall{Count: 4, Injected: 8 * ms},
			miss: MissFault, resync: true, wantDebt: 8 * ms},
		// The same lateness from genuine stalls is the serving layer's.
		{name: "serving miss from genuine delay", run: 10 * ms, stall: Stall{Count: 4, Genuine: 8 * ms},
			miss: MissServing, resync: true},
		// A 6 ms wait that injected delays upstream caused: without it
		// the 12.6 ms job would have met its deadline.
		{name: "fault miss from inherited debt", clock: 6 * ms, debt: 6 * ms, run: 12 * ms,
			miss: MissFault, resync: true, wantDebt: 6 * ms},
		{name: "serving miss from clean wait", clock: 6 * ms, run: 12 * ms, miss: MissServing, resync: true},
		{name: "intrinsic miss resyncs", run: 20 * ms, miss: MissIntrinsic, resync: true},
		// Work recovered onto a restart: its deadline passed before the
		// replica came up, so the resync stops at the replica's start.
		{name: "resync stops at replica start", clock: 35 * ms, arrival: 16 * ms, run: 8 * ms,
			trigger: TriggerBudget, miss: MissServing, resync: true},
		// The replica sat idle when the job arrived: the stale debt goes
		// and only this job's injected delay is carried.
		{name: "debt resets at zero wait", clock: 0, debt: 5 * ms, arrival: 1 * ms, run: 2 * ms,
			stall: Stall{Count: 1, Injected: 1 * ms}, wantDebt: 1 * ms},
		{name: "debt capped at backlog", clock: 10 * ms, debt: 10 * ms, arrival: 9 * ms, run: 1 * ms,
			debtIsBacklog: true},
		// The crash horizon applies to the service start, not the arrival.
		{name: "horizon at service start", killAt: 10 * ms, clock: 12 * ms, arrival: 5 * ms, run: 1 * ms,
			doomed: true},
		{name: "start before horizon", killAt: 10 * ms, clock: 8 * ms, arrival: 5 * ms, run: 1 * ms},
		{name: "idle replica at horizon", killAt: 10 * ms, arrival: 10 * ms, run: 1 * ms, doomed: true},
		{name: "traceless job", killAt: 10 * ms, clock: 3 * ms, arrival: 1 * ms, noTrace: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testShardConfig("plan")
			cfg.KillAt, cfg.DegradeWait = c.killAt, c.degradeWait
			r, err := NewReplica(cfg, c.clock)
			if err != nil {
				t.Fatal(err)
			}
			r.faultDebt = c.debt
			j := Job{Arrival: c.arrival, Stall: c.stall}
			if !c.noTrace {
				j.Trace = &synthTraces([]float64{c.run / ms})[0]
			}

			var s Step
			err = r.Plan(&j, &s)
			start := math.Max(c.clock, c.arrival)
			if s.Start != start || s.Wait != start-c.arrival || s.Doomed != c.doomed {
				t.Fatalf("start %g wait %g doomed %v, want %g, %g, %v", s.Start, s.Wait, s.Doomed, start, start-c.arrival, c.doomed)
			}
			if c.noTrace {
				if err == nil || s.Finish != s.Start {
					t.Fatalf("traceless job: err %v, finish %g, want an error and finish %g", err, s.Finish, s.Start)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var again Step
			r.Plan(&j, &again)
			if again != s {
				t.Fatalf("Plan is not pure: %+v then %+v", s, again)
			}
			if s.Trigger != c.trigger || s.Miss != c.miss {
				t.Fatalf("trigger %d miss %d, want %d, %d", s.Trigger, s.Miss, c.trigger, c.miss)
			}
			if s.Result.Missed != (c.miss != NoMiss) {
				t.Fatalf("missed %v with miss class %d", s.Result.Missed, s.Miss)
			}
			delay := c.stall.Delay()
			if s.Budget != cfg.Deadline-s.Wait-delay || s.Finish != s.Start+delay+s.Result.TotalSeconds {
				t.Fatalf("budget %g finish %g", s.Budget, s.Finish)
			}

			r.Apply(&s)
			clock := s.Finish
			if c.resync {
				clock = math.Max(c.arrival+cfg.Deadline, c.clock)
			}
			if r.clock != clock {
				t.Errorf("clock %g after Apply, want %g", r.clock, clock)
			}
			debt := c.wantDebt
			if c.debtIsBacklog {
				debt = r.clock - c.arrival
			}
			if r.faultDebt != debt {
				t.Errorf("fault debt %g after Apply, want %g", r.faultDebt, debt)
			}
			switches := 0
			if s.Charged {
				switches = 1
			}
			if r.stepper.Level() != s.Result.Level || r.stepper.Switches() != switches {
				t.Errorf("governor at level %d with %d switches, step chose %d (charged %v)",
					r.stepper.Level(), r.stepper.Switches(), s.Result.Level, s.Charged)
			}
		})
	}
}
