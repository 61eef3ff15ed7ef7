package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Replica is one accelerator replica's serving state and the paper's
// §3.6 per-job rule as a transition over it. Plan works out, without
// touching the state, what the replica does with its next job: the job
// waits for the clock, its budget shrinks by that wait and by its
// stall delay, and it runs at the level the prediction allows or
// degrades to nominal. Apply commits that step. A Shard's worker
// serves each job with Plan then Apply; the cluster router plans a job
// on every candidate's twin Replica and applies the winner's step, so
// the router's view of a replica and the replica's own accounting are
// one computation.
type Replica struct {
	// The ShardConfig values the transition reads, DegradeWait resolved.
	name                                      string
	deadline, switchTime, degradeWait, killAt float64
	// stepper is the governor: device level, charged switches and the
	// controller's state.
	stepper *sim.Stepper
	// clock is the virtual time the replica's applied jobs drain; it
	// never goes back before from, the time the replica came up.
	clock, from float64
	// faultDebt is the share of the backlog caused by injected stall
	// delays, used to attribute cascaded queue-wait misses to the fault
	// schedule. It resets when the queue drains (a job waits 0) and is
	// capped by the actual backlog after every job.
	faultDebt float64
}

// NewReplica builds a replica of cfg that comes up at virtual time
// from: its clock starts there, so no job starts before it.
func NewReplica(cfg ShardConfig, from float64) (*Replica, error) {
	if cfg.KillAt < 0 {
		return nil, fmt.Errorf("serve: %s: negative kill horizon", cfg.Name)
	}
	if cfg.DegradeWait == 0 {
		cfg.DegradeWait = DefaultDegradeFrac * cfg.Deadline
	}
	stepper, err := cfg.Profile.Stepper()
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", cfg.Name, err)
	}
	return &Replica{name: cfg.Name, deadline: cfg.Deadline, switchTime: cfg.Device.SwitchTime,
		degradeWait: cfg.DegradeWait, killAt: cfg.KillAt, stepper: stepper, clock: from, from: from}, nil
}

// KillAt returns the replica's crash horizon (0: immortal).
func (r *Replica) KillAt() float64 { return r.killAt }

// Trigger names why a job takes the degraded max-frequency path. A job
// may trip several conditions; Plan reports the first in this order.
type Trigger uint8

const (
	NotDegraded   Trigger = iota
	TriggerBudget         // the deadline left after queue wait cannot pay for a DVFS switch
	TriggerWait           // the queue wait reached ShardConfig.DegradeWait
	TriggerStall          // the router's prediction attempts ran out of retries
)

// Miss says who owns a missed deadline, checked in this order.
type Miss uint8

const (
	NoMiss Miss = iota
	// MissFault: without the injected stall delays — the job's own and
	// the fault debt riding in its queue wait — it would have met it.
	MissFault
	// MissServing: its own time fit a full deadline; queue wait made it late.
	MissServing
	// MissIntrinsic: the job would miss even a fresh deadline.
	MissIntrinsic
)

// Step is what a Replica does with one job: Plan's result, Apply's
// argument.
type Step struct {
	// Start is the virtual service start, the later of the replica's
	// clock and the job's arrival; Wait = Start − arrival.
	Start, Wait float64
	// Budget is the deadline left at Start less the job's stall delay:
	// the budget the governor sees.
	Budget float64
	// Finish = Start + stall delay + Result.TotalSeconds.
	Finish  float64
	Trigger Trigger
	// Result is the governor's outcome (level, energy, miss, total
	// time); Charged reports that it charges a DVFS transition.
	Result  sim.JobResult
	Charged bool
	// Doomed reports that Start is at or past the crash horizon: the
	// replica dies first, so the job is handed back unserved and its
	// step is never applied.
	Doomed bool
	Miss   Miss

	tr                *core.JobTrace
	arrival, injected float64
}

// Degraded reports whether the job takes the max-frequency bypass.
func (s *Step) Degraded() bool { return s.Trigger != NotDegraded }

// Plan works out what the replica does with j if j is its next job,
// without changing the replica, and writes that step to s (a caller's
// buffer: the router plans straight into its candidate views). It
// fails only for a job without a trace, whose step still carries
// Start, Wait, Finish (= Start) and Doomed.
func (r *Replica) Plan(j *Job, s *Step) error {
	*s = Step{Start: max(r.clock, j.Arrival), tr: j.Trace, arrival: j.Arrival, injected: j.Stall.Injected}
	s.Wait = s.Start - j.Arrival
	s.Doomed = r.killAt > 0 && s.Start >= r.killAt
	if j.Trace == nil {
		s.Finish = s.Start
		return fmt.Errorf("serve: %s: job without trace", r.name)
	}
	// When the job has burned too much of its life in the queue, or its
	// prediction attempts stalled past their retries, prediction has
	// fallen behind: stop paying for it and run flat out.
	budget := r.deadline - s.Wait
	switch {
	case budget <= r.switchTime:
		s.Trigger = TriggerBudget
	case r.degradeWait > 0 && s.Wait >= r.degradeWait:
		s.Trigger = TriggerWait
	case j.Stall.Exhausted:
		s.Trigger = TriggerStall
	}
	// Stall delays come out of the budget like queue wait.
	delay := j.Stall.Delay()
	s.Budget = budget - delay
	s.Result, s.Charged = r.stepper.Evaluate(j.Trace, s.Budget, s.Degraded())
	s.Finish = s.Start + delay + s.Result.TotalSeconds
	if s.Result.Missed {
		clean := s.Result.TotalSeconds + j.Stall.Genuine + (s.Wait - min(r.faultDebt, s.Wait))
		switch {
		case clean <= r.deadline*(1+1e-12):
			s.Miss = MissFault
		case s.Result.TotalSeconds <= r.deadline*(1+1e-12):
			s.Miss = MissServing
		default:
			s.Miss = MissIntrinsic
		}
	}
	return nil
}

// Apply commits s, the step Plan returned for the replica's current
// state. The governor takes the job (level, charged switch, controller
// observation) and the clock moves to the job's finish — or back to
// its absolute deadline when it overran it: the job is already lost,
// and a 60 fps pipeline skips the vsync rather than shift the whole
// schedule (frame-drop resync), though not to before the replica came
// up. The fault debt then carries the job's injected delay, never more
// than the backlog that remains.
func (r *Replica) Apply(s *Step) {
	r.stepper.Commit(s.tr, s.Result, s.Charged)
	r.clock = s.Finish
	if s.Result.Missed && r.clock > s.arrival+r.deadline {
		r.clock = max(s.arrival+r.deadline, r.from)
	}
	if s.Wait == 0 {
		r.faultDebt = 0 // the backlog drained before this job arrived
	}
	r.faultDebt = max(min(r.faultDebt+s.injected, r.clock-s.arrival), 0)
}

// FitsFresh reports whether j would meet its deadline on this replica
// from an empty queue: a full budget, degraded only by an exhausted
// stall ladder.
func (r *Replica) FitsFresh(j *Job) bool {
	jr, _ := r.stepper.Evaluate(j.Trace, r.deadline, j.Stall.Exhausted)
	return !jr.Missed
}
