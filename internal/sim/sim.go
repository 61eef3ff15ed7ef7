// Package sim is the system-level simulator: it replays per-job traces
// (collected once from RTL simulation, see core.CollectTraces) under a
// DVFS controller, a device profile, and an energy model, producing the
// per-scheme energy and deadline-miss statistics of the paper's
// evaluation (§4.3–§4.4).
//
// Replaying is exact, not an approximation: cycle counts are
// frequency-independent in the paper's compute-bound model (T = C/f,
// Tmemory ≈ 0), so execution time at any level and all energies are
// closed-form functions of the recorded cycle counts.
package sim

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/power"
)

// Config describes one evaluation run.
type Config struct {
	// Device is the DVFS profile (ASIC or FPGA).
	Device *dvfs.Device
	// Power models the accelerator; SlicePower models the predictor
	// slice (its own small power domain).
	Power      power.Model
	SlicePower power.Model
	// Deadline is the per-job response-time requirement in seconds.
	Deadline float64
	// Controller decides per-job plans.
	Controller control.Controller
	// NoOverheads removes slice and switching time and energy — the
	// "prediction w/o overhead" scheme of Figure 13.
	NoOverheads bool
}

// JobResult is the outcome of one job.
type JobResult struct {
	// Level is the chosen operating-point index.
	Level int
	// Missed reports a deadline violation.
	Missed bool
	// Energy in joules, including slice and transition energy.
	Energy float64
	// TotalSeconds is slice + switch + execution time.
	TotalSeconds float64
	// Switched reports a DVFS transition before this job.
	Switched bool
	// PredT0 echoes the controller's estimate (diagnostics).
	PredT0 float64
}

// Result aggregates a run.
type Result struct {
	// Scheme is the controller name.
	Scheme string
	// Energy is total joules over all jobs.
	Energy float64
	// Misses counts deadline violations; Jobs the total job count.
	Misses int
	Jobs   int
	// Switches counts DVFS transitions.
	Switches int
	// PerJob holds per-job outcomes in order.
	PerJob []JobResult
}

// MissRate returns the fraction of jobs that missed their deadline.
func (r Result) MissRate() float64 {
	if r.Jobs == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Jobs)
}

// Stepper evaluates jobs one at a time, carrying the controller state
// and the device's current operating level between jobs. Run drives it
// over a whole trace slice; the online serving layer (package serve)
// drives it job-by-job as work arrives, passing each job's remaining
// budget (the deadline minus any time already burned in a queue).
// Because both paths share this accounting, a served job stream at
// nominal load reconciles exactly with the offline replay.
type Stepper struct {
	cfg      Config
	curLevel int
	switches int
	// levels holds cfg.Power's energy factors per operating point and
	// slice the slice domain's at the nominal point, computed once so
	// that evaluating a job never calls math.Exp.
	levels []power.Factors
	slice  power.Factors
}

// NewStepper validates the configuration and returns a stepper with the
// controller reset and the device at its nominal level.
func NewStepper(cfg Config) (*Stepper, error) {
	if cfg.Device == nil || cfg.Controller == nil {
		return nil, fmt.Errorf("sim: device and controller are required")
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if cfg.Deadline <= 0 {
		return nil, fmt.Errorf("sim: non-positive deadline")
	}
	cfg.Controller.Reset()
	st := &Stepper{cfg: cfg, curLevel: cfg.Device.Nominal,
		levels: make([]power.Factors, len(cfg.Device.Points)),
		slice:  cfg.SlicePower.Factors(cfg.Device.Points[cfg.Device.Nominal])}
	for i, pt := range cfg.Device.Points {
		st.levels[i] = cfg.Power.Factors(pt)
	}
	return st, nil
}

// Scheme returns the controller's scheme name.
func (st *Stepper) Scheme() string { return st.cfg.Controller.Name() }

// Level returns the device's current operating-point index.
func (st *Stepper) Level() int { return st.curLevel }

// Switches returns the number of charged DVFS transitions so far.
func (st *Stepper) Switches() int { return st.switches }

// Step executes one job whose remaining time budget is budget seconds
// (cfg.Deadline for a job starting fresh). The job is charged slice,
// switching, and execution time/energy per §3.6 and marked missed when
// the total exceeds the budget.
func (st *Stepper) Step(tr core.JobTrace, budget float64) JobResult {
	return st.StepTrace(&tr, budget, false)
}

// StepTrace is Step on a trace passed by reference (tr is only read).
// With degraded set, prediction is bypassed: the device runs the job at
// the nominal (maximum non-boost) level, charging no slice time or
// energy. This is the serving layer's graceful degradation path for
// when prediction falls behind.
func (st *Stepper) StepTrace(tr *core.JobTrace, budget float64, degraded bool) JobResult {
	jr, chargedSwitch := st.Evaluate(tr, budget, degraded)
	st.Commit(tr, jr, chargedSwitch)
	return jr
}

// Project evaluates one job without committing it: the JobResult that
// StepTrace(&tr, budget, degraded) would return, with the device level,
// switch count, and controller state all left untouched. Exact for
// controllers whose Plan method is pure — every built-in controller
// qualifies (the reactive ones mutate only in Observe). A serving
// replica plans each job with Evaluate, its by-reference form
// (serve.Replica.Plan).
func (st *Stepper) Project(tr core.JobTrace, budget float64, degraded bool) JobResult {
	jr, _ := st.Evaluate(&tr, budget, degraded)
	return jr
}

// Commit applies an evaluation of tr that Evaluate returned against the
// stepper's current state: the device moves to the chosen level, a
// charged transition increments the switch count, and the controller
// observes the job's actual time. A serving replica commits the step
// it planned (serve.Replica.Apply) instead of stepping the job again,
// so the cluster router can plan a job on every candidate and apply
// only the winner's step.
func (st *Stepper) Commit(tr *core.JobTrace, jr JobResult, chargedSwitch bool) {
	st.curLevel = jr.Level
	if chargedSwitch {
		st.switches++
	}
	st.cfg.Controller.Observe(tr.Seconds)
}

// Evaluate is the pure core of Step and Project: plan, level
// selection, and the time/energy/miss accounting, with no state
// mutation, on a trace passed by reference (tr is only read). It also
// reports whether the job's DVFS transition is charged, which Commit
// needs to apply the evaluation later: Evaluate and then Commit with
// the same trace is exactly StepTrace.
func (st *Stepper) Evaluate(tr *core.JobTrace, budget float64, degraded bool) (JobResult, bool) {
	cfg := &st.cfg
	ctrl := cfg.Controller
	view := control.JobView{
		Class:         tr.Class,
		PredSeconds:   tr.PredSeconds,
		SliceSeconds:  tr.SliceSeconds,
		ActualSeconds: tr.Seconds,
	}
	plan := ctrl.Plan(view)
	if degraded {
		// Bypass prediction entirely but still pay for the transition to
		// the nominal level if one happens: degradation trades energy for
		// safety, it does not get free voltage switches.
		plan = control.Plan{RunNominal: true, ChargeSwitch: true}
	}
	if cfg.NoOverheads {
		plan.SliceTime = 0
		plan.ChargeSwitch = false
	}

	// Clamp the controller's estimate before it reaches level selection:
	// a NaN prediction is an unbounded demand (run at the highest level
	// and let the miss accounting see it), a negative one is an instant
	// job. Without this a poisoned model row could silently drive the
	// device to its lowest level on a deadline-critical job.
	if math.IsNaN(plan.PredT0) {
		plan.PredT0 = math.Inf(1)
	} else if plan.PredT0 < 0 {
		plan.PredT0 = 0
	}

	var level int
	if plan.RunNominal {
		level = cfg.Device.Nominal
	} else {
		req := dvfs.Request{
			PredictedT0: plan.PredT0,
			Margin:      plan.MarginFrac * plan.PredT0,
			Budget:      budget,
			SliceTime:   plan.SliceTime,
			AllowBoost:  plan.AllowBoost,
		}
		if plan.ChargeSwitch {
			req.SwitchTime = cfg.Device.SwitchTime
		}
		level = cfg.Device.Select(req).Level
	}

	switched := level != st.curLevel
	lv := &st.levels[level]

	tExec := tr.Cycles / lv.Freq
	total := tExec + plan.SliceTime
	energy := lv.Energy(tr.Cycles)
	if plan.SliceTime > 0 {
		energy += st.slice.Energy(float64(tr.SliceTicks) * (tr.Cycles / float64(tr.Ticks)))
	}
	chargedSwitch := switched && plan.ChargeSwitch
	if chargedSwitch {
		total += cfg.Device.SwitchTime
		energy += cfg.Power.TransitionEnergy(1)
	}

	return JobResult{
		Level:        level,
		Missed:       total > budget*(1+1e-12),
		Energy:       energy,
		TotalSeconds: total,
		Switched:     switched,
		PredT0:       plan.PredT0,
	}, chargedSwitch
}

// Run replays the traces under the configuration.
func Run(traces []core.JobTrace, cfg Config) (Result, error) {
	st, err := NewStepper(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{Scheme: st.Scheme(), Jobs: len(traces)}
	res.PerJob = make([]JobResult, 0, len(traces))
	for i := range traces {
		jr := st.StepTrace(&traces[i], cfg.Deadline, false)
		res.Energy += jr.Energy
		if jr.Missed {
			res.Misses++
		}
		res.PerJob = append(res.PerJob, jr)
	}
	res.Switches = st.Switches()
	return res, nil
}

// Normalized returns r.Energy / base.Energy as a percentage, the
// "normalized energy" of Figures 11–16.
func Normalized(r, base Result) float64 {
	if base.Energy == 0 {
		return 0
	}
	return 100 * r.Energy / base.Energy
}
