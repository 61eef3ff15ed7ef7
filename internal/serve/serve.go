// Package serve is the replica engine of the paper's §3.6 loop: a
// replica replays router-predicted jobs on one accelerator, applying
// the frequency-selection formula with Tslice/TDVFS accounting (through
// sim.Stepper, the exact accounting the offline experiments replay)
// and tracking each job's deadline against its own arrival time.
// Prediction itself happens once, at the cluster router (package
// cluster), which hands every replica a JobTrace carrying both the
// slice-driven prediction and the actual cycle count.
//
// The per-job rule is written once, as Replica's transition: Plan
// works out a job's Step and Apply commits it. Time is virtual: a
// replica's clock advances by each job's slice + switch + execution
// time, so a job that arrives while its predecessor is still executing
// burns queue wait out of its own budget — the deadline-aware part
// reactive offline replay cannot express. When a job's queue wait
// crosses the degradation threshold or its remaining budget is too
// small to pay for prediction, the job degrades gracefully: it ignores
// the prediction and runs at the nominal (maximum non-boost)
// frequency, trading energy for safety.
//
// The router's prediction attempts may stall (a wedged simulator, or
// an injected stall at the FaultStall site). Each job arrives with its
// Stall record; the replica charges the record's delay against the
// job's budget, serves a job whose retries ran out on the degraded
// path, and attributes the misses those delays cause to FaultMisses.
// A Shard runs one Replica behind a queue and a worker goroutine and
// makes every transition observable in Stats and /metrics.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/online"
	"repro/internal/sim"
)

// FaultStall is the fault-injection site for stalled prediction
// attempts: a hit makes the router's attempt time out (charging
// StallPenalty) without touching the simulator, so injected schedules
// stay deterministic. Keys are "<pool>/<sequence>"; retries draw at the
// site's repeat-scaled rate.
const FaultStall = "serve.stall"

// ShardConfig configures one accelerator: the shared accelerator
// Profile, the shard-local queueing knobs, and the prediction-attempt
// knobs the cluster router applies before it hands a job to a shard.
type ShardConfig struct {
	// Name labels the shard (benchmark name, or "bench/i" for a cluster
	// replica).
	Name string
	// Profile is the accelerator-side configuration (predictor, device,
	// energy models, deadline contract), shared verbatim by every
	// replica of a cluster pool and by the router's projections.
	Profile
	// QueueDepth bounds the shard's physical queue; SubmitWait blocks
	// while it is full. 0 selects DefaultQueueDepth.
	QueueDepth int
	// DegradeWait is the virtual-time queue wait at or above which a
	// job takes the degraded max-frequency path: once jobs sit this
	// long behind the accelerator, prediction has fallen behind and
	// stops paying for itself. 0 selects DefaultDegradeFrac of the
	// deadline; negative disables wait-based degradation. A job whose
	// remaining budget cannot even cover a DVFS transition always
	// degrades, regardless of this setting.
	DegradeWait float64

	// The knobs below drive the router's prediction-attempt ladder and
	// online trainer (see cluster.Pool); a shard never reads them.

	// JobTimeout bounds one prediction attempt in wall-clock time; an
	// attempt that exceeds it counts as stalled, abandons its simulator
	// (the router rebuilds a fresh clone), and is retried or degraded.
	// 0 disables the watchdog.
	JobTimeout time.Duration
	// MaxRetries is how many times a stalled attempt is retried before
	// the job falls back to the degraded path. Negative is treated as 0.
	MaxRetries int
	// RetryBackoff is the wall-clock sleep before the first retry,
	// doubling per attempt. 0 retries immediately.
	RetryBackoff time.Duration
	// StallPenalty is the virtual time, in seconds, each stalled attempt
	// burns from the job's budget. 0 selects JobTimeout (the time the
	// watchdog actually waited).
	StallPenalty float64
	// Faults optionally injects stalls at the FaultStall site on a
	// deterministic seeded schedule; nil injects nothing.
	Faults *fault.Injector
	// Online enables the pool's online trainer: completed predicted jobs
	// feed a drift monitor that can refit the model in the background
	// and hot-swap β behind a canary phase (see package online), once
	// for every replica. nil disables. Requires a predictor.
	Online *online.Config

	// KillAt, when positive, is a virtual-time crash horizon: any
	// queued job whose service would start at or after KillAt is handed
	// back (see Handoff) instead of served — the job boundary is where
	// the crash lands, so a job already started completes. Because the
	// decision is a pure function of the virtual clock, a seeded chaos
	// schedule of replica kills replays bit-identically regardless of
	// wall-clock worker progress. 0 disables (the shard is immortal).
	KillAt float64
}

// Defaults for ShardConfig's zero values.
const (
	DefaultQueueDepth = 64
	// DefaultDegradeFrac scales the deadline into DegradeWait.
	DefaultDegradeFrac = 0.5
)

// Stall is the record of a job's stalled prediction attempts, made by
// the router and charged by the replica.
type Stall struct {
	// Count is the number of attempts that timed out.
	Count int
	// Injected and Genuine split the virtual time those stalls burned,
	// in seconds, between the fault schedule and real watchdog firings.
	Injected, Genuine float64
	// Exhausted reports that retries ran out: the job was finally
	// simulated without its prediction and must be served degraded.
	Exhausted bool
}

// Delay is the total virtual time the stalls burned from the job's
// budget.
func (s Stall) Delay() float64 { return s.Injected + s.Genuine }

// Retries is the number of retry attempts the stalls provoked: every
// stall but the last one of an exhausted ladder.
func (s Stall) Retries() int {
	if s.Exhausted {
		return s.Count - 1
	}
	return s.Count
}

// Job is one unit of routed work.
type Job struct {
	// Arrival is the job's timestamp on the shard's virtual clock, in
	// seconds. Submissions must be in nondecreasing arrival order.
	Arrival float64
	// Trace is the simulated job: the router's prediction plus the
	// actual cycle count. A job without one fails with an error.
	Trace *core.JobTrace
	// Stall records the router's stalled prediction attempts.
	Stall Stall
	// Result, when non-nil, receives the job's outcome. The channel
	// should be buffered; the shard sends exactly one value and never
	// blocks on an unbuffered channel mid-stream.
	Result chan<- Outcome
}

// Outcome is the served job's fate.
type Outcome struct {
	// Job carries the level, energy and timing accounting.
	Job sim.JobResult
	// Wait is the queue delay charged against the budget, seconds.
	Wait float64
	// Start and Finish are virtual timestamps.
	Start, Finish float64
	// Degraded marks jobs that took the max-frequency bypass.
	Degraded bool
	// Stalls counts prediction attempts that timed out (injected or
	// genuine) while serving this job.
	Stalls int
	// StallDelay is the virtual time those stalls burned from the job's
	// budget, in seconds.
	StallDelay float64
	// Err reports a failure (the job did not execute).
	Err error
}

// Missed reports whether the job finished after its arrival-relative
// deadline.
func (o Outcome) Missed() bool { return o.Job.Missed }

// Stats is a point-in-time snapshot of one shard's counters.
type Stats struct {
	Name string
	// Done counts completed jobs; Degraded counts jobs served on the
	// bypass path; Errors counts jobs that failed without executing.
	Done, Degraded, Errors uint64
	// DegradedWait, DegradedBudget and DegradedStall break Degraded down
	// by the step's Trigger.
	DegradedWait, DegradedBudget, DegradedStall uint64
	// Stalled counts prediction attempts that timed out; Retries counts
	// the retry attempts they provoked.
	Stalled, Retries uint64
	// Misses counts arrival-relative deadline violations; ServingMisses
	// and FaultMisses count those of class MissServing and MissFault.
	// The chaos soak asserts every serving-layer miss under injection
	// lands in FaultMisses.
	Misses, ServingMisses, FaultMisses uint64
	// Switches counts charged DVFS transitions.
	Switches uint64
	// HandedOff counts queued jobs the worker handed back to the caller
	// instead of serving: jobs past the KillAt crash horizon, plus jobs
	// yanked by CloseHandoff. Retrieve them with Handoff.
	HandedOff uint64
	// BoundClamps counts predictions the predictor pulled into its
	// static cycle bounds (see core.Predictor.PredFromSliceOrFloor).
	// Always 0 on replay-only shards, which have no predictor.
	BoundClamps uint64
	// ModelVersion is the predictor's live model version: 0 for the
	// offline-trained β, incremented per promoted online refit. Cluster
	// replicas share one predictor, so every replica reports the pool's
	// version.
	ModelVersion uint64
	// Energy is total joules across completed jobs.
	Energy float64
	// QueueDepth is the instantaneous backlog: jobs queued or
	// executing. 0 means the shard is fully drained.
	QueueDepth int64
	// Clock is the shard's virtual time after the last completed job.
	Clock float64
	// WaitP50, WaitP99, LatencyP50, LatencyP99 are queue-wait and
	// total-latency (wait + service) quantiles in seconds.
	WaitP50, WaitP99, LatencyP50, LatencyP99 float64
	// LatencyMean is the mean total latency in seconds.
	LatencyMean float64
}

// MissRate returns Misses / Done, or 0 before any job completes.
func (s Stats) MissRate() float64 {
	if s.Done == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Done)
}

// Shard serves one accelerator: a bounded queue feeding a single
// worker goroutine that owns the shard's Replica.
type Shard struct {
	cfg       ShardConfig
	queue     chan Job
	wg        sync.WaitGroup
	closeOnce sync.Once

	// handoffNow makes the worker hand back (rather than serve) every
	// job it dequeues from the moment the flag is set — the
	// CloseHandoff fast-drain path. handoff is worker-private while the
	// worker runs; reading it is safe once Close has returned.
	handoffNow atomic.Bool
	handoff    []Job

	// rep is the worker's replica state (worker-private, no locks).
	rep *Replica

	// Shared counters (atomic; see metrics.go). byTrigger and byMiss
	// count degraded and missed jobs by their step's Trigger and Miss.
	done, errs, handedOff counter
	byTrigger             [TriggerStall + 1]counter
	byMiss                [MissIntrinsic + 1]counter
	stalled, retries      counter
	switches              counter
	energy, clock         afloat
	depth                 gauge
	waitHist, latHist     Histogram
}

// NewShard validates the configuration and starts the shard's worker.
// The shard comes up at virtual time from (see NewReplica).
func NewShard(cfg ShardConfig, from float64) (*Shard, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: shard has no name")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: %s: queue depth %d", cfg.Name, cfg.QueueDepth)
	}
	// The trainer runs at the pool router, but wiring one to a
	// replay-only profile is a configuration error wherever the config
	// is used: there are no slice features to learn from.
	if cfg.Online != nil && cfg.Pred == nil {
		return nil, fmt.Errorf("serve: %s: online learning needs a predictor", cfg.Name)
	}
	rep, err := NewReplica(cfg, from)
	if err != nil {
		return nil, err
	}
	s := &Shard{cfg: cfg, queue: make(chan Job, cfg.QueueDepth), rep: rep}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// Name returns the shard's label.
func (s *Shard) Name() string { return s.cfg.Name }

// SubmitWait enqueues a job, blocking while the queue is full. The
// caller — the cluster router — is the admission authority: it admits
// or sheds against its own virtual-time replica model, so the shard's
// physical queue is pure backpressure. The caller must not call
// SubmitWait concurrently with (or after) Close.
func (s *Shard) SubmitWait(j Job) {
	// Count the job before the send: once it is in the channel the
	// worker may finish it and decrement at any moment.
	s.depth.Add(1)
	s.queue <- j
}

// Close stops accepting work and waits for the queue to drain.
// Idempotent: a second Close (or a Close after CloseHandoff) just
// waits for the worker.
func (s *Shard) Close() {
	s.closeOnce.Do(func() { close(s.queue) })
	s.wg.Wait()
}

// CloseHandoff is drain-with-handoff: it stops the shard like Close,
// but instead of grinding through the backlog the worker hands back
// every job it has not yet started, and CloseHandoff returns them so
// the caller can re-place the work elsewhere. At most one job — the
// one the worker had already dequeued when the flag landed — is still
// served. This is the fast-retire path: an autoscaler or operator
// draining a replica moves its admitted-but-unstarted jobs instead of
// silently dropping them or waiting out the queue.
func (s *Shard) CloseHandoff() []Job {
	s.handoffNow.Store(true)
	s.Close()
	return s.handoff
}

// Handoff returns the jobs the worker handed back instead of serving —
// jobs past the KillAt crash horizon plus jobs yanked by CloseHandoff,
// in queue order. Only valid after Close or CloseHandoff has returned.
func (s *Shard) Handoff() []Job { return s.handoff }

// run is the shard worker: one goroutine consuming the queue in
// arrival order, serving each job with its replica's Plan and Apply.
func (s *Shard) run() {
	defer s.wg.Done()
	var step Step
	for j := range s.queue {
		err := s.rep.Plan(&j, &step)
		// Crash horizon / fast drain: a job whose service would start at
		// or after KillAt died with the replica, and once CloseHandoff
		// has fired every remaining job is handed back. Handed-back jobs
		// get no Outcome from this shard — the caller re-places them.
		if step.Doomed || s.handoffNow.Load() {
			s.handoff = append(s.handoff, j)
			s.handedOff.Inc()
			s.depth.Add(-1)
			continue
		}
		out := s.serve(&j, &step, err)
		// The depth gauge counts queued AND executing jobs, so it only
		// drops after the job completes — "depth 0" means fully drained.
		s.depth.Add(-1)
		if j.Result != nil {
			j.Result <- out
		}
	}
}

// serve applies one planned job on the worker goroutine and feeds the
// shard's counters from its step.
func (s *Shard) serve(j *Job, step *Step, err error) Outcome {
	if err != nil {
		s.errs.Inc()
		s.done.Inc()
		return Outcome{Wait: step.Wait, Start: step.Start, Finish: step.Finish, Err: err}
	}
	s.rep.Apply(step)
	s.clock.Store(s.rep.clock)
	if step.Degraded() {
		s.byTrigger[step.Trigger].Inc()
	}
	if step.Result.Missed {
		s.byMiss[step.Miss].Inc()
	}
	s.stalled.Add(uint64(j.Stall.Count))
	s.retries.Add(uint64(j.Stall.Retries()))
	s.done.Inc()
	s.energy.Add(step.Result.Energy)
	if step.Charged {
		s.switches.Inc()
	}
	stallDelay := j.Stall.Delay()
	s.waitHist.Observe(step.Wait)
	s.latHist.Observe(step.Wait + stallDelay + step.Result.TotalSeconds)
	return Outcome{
		Job:        step.Result,
		Wait:       step.Wait,
		Start:      step.Start,
		Finish:     step.Finish,
		Degraded:   step.Degraded(),
		Stalls:     j.Stall.Count,
		StallDelay: stallDelay,
	}
}

// Stats snapshots the shard's counters. Safe to call concurrently with
// serving.
func (s *Shard) Stats() Stats {
	var clamps, version uint64
	if s.cfg.Pred != nil {
		clamps = s.cfg.Pred.BoundClamps()
		version = s.cfg.Pred.ModelVersion()
	}
	st := Stats{
		Name:           s.cfg.Name,
		Done:           s.done.Value(),
		Errors:         s.errs.Value(),
		DegradedWait:   s.byTrigger[TriggerWait].Value(),
		DegradedBudget: s.byTrigger[TriggerBudget].Value(),
		DegradedStall:  s.byTrigger[TriggerStall].Value(),
		Stalled:        s.stalled.Value(),
		Retries:        s.retries.Value(),
		HandedOff:      s.handedOff.Value(),
		ServingMisses:  s.byMiss[MissServing].Value(),
		FaultMisses:    s.byMiss[MissFault].Value(),
		Switches:       s.switches.Value(),
		BoundClamps:    clamps,
		ModelVersion:   version,
		Energy:         s.energy.Value(),
		QueueDepth:     s.depth.Value(),
		Clock:          s.clock.Value(),
		WaitP50:        s.waitHist.Quantile(0.50),
		WaitP99:        s.waitHist.Quantile(0.99),
		LatencyP50:     s.latHist.Quantile(0.50),
		LatencyP99:     s.latHist.Quantile(0.99),
		LatencyMean:    s.latHist.Mean(),
	}
	st.Degraded = st.DegradedWait + st.DegradedBudget + st.DegradedStall
	st.Misses = st.FaultMisses + st.ServingMisses + s.byMiss[MissIntrinsic].Value()
	return st
}
