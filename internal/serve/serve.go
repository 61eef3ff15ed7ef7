// Package serve is the online runtime of the paper's §3.6 loop: a
// long-running, concurrent prediction-and-governor service. Jobs
// arrive on per-accelerator shards as timestamped streams; each shard
// runs slice prediction on the arriving job, applies the
// frequency-selection formula with Tslice/TDVFS accounting (through
// sim.Stepper, the exact accounting the offline experiments replay),
// enforces admission control with a bounded queue, and tracks per-job
// deadlines against the job's own arrival time.
//
// Time is virtual: a shard owns a clock that advances by each job's
// slice + switch + execution time, so a job that arrives while its
// predecessor is still executing burns queue wait out of its own
// budget — the deadline-aware part reactive offline replay cannot
// express. When a job's queue wait crosses the degradation threshold
// or its remaining budget is too small to pay for prediction, the
// shard degrades gracefully: it skips the slice entirely and runs the
// job at the nominal (maximum non-boost) frequency, trading energy for
// safety.
//
// The shard also hardens against its own machinery failing. A
// prediction attempt that wedges (a stuck simulator, or an injected
// stall from a fault.Injector) is bounded by JobTimeout, retried up to
// MaxRetries times with exponential backoff, and finally served on the
// degraded path; each stalled attempt charges StallPenalty seconds of
// virtual time against the job's budget. Queue overflow follows an
// explicit policy: OverflowShed rejects the excess (counted as shed),
// while OverflowDegrade additionally flips the shard into a degraded
// overload regime — every admitted job bypasses prediction and runs
// flat out until the backlog drains below half the queue depth — so
// the operator chooses between losing jobs and losing energy savings.
// Every one of these transitions is observable in Stats and /metrics.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/online"
	"repro/internal/sim"
)

// FaultStall is the fault-injection site for stalled prediction
// attempts: a hit makes the attempt time out (charging StallPenalty)
// without touching the simulator, so injected schedules stay
// deterministic. Keys are "<shard>/<sequence>"; retries draw at the
// site's repeat-scaled rate.
const FaultStall = "serve.stall"

// OverflowPolicy selects what a shard does when its admission queue is
// full.
type OverflowPolicy int

const (
	// OverflowShed rejects excess jobs outright (counted in Shed); the
	// stream loses jobs but admitted ones keep full prediction quality.
	OverflowShed OverflowPolicy = iota
	// OverflowDegrade also rejects jobs the queue physically cannot hold,
	// but additionally declares the shard overloaded: every admitted job
	// runs the degraded max-frequency path (draining the backlog as fast
	// as the device allows) until the depth falls to half the queue, at
	// which point prediction resumes.
	OverflowDegrade
)

// String renders the policy as its flag spelling.
func (p OverflowPolicy) String() string {
	if p == OverflowDegrade {
		return "degrade"
	}
	return "shed"
}

// ParseOverflowPolicy maps the flag spellings "shed" and "degrade".
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "shed", "":
		return OverflowShed, nil
	case "degrade":
		return OverflowDegrade, nil
	}
	return 0, fmt.Errorf("serve: unknown overflow policy %q (want shed or degrade)", s)
}

// ShardConfig configures one accelerator shard: the shared accelerator
// Profile plus the shard-local queueing and failure-handling knobs.
type ShardConfig struct {
	// Name labels the shard (benchmark name, or "bench/i" for a cluster
	// replica).
	Name string
	// Profile is the accelerator-side configuration (predictor, device,
	// energy models, deadline contract), shared verbatim by every
	// replica of a cluster pool and by the router's projections.
	Profile
	// QueueDepth bounds the shard's queue; Submit rejects when full
	// (admission control / backpressure). 0 selects DefaultQueueDepth.
	QueueDepth int
	// DegradeWait is the virtual-time queue wait at or above which a
	// job takes the degraded max-frequency path: once jobs sit this
	// long behind the accelerator, prediction has fallen behind and
	// stops paying for itself. 0 selects DefaultDegradeFrac of the
	// deadline; negative disables wait-based degradation. A job whose
	// remaining budget cannot even cover a DVFS transition always
	// degrades, regardless of this setting.
	DegradeWait float64
	// Overflow selects the full-queue policy; the zero value is
	// OverflowShed.
	Overflow OverflowPolicy
	// JobTimeout bounds one prediction attempt in wall-clock time; an
	// attempt that exceeds it counts as stalled, abandons its simulator
	// (the worker rebuilds a fresh clone), and is retried or degraded.
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
	// Online enables the per-shard online trainer: completed predicted
	// jobs feed a drift monitor that can refit the model in the
	// background and hot-swap β behind a canary phase (see package
	// online). nil disables. Requires a predictor; replay-only shards
	// reject it. Cluster pools strip it from replica shards and run a
	// single trainer at the router instead, so one promotion serves
	// every replica.
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

// EffectiveDegradeWait resolves the DegradeWait zero-value default
// exactly as NewShard does (DefaultDegradeFrac of the deadline), so
// the cluster router's replica model can mirror the shard's
// degradation trigger without constructing a shard.
func (c ShardConfig) EffectiveDegradeWait() float64 {
	if c.DegradeWait == 0 {
		return DefaultDegradeFrac * c.Deadline
	}
	return c.DegradeWait
}

// Defaults for ShardConfig's zero values.
const (
	DefaultQueueDepth = 64
	// DefaultDegradeFrac scales the deadline into DegradeWait.
	DefaultDegradeFrac = 0.5
)

// Job is one unit of arriving work.
type Job struct {
	// Arrival is the job's timestamp on the shard's virtual clock, in
	// seconds. Submissions must be in nondecreasing arrival order.
	Arrival float64
	// Payload is the accelerator job to simulate online. Ignored when
	// Trace is set.
	Payload accel.Job
	// Trace replays a pre-simulated job instead of simulating Payload —
	// used by replay tests and trace-driven load generators.
	Trace *core.JobTrace
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
	// Err reports a simulation failure (the job did not execute).
	Err error
}

// Missed reports whether the job finished after its arrival-relative
// deadline.
func (o Outcome) Missed() bool { return o.Job.Missed }

// Stats is a point-in-time snapshot of one shard's counters.
type Stats struct {
	Name string
	// Done counts completed jobs; Rejected counts admission-control
	// rejections; Degraded counts jobs served on the bypass path;
	// Errors counts simulation failures.
	Done, Rejected, Degraded, Errors uint64
	// Shed counts jobs dropped at a full queue (every Rejected job is
	// currently an overflow shed; the split exists so future admission
	// rules don't conflate with overflow). Overloads counts transitions
	// into the OverflowDegrade overload regime.
	Shed, Overloads uint64
	// DegradedWait, DegradedBudget, DegradedOverload and DegradedStall
	// break Degraded down by trigger: queue wait over the threshold,
	// budget too small for a DVFS switch, the overload regime, and
	// stall-retry exhaustion. A job may trip several triggers; it is
	// attributed to the first in the order above.
	DegradedWait, DegradedBudget, DegradedOverload, DegradedStall uint64
	// Stalled counts prediction attempts that timed out; Retries counts
	// the retry attempts they provoked.
	Stalled, Retries uint64
	// Misses counts arrival-relative deadline violations. ServingMisses
	// counts the subset attributable to the serving layer itself: jobs
	// whose slice+switch+execution time fit inside a full deadline but
	// whose queue wait made them late. FaultMisses carves out of that
	// the misses attributable to injected stall delays (the job, and
	// the share of its queue wait not inherited from injected delays,
	// would have met the deadline) — the chaos soak asserts every
	// serving-layer miss under injection lands here.
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
	// DriftEvents, Retrains, Promotions and CanaryRejects are the
	// shard-attached online trainer's counters (see online.Stats);
	// all 0 when online learning is disabled.
	DriftEvents, Retrains, Promotions, CanaryRejects uint64
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
// worker goroutine that owns the predictor simulators, the stepper
// (controller + DVFS level state), and the virtual clock.
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

	// Worker-private state (no locks needed).
	stepper      *sim.Stepper
	trainer      *online.Trainer
	js           *core.JobSimulator
	now          float64
	prevSwitches int
	seq          uint64
	// faultDebt is the share of the clock's backlog caused by injected
	// stall delays, used to attribute cascaded queue-wait misses to the
	// fault schedule. It resets when the queue drains (a job waits 0)
	// and is capped by the actual backlog after every job.
	faultDebt float64

	// overloaded is the OverflowDegrade regime flag: set by Submit on
	// overflow, cleared by the worker once the backlog halves.
	overloaded atomic.Bool

	// Shared counters (atomic; see metrics.go).
	done, rejected, degraded, errs counter
	shed, overloads                counter
	degWait, degBudget             counter
	degOverload, degStall          counter
	stalled, retries               counter
	handedOff                      counter
	misses, servingMisses          counter
	faultMisses                    counter
	switches                       counter
	energy                         afloat
	clock                          afloat
	depth                          gauge
	waitHist, latHist              histogram

	// predHist and execHist track wall-clock simulation latency in
	// nanoseconds for the two halves of a served job: predHist the
	// prediction (hardware slice run plus model, JobSimulator.Predict),
	// execHist the full-design run (JobSimulator.Complete, or Execute on
	// the degraded path). Each is labeled with the engine its simulator
	// actually resolved to, so the codegen engine's serving-path win —
	// or a stale native registry — is visible on /metrics. Both are
	// deliberately NOT part of Stats: Stats must stay a deterministic
	// function of the job stream (the chaos suite replays and diffs it),
	// and wall-clock is not.
	predHist, execHist     histogram
	predEngine, execEngine string
}

// NewShard validates the configuration and starts the shard's worker.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: shard has no name")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: %s: queue depth %d", cfg.Name, cfg.QueueDepth)
	}
	if cfg.DegradeWait == 0 {
		cfg.DegradeWait = DefaultDegradeFrac * cfg.Deadline
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.JobTimeout < 0 || cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("serve: %s: negative timeout or backoff", cfg.Name)
	}
	if cfg.StallPenalty <= 0 {
		cfg.StallPenalty = cfg.JobTimeout.Seconds()
	}
	if cfg.KillAt < 0 {
		return nil, fmt.Errorf("serve: %s: negative kill horizon", cfg.Name)
	}
	stepper, err := cfg.Profile.Stepper()
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", cfg.Name, err)
	}
	s := &Shard{cfg: cfg, queue: make(chan Job, cfg.QueueDepth), stepper: stepper}
	s.predHist.buckets = nsBuckets
	s.execHist.buckets = nsBuckets
	if js := cfg.Profile.NewJobSimulator(); js != nil {
		s.js = js
		sl, full := js.Engines()
		s.predEngine, s.execEngine = string(sl), string(full)
	}
	if cfg.Online != nil {
		if cfg.Pred == nil {
			return nil, fmt.Errorf("serve: %s: online learning needs a predictor", cfg.Name)
		}
		trainer, err := online.NewTrainer(cfg.Pred, cfg.Profile.Stepper, cfg.Deadline, *cfg.Online)
		if err != nil {
			return nil, fmt.Errorf("serve: %s: %w", cfg.Name, err)
		}
		s.trainer = trainer
	}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// Name returns the shard's label.
func (s *Shard) Name() string { return s.cfg.Name }

// ErrQueueFull is returned by Submit when admission control rejects a
// job; callers shed load or retry later (backpressure).
var ErrQueueFull = fmt.Errorf("serve: queue full")

// Submit enqueues a job without blocking. A full queue rejects the job
// with ErrQueueFull and counts it as shed; the job never executes.
// Under OverflowDegrade the overflow additionally pushes the shard
// into the overloaded regime (admitted jobs degrade until the backlog
// halves).
func (s *Shard) Submit(j Job) error {
	select {
	case s.queue <- j:
		s.depth.Add(1)
		return nil
	default:
	}
	s.rejected.Inc()
	s.shed.Inc()
	if s.cfg.Overflow == OverflowDegrade && !s.overloaded.Swap(true) {
		s.overloads.Inc()
	}
	return ErrQueueFull
}

// SubmitWait enqueues a job, blocking while the queue is full instead
// of shedding. It exists for callers that are themselves the admission
// authority — the cluster router admits or sheds against its own
// virtual-time replica model, so the shard's physical queue is pure
// backpressure and must not inflect the shed counters on a transient
// wall-clock backlog. The caller must not call SubmitWait concurrently
// with (or after) Close.
func (s *Shard) SubmitWait(j Job) {
	s.queue <- j
	s.depth.Add(1)
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
// arrival order.
func (s *Shard) run() {
	defer s.wg.Done()
	// Join any in-flight background refit on exit so no trainer
	// goroutine outlives the shard.
	defer s.trainer.Close()
	for j := range s.queue {
		// Crash horizon / fast drain: a job whose service would start at
		// or after KillAt died with the replica, and once CloseHandoff
		// has fired every remaining job is handed back. Handed-back jobs
		// get no Outcome from this shard — the caller re-places them.
		start := s.now
		if j.Arrival > start {
			start = j.Arrival
		}
		if (s.cfg.KillAt > 0 && start >= s.cfg.KillAt) || s.handoffNow.Load() {
			s.handoff = append(s.handoff, j)
			s.handedOff.Inc()
			s.depth.Add(-1)
			continue
		}
		out := s.serve(j)
		// The depth gauge counts queued AND executing jobs, so it only
		// drops after the job completes — "depth 0" means fully drained.
		s.depth.Add(-1)
		// Overload hysteresis: once the backlog has drained to half the
		// queue, resume predicting. (Clearing at half, not zero, keeps the
		// shard from flapping between regimes on every overflow.)
		if s.overloaded.Load() && s.depth.Value() <= int64(s.cfg.QueueDepth/2) {
			s.overloaded.Store(false)
		}
		if j.Result != nil {
			j.Result <- out
		}
	}
}

// serve executes one job on the worker goroutine.
func (s *Shard) serve(j Job) Outcome {
	// The fault key is the shard's own monotone job sequence: arrival
	// timestamps collide inside bursts, and the schedule must be a pure
	// function of (seed, shard, position in stream).
	key := fmt.Sprintf("%s/%d", s.cfg.Name, s.seq)
	s.seq++

	start := j.Arrival
	if s.now > start {
		start = s.now
	}
	wait := start - j.Arrival
	if wait == 0 {
		// The backlog fully drained before this job arrived: no inherited
		// delay remains, injected or otherwise.
		s.faultDebt = 0
	}
	budget := s.cfg.Deadline - wait

	// Degrade when the job has already burned too much of its life in
	// the queue, when the remaining budget cannot absorb even a DVFS
	// transition, or when the shard is in the overflow-degrade overload
	// regime — in every case prediction has fallen behind, so stop
	// paying for it and run flat out. The trigger counters attribute
	// each degraded job to the first condition that fired.
	degraded := true
	switch {
	case budget <= s.cfg.Device.SwitchTime:
		s.degBudget.Inc()
	case s.cfg.DegradeWait > 0 && wait >= s.cfg.DegradeWait:
		s.degWait.Inc()
	case s.cfg.Overflow == OverflowDegrade && s.overloaded.Load():
		s.degOverload.Inc()
	default:
		degraded = false
	}

	// Prediction attempt ladder: each attempt may stall — injected by
	// the fault schedule (decided up front, without touching the
	// simulator, so replays are bit-identical) or genuinely (the
	// watchdog in simulate fires). A stalled attempt burns StallPenalty
	// of virtual time and is retried after an exponential wall-clock
	// backoff; when retries are exhausted the job takes the degraded
	// path as a last resort.
	var (
		tr            core.JobTrace
		err           error
		stalls        int
		injectedDelay float64
		genuineDelay  float64
	)
	for attempt := 0; ; attempt++ {
		if s.cfg.Faults.HitN(FaultStall, key, attempt) {
			stalls++
			s.stalled.Inc()
			injectedDelay += s.cfg.StallPenalty
		} else {
			var stalled bool
			tr, stalled, err = s.simulate(j, degraded)
			if !stalled {
				break
			}
			stalls++
			s.stalled.Inc()
			genuineDelay += s.cfg.StallPenalty
		}
		if attempt >= s.cfg.MaxRetries {
			if degraded {
				err = fmt.Errorf("serve: %s: job %s stalled through %d attempts", s.cfg.Name, key, attempt+1)
				break
			}
			// Last resort: serve degraded. This final attempt is organic —
			// no injection — so an injected schedule can exhaust retries
			// but never lose the job.
			degraded = true
			s.degStall.Inc()
			var stalled bool
			tr, stalled, err = s.simulate(j, degraded)
			if stalled {
				stalls++
				s.stalled.Inc()
				genuineDelay += s.cfg.StallPenalty
				err = fmt.Errorf("serve: %s: job %s stalled through %d attempts", s.cfg.Name, key, attempt+2)
			}
			break
		}
		s.retries.Inc()
		if s.cfg.RetryBackoff > 0 {
			time.Sleep(s.cfg.RetryBackoff << attempt)
		}
	}
	stallDelay := injectedDelay + genuineDelay
	if err != nil {
		s.errs.Inc()
		s.done.Inc()
		return Outcome{Wait: wait, Start: start, Finish: start, Degraded: degraded,
			Stalls: stalls, StallDelay: stallDelay, Err: err}
	}

	// Stall delays come out of the job's budget before the stepper sees
	// it, exactly like queue wait.
	var jr sim.JobResult
	if degraded {
		jr = s.stepper.StepDegraded(tr, budget-stallDelay)
	} else {
		jr = s.stepper.Step(tr, budget-stallDelay)
	}
	finish := start + stallDelay + jr.TotalSeconds
	// Frame-drop resync: a job that overran its own absolute deadline is
	// already lost (counted and charged below), so the shard re-anchors
	// the clock to that deadline rather than letting one overrun slide
	// every subsequent frame — a 60 fps pipeline skips the vsync, it does
	// not shift the whole schedule.
	s.now = finish
	if jr.Missed && s.now > j.Arrival+s.cfg.Deadline {
		s.now = j.Arrival + s.cfg.Deadline
	}
	s.clock.Store(s.now)

	s.done.Inc()
	if degraded {
		s.degraded.Inc()
	}
	s.energy.Add(jr.Energy)
	if n := s.stepper.Switches(); n > s.prevSwitches {
		s.switches.Add(uint64(n - s.prevSwitches))
		s.prevSwitches = n
	}
	if jr.Missed {
		s.misses.Inc()
		// Attribution: subtract the injected share of the lateness — the
		// delay injected into this job plus the inherited fault debt
		// riding in its queue wait — and ask whether the job would still
		// have missed. If not, the fault schedule owns the miss; if the
		// job fit a fresh deadline, the serving layer owns it; otherwise
		// the job was intrinsically infeasible.
		inherited := s.faultDebt
		if inherited > wait {
			inherited = wait
		}
		clean := jr.TotalSeconds + genuineDelay + (wait - inherited)
		switch {
		case clean <= s.cfg.Deadline*(1+1e-12):
			s.faultMisses.Inc()
		case jr.TotalSeconds <= s.cfg.Deadline*(1+1e-12):
			s.servingMisses.Inc()
		}
	}
	// Carry the injected share of the backlog forward for the next job's
	// attribution, never claiming more debt than the backlog that
	// actually remains (the frame-drop resync above can discard time,
	// injected or not).
	s.faultDebt += injectedDelay
	if backlog := s.now - j.Arrival; s.faultDebt > backlog {
		s.faultDebt = backlog
	}
	if s.faultDebt < 0 {
		s.faultDebt = 0
	}

	// Online-learning tap: every completed predicted job feeds the
	// trainer, which may hot-swap the live model right here — between
	// this job and the next — so retrains land at a deterministic job
	// index. Degraded jobs never ran the slice (no features, no
	// prediction), so there is nothing to learn from them. The canary
	// evaluation is pure replay arithmetic: it touches neither predHist
	// nor execHist (no simulation happens) nor the serving counters, so
	// shadow-predictions can never double-count.
	if s.trainer != nil && !degraded {
		s.trainer.Observe(tr, jr.Missed)
	}

	s.waitHist.Observe(wait)
	s.latHist.Observe(wait + stallDelay + jr.TotalSeconds)
	return Outcome{
		Job:        jr,
		Wait:       wait,
		Start:      start,
		Finish:     finish,
		Degraded:   degraded,
		Stalls:     stalls,
		StallDelay: stallDelay,
	}
}

// simulate runs one prediction attempt for j, under the watchdog when
// JobTimeout is configured. It reports the trace, whether the attempt
// stalled (timed out — the result is void and the worker's simulator
// has been replaced with a fresh clone, since the wedged attempt may
// have left it mid-job), and any simulation error.
func (s *Shard) simulate(j Job, degraded bool) (core.JobTrace, bool, error) {
	switch {
	case j.Trace != nil:
		return *j.Trace, false, nil
	case s.js == nil:
		return core.JobTrace{}, false, fmt.Errorf("serve: %s: job without trace on a replay-only shard", s.cfg.Name)
	}
	if s.cfg.JobTimeout <= 0 {
		r := execute(s.js, j, degraded)
		s.observe(r, degraded)
		return r.tr, false, r.err
	}
	js := s.js
	ch := make(chan simResult, 1)
	go func() { ch <- execute(js, j, degraded) }()
	timer := time.NewTimer(s.cfg.JobTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		s.observe(r, degraded)
		return r.tr, false, r.err
	case <-timer.C:
		// The attempt wedged. The goroutine owns js and will exit into
		// its buffered channel on its own; the worker abandons both and
		// rebuilds its simulator, because the wedged attempt may have
		// left the old one mid-job.
		s.js = s.cfg.Pred.NewJobSimulator()
		return core.JobTrace{}, true, nil
	}
}

// simResult is one simulation attempt's outcome plus the wall-clock
// nanoseconds its prediction and full-design halves took (zero for a
// half that did not run).
type simResult struct {
	tr             core.JobTrace
	err            error
	predNs, execNs float64
}

// execute runs the appropriate simulation for the serving path: the
// degraded path skips the slice simulation entirely — that is the
// point: the predictor is the component that fell behind.
func execute(js *core.JobSimulator, j Job, degraded bool) simResult {
	start := time.Now() //detlint:allow metrics-only wall-clock; no effect on serving behavior
	if degraded {
		tr, err := js.Execute(j.Payload)
		return simResult{tr: tr, err: err, execNs: float64(time.Since(start).Nanoseconds())}
	}
	pr, err := js.Predict(j.Payload)
	if err != nil {
		return simResult{err: err}
	}
	mid := time.Now() //detlint:allow metrics-only wall-clock; no effect on serving behavior
	tr, err := js.Complete(j.Payload, pr)
	return simResult{tr: tr, err: err,
		predNs: float64(mid.Sub(start).Nanoseconds()), execNs: float64(time.Since(mid).Nanoseconds())}
}

// observe records a finished attempt's stage latencies. Only
// successful attempts count — a timed-out or errored attempt would
// measure the failure mode, not the engine — and degraded attempts
// never ran the slice, so they feed execHist alone.
func (s *Shard) observe(r simResult, degraded bool) {
	if r.err != nil {
		return
	}
	if !degraded {
		s.predHist.Observe(r.predNs)
	}
	s.execHist.Observe(r.execNs)
}

// Stats snapshots the shard's counters. Safe to call concurrently with
// serving.
func (s *Shard) Stats() Stats {
	var clamps, version uint64
	if s.cfg.Pred != nil {
		clamps = s.cfg.Pred.BoundClamps()
		version = s.cfg.Pred.ModelVersion()
	}
	ts := s.trainer.Stats()
	return Stats{
		Name:             s.cfg.Name,
		Done:             s.done.Value(),
		Rejected:         s.rejected.Value(),
		Degraded:         s.degraded.Value(),
		Errors:           s.errs.Value(),
		Shed:             s.shed.Value(),
		Overloads:        s.overloads.Value(),
		DegradedWait:     s.degWait.Value(),
		DegradedBudget:   s.degBudget.Value(),
		DegradedOverload: s.degOverload.Value(),
		DegradedStall:    s.degStall.Value(),
		Stalled:          s.stalled.Value(),
		Retries:          s.retries.Value(),
		HandedOff:        s.handedOff.Value(),
		Misses:           s.misses.Value(),
		ServingMisses:    s.servingMisses.Value(),
		FaultMisses:      s.faultMisses.Value(),
		Switches:         s.switches.Value(),
		BoundClamps:      clamps,
		ModelVersion:     version,
		DriftEvents:      ts.DriftEvents,
		Retrains:         ts.Retrains,
		Promotions:       ts.Promotions,
		CanaryRejects:    ts.CanaryRejects,
		Energy:           s.energy.Value(),
		QueueDepth:       s.depth.Value(),
		Clock:            s.clock.Value(),
		WaitP50:          s.waitHist.Quantile(0.50),
		WaitP99:          s.waitHist.Quantile(0.99),
		LatencyP50:       s.latHist.Quantile(0.50),
		LatencyP99:       s.latHist.Quantile(0.99),
		LatencyMean:      s.latHist.Mean(),
	}
}

// OnlineStats snapshots the shard-attached online trainer's counters;
// ok is false when online learning is disabled on this shard.
func (s *Shard) OnlineStats() (online.Stats, bool) {
	if s.trainer == nil {
		return online.Stats{}, false
	}
	return s.trainer.Stats(), true
}

// Server shards jobs across accelerators by benchmark name.
type Server struct {
	mu     sync.Mutex
	shards map[string]*Shard
}

// NewServer returns an empty server; add shards with AddShard.
func NewServer() *Server {
	return &Server{shards: make(map[string]*Shard)}
}

// AddShard creates and registers a shard.
func (sv *Server) AddShard(cfg ShardConfig) (*Shard, error) {
	sh, err := NewShard(cfg)
	if err != nil {
		return nil, err
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if _, dup := sv.shards[cfg.Name]; dup {
		sh.Close()
		return nil, fmt.Errorf("serve: duplicate shard %q", cfg.Name)
	}
	sv.shards[cfg.Name] = sh
	return sh, nil
}

// Shard returns the named shard, or nil.
func (sv *Server) Shard(name string) *Shard {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.shards[name]
}

// Names returns registered shard names, sorted.
func (sv *Server) Names() []string {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	names := make([]string, 0, len(sv.shards))
	for n := range sv.shards { //detlint:allow sorted immediately below
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Submit routes a job to the named shard.
func (sv *Server) Submit(name string, j Job) error {
	sh := sv.Shard(name)
	if sh == nil {
		return fmt.Errorf("serve: unknown shard %q", name)
	}
	return sh.Submit(j)
}

// Stats snapshots every shard, sorted by name.
func (sv *Server) Stats() []Stats {
	names := sv.Names()
	out := make([]Stats, 0, len(names))
	for _, n := range names {
		out = append(out, sv.Shard(n).Stats())
	}
	return out
}

// Close drains and stops every shard.
func (sv *Server) Close() {
	for _, n := range sv.Names() {
		sv.Shard(n).Close()
	}
}
