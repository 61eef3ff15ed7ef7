// Package cluster is dvfserved's serving front end: for each
// accelerator type a Pool of N replicas (N = 1 by default), each an
// ordinary serve.Shard with its own queue, governor and virtual clock,
// behind a router that does predict-then-place.
//
// The trained-slice prediction runs once, at the router: the arriving
// job is simulated (slice, then the ground-truth simulator) on
// the pool's own predictor clone, and the resulting trace — which
// carries both the prediction and the actual cycle count — is what the
// chosen replica replays. The router also owns the prediction-attempt
// ladder: an attempt that stalls (an injected serve.FaultStall, or the
// JobTimeout watchdog firing) is retried with backoff up to MaxRetries
// times and then degraded, and the job carries its serve.Stall record
// to the replica, which charges the delay against the job's budget.
//
// For every replica the router keeps a twin serve.Replica, built like
// the one inside the replica's shard. Each candidate plans the job
// once and the winner's twin applies that step. Because traces carry
// actual cycles, a candidate's step IS the outcome the shard will
// compute from the same state: completion, energy, and deadline
// feasibility are exact, not estimates. The router admits the job to
// the replica that can still meet the deadline at the lowest energy
// (policy "predict"), shedding only when no replica can;
// least-pressure (which never sheds) and consistent-hash policies are
// available behind the same interface.
//
// Determinism holds at fleet scale: placement, shedding, autoscaling,
// and replica-kill handling are all pure functions of the virtual-time
// job stream, so the same seed yields bit-identical fleet-wide
// energy/miss/shed statistics regardless of wall-clock worker progress.
// The one deliberately wall-clock path is RetireNow (operator-initiated
// drain-with-handoff), which is documented as such.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/serve"
)

// Kill is one entry of a seeded chaos schedule: the replica at the
// given initial index crashes at virtual time At (its shard's KillAt
// horizon). RestartAfter >= 0 spawns a replacement replica that starts
// accepting work at At+RestartAfter; negative means no restart.
type Kill struct {
	Replica      int
	At           float64
	RestartAfter float64
}

// Config describes one replica pool (all replicas of one accelerator
// type).
type Config struct {
	// Shard is the replica template: its Profile (predictor, device,
	// energy models, deadline) is shared by every replica and by the
	// router's twin replicas; its queueing knobs apply per replica.
	// Name names the pool; replicas are named "<Name>/<id>". The
	// prediction-attempt knobs (JobTimeout, MaxRetries, RetryBackoff,
	// StallPenalty, Faults) drive the router's ladder. Shard.Online
	// attaches the online trainer to the POOL, not to the replicas:
	// prediction happens once at the router over the shared predictor,
	// so drift detection, refits and canary decisions run there, and one
	// promotion swaps the live model every replica and every router
	// projection reads — promote-on-all-replicas by construction.
	Shard serve.ShardConfig
	// Replicas is the initial replica count (minimum 1).
	Replicas int
	// Policy picks the placement policy; nil selects PolicyPredict.
	Policy Policy
	// MaxBacklog bounds each replica's virtual backlog in jobs: a
	// replica with this many placed-but-unfinished jobs (in virtual
	// time) stops being feasible. 0 means unbounded.
	MaxBacklog int
	// Autoscale enables replica autoscaling; nil fixes the fleet size.
	Autoscale *AutoscaleConfig
	// Kills is the seeded chaos schedule, applied to initial replicas
	// by index. Entries referencing out-of-range replicas are rejected.
	Kills []Kill
}

// Job is one unit of arriving work at the router.
type Job struct {
	// Arrival is the job's virtual timestamp; submissions must be in
	// nondecreasing arrival order (one stream per pool).
	Arrival float64
	// Key is the routing key for affinity policies (consistent hash).
	// Empty selects the pool's job sequence number.
	Key string
	// Payload is simulated at the router (predict-then-place). Ignored
	// when Trace is set.
	Payload accel.Job
	// Trace replays a pre-simulated job, bypassing router prediction.
	// The pool and the serving replica read it through this pointer
	// without copying it, so the caller must not modify it after Submit.
	Trace *core.JobTrace
	// Result, when non-nil, receives the job's outcome from whichever
	// replica finally serves it, or the error of a job that failed at
	// the router (exactly one send unless the job is shed; buffer it).
	Result chan<- serve.Outcome
}

// ErrShed is returned by Submit when no replica can meet the job's
// deadline (or every replica's backlog bound is saturated); the job
// never executes and no outcome is delivered.
var ErrShed = fmt.Errorf("cluster: no replica can serve the job")

// replica is one serve.Shard plus the router's twin bookkeeping.
type replica struct {
	id    int
	name  string
	shard *serve.Shard
	// twin is the router's copy of the shard's serve.Replica, built from
	// the same config and activation time. The router applies to it
	// every step it commits to the shard, in queue order, so it is the
	// state the shard's worker reaches once it has served the queue.
	twin *serve.Replica
	// backlog holds projected virtual finish times of placed jobs,
	// pruned as arrivals pass them; its length is the virtual queue
	// depth the MaxBacklog bound applies to.
	backlog []float64
	// activeFrom gates placements: the replica is a candidate only for
	// arrivals at or after it (0 for initial replicas; kill time +
	// restart delay for restarts). Its clock starts there.
	activeFrom float64
	// restartAfter < 0 means a crash at the twin's KillAt is permanent.
	restartAfter float64
	dead         bool
	draining     bool
	// doomed holds jobs placed here whose step is Doomed: the shard
	// will hand each back unserved, and the router re-places them when
	// it detects the death.
	doomed []doomedJob
	placed uint64
}

type doomedJob struct {
	job serve.Job
	key routeKey
}

// routeKey is a job's routing key. A job submitted without one is keyed
// by its pool sequence number, which is formatted only when a policy
// that reads keys asks for it.
type routeKey struct {
	s     string
	seq   uint64
	bySeq bool
}

func (k routeKey) String() string {
	if k.bySeq {
		return strconv.FormatUint(k.seq, 10)
	}
	return k.s
}

func (r *replica) state() string {
	switch {
	case r.dead:
		return "dead"
	case r.draining:
		return "draining"
	default:
		return "active"
	}
}

// Pool routes one accelerator type's job stream across its replicas.
// Submit, Close and RetireNow must be called from one goroutine (one
// stream, like a shard); Stats may be called concurrently.
type Pool struct {
	mu  sync.Mutex
	cfg Config
	// js is the router's simulator (nil for replay-only pools); the
	// JobTimeout watchdog replaces it after a stalled attempt.
	js *core.JobSimulator
	// predHist and execHist time the router's simulation of payload
	// jobs in wall-clock nanoseconds: predHist the prediction (hardware
	// slice run plus model, JobSimulator.Predict), execHist the
	// ground-truth run (JobSimulator.Complete, or Execute on
	// the degraded last resort). Each is labeled with the engine its simulator
	// resolved to. Neither enters PoolStats: stats must stay a
	// deterministic function of the job stream, and wall-clock is not.
	predHist, execHist     *serve.Histogram
	predEngine, execEngine string
	// trainer is the pool-level online trainer (nil when disabled); it
	// observes committed placements under mu, so its Observe-from-one-
	// owner contract holds.
	trainer *online.Trainer

	replicas []*replica
	nextID   int
	seq      uint64
	last     float64
	closed   bool

	scaler *autoscaler

	// policy is cfg.Policy, or this pool's own cached ring for the hash
	// policy.
	policy Policy
	// needKey is false for policies whose Pick ignores the routing key.
	needKey bool
	// eagerFresh fills Candidate.FreshFeasible on every placement: the
	// reference router that tests hold the lazy fill to. Only tests set
	// it.
	eagerFresh bool
	// candBuf and viewBuf are place's scratch slices (guarded by mu).
	// Placements never nest, so one pair serves every place call and
	// the replay path allocates nothing per job.
	candBuf []*replica
	viewBuf []Candidate

	// Deterministic router counters (guarded by mu).
	submitted uint64
	placed    uint64
	shed      uint64
	errs      uint64
	intrinsic uint64
	replaced  uint64
	faultDebt uint64
	lost      uint64
	kills     uint64
	scaleUps  uint64
	scaleDown uint64
}

// NewPool validates the configuration and starts the initial replicas.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Shard.Name == "" {
		return nil, fmt.Errorf("cluster: pool has no name")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Policy == nil {
		cfg.Policy = PolicyPredict{}
	}
	if cfg.MaxBacklog < 0 {
		return nil, fmt.Errorf("cluster: %s: negative backlog bound", cfg.Shard.Name)
	}
	if cfg.Shard.JobTimeout < 0 || cfg.Shard.RetryBackoff < 0 {
		return nil, fmt.Errorf("cluster: %s: negative timeout or backoff", cfg.Shard.Name)
	}
	if cfg.Shard.MaxRetries < 0 {
		cfg.Shard.MaxRetries = 0
	}
	if cfg.Shard.StallPenalty <= 0 {
		cfg.Shard.StallPenalty = cfg.Shard.JobTimeout.Seconds()
	}
	for _, k := range cfg.Kills {
		if k.Replica < 0 || k.Replica >= cfg.Replicas {
			return nil, fmt.Errorf("cluster: %s: kill references replica %d of %d", cfg.Shard.Name, k.Replica, cfg.Replicas)
		}
		if k.At <= 0 {
			return nil, fmt.Errorf("cluster: %s: kill at %g", cfg.Shard.Name, k.At)
		}
	}
	policy := cfg.Policy
	if _, ok := policy.(PolicyHash); ok {
		policy = &hashRing{}
	}
	_, keyless := cfg.Policy.(keylessPolicy)
	p := &Pool{cfg: cfg, js: cfg.Shard.Profile.NewJobSimulator(), policy: policy, needKey: !keyless,
		predHist: serve.NsHistogram(), execHist: serve.NsHistogram()}
	if p.js != nil {
		sl, truth := p.js.Engines()
		p.predEngine, p.execEngine = string(sl), string(truth)
	}
	if cfg.Shard.Online != nil {
		tr, err := online.NewTrainer(cfg.Shard.Pred, cfg.Shard.Profile.Stepper, cfg.Shard.Deadline, *cfg.Shard.Online)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", cfg.Shard.Name, err)
		}
		p.trainer = tr
	}
	if cfg.Autoscale != nil {
		s, err := newAutoscaler(*cfg.Autoscale, cfg.Replicas)
		if err != nil {
			return nil, err
		}
		p.scaler = s
	}
	for i := 0; i < cfg.Replicas; i++ {
		killAt, restartAfter := 0.0, -1.0
		for _, k := range cfg.Kills {
			if k.Replica == i {
				killAt, restartAfter = k.At, k.RestartAfter
			}
		}
		if _, err := p.addReplica(0, killAt, restartAfter); err != nil {
			p.closeLocked()
			return nil, err
		}
	}
	return p, nil
}

// Name returns the pool's accelerator name.
func (p *Pool) Name() string { return p.cfg.Shard.Name }

// addReplica spawns a shard and its twin. Caller holds mu (or is
// NewPool).
func (p *Pool) addReplica(activeFrom, killAt, restartAfter float64) (*replica, error) {
	id := p.nextID
	p.nextID++
	scfg := p.cfg.Shard
	scfg.Name = fmt.Sprintf("%s/%d", p.cfg.Shard.Name, id)
	scfg.KillAt = killAt
	twin, err := serve.NewReplica(scfg, activeFrom)
	if err != nil {
		return nil, err
	}
	sh, err := serve.NewShard(scfg, activeFrom)
	if err != nil {
		return nil, err
	}
	r := &replica{
		id: id, name: scfg.Name, shard: sh, twin: twin,
		activeFrom: activeFrom, restartAfter: restartAfter,
	}
	p.replicas = append(p.replicas, r)
	return r, nil
}

// Submit routes one job. It returns ErrShed when no replica can meet
// the deadline (the job never executes), or an error when the job
// cannot be predicted — it is counted in PoolStats.Errors and its
// Outcome{Err} is sent on Job.Result; otherwise the job has been placed
// and its outcome will arrive on Job.Result from the serving replica.
// Every submission on an open pool ends in exactly one of placed, shed
// or errored.
func (p *Pool) Submit(j Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("cluster: %s: pool is closed", p.cfg.Shard.Name)
	}
	if j.Arrival < p.last {
		return fmt.Errorf("cluster: %s: arrival %g before %g (submissions must be ordered)", p.cfg.Shard.Name, j.Arrival, p.last)
	}
	p.last = j.Arrival
	p.submitted++
	seq := p.seq
	p.seq++
	p.detectKills(j.Arrival)

	tr, stall, err := p.predict(&j, seq)
	if err != nil {
		p.errs++
		err = fmt.Errorf("cluster: %s: predict: %w", p.cfg.Shard.Name, err)
		if j.Result != nil {
			j.Result <- serve.Outcome{Stalls: stall.Count, StallDelay: stall.Delay(), Err: err}
		}
		return err
	}
	key := routeKey{s: j.Key}
	if j.Key == "" {
		key = routeKey{seq: seq, bySeq: true}
	}

	sj := serve.Job{Arrival: j.Arrival, Trace: tr, Stall: stall, Result: j.Result}
	wait, ok := p.place(sj, key, false)
	if p.scaler != nil {
		p.autoscaleTick(j.Arrival, wait, !ok)
	}
	if !ok {
		p.shed++
		return ErrShed
	}
	return nil
}

// predict is the prediction-attempt ladder. Each attempt may stall —
// injected by the fault schedule (decided up front, without touching
// the simulator, so replays are bit-identical) or genuinely (the
// watchdog in simulate fires). A stalled attempt burns StallPenalty of
// virtual time and is retried after an exponential wall-clock backoff;
// when retries are exhausted the job is simulated once more on the
// degraded path, which skips the slice, as a last resort. Trace jobs
// climb the same ladder, so a replayed stream sees the same stalls.
// A trace job's trace is returned as is, not copied.
func (p *Pool) predict(j *Job, seq uint64) (*core.JobTrace, serve.Stall, error) {
	cfg := &p.cfg.Shard
	// The fault key is the pool's job sequence: arrival timestamps
	// collide inside bursts, and the schedule must be a pure function of
	// (seed, pool, position in stream).
	var key string
	if cfg.Faults != nil {
		key = fmt.Sprintf("%s/%d", cfg.Name, seq)
	}
	var st serve.Stall
	for attempt := 0; ; attempt++ {
		if cfg.Faults.HitN(serve.FaultStall, key, attempt) {
			st.Count++
			st.Injected += cfg.StallPenalty
		} else {
			tr, stalled, err := p.simulate(j, false)
			if !stalled {
				return tr, st, err
			}
			st.Count++
			st.Genuine += cfg.StallPenalty
		}
		if attempt >= cfg.MaxRetries {
			// Last resort: simulate degraded. This final attempt is
			// organic — no injection — so an injected schedule can exhaust
			// retries but never lose the job.
			st.Exhausted = true
			tr, stalled, err := p.simulate(j, true)
			if stalled {
				st.Count++
				st.Genuine += cfg.StallPenalty
				err = fmt.Errorf("job %d stalled through %d attempts", seq, attempt+2)
			}
			return tr, st, err
		}
		if cfg.RetryBackoff > 0 {
			time.Sleep(cfg.RetryBackoff << attempt)
		}
	}
}

// simulate runs one prediction attempt for j, under the watchdog when
// JobTimeout is configured. It reports the trace, whether the attempt
// stalled (timed out — the result is void and the router's simulator
// has been replaced with a fresh clone, since the wedged attempt may
// have left it mid-job), and any simulation error.
func (p *Pool) simulate(j *Job, degraded bool) (*core.JobTrace, bool, error) {
	switch {
	case j.Trace != nil:
		return j.Trace, false, nil
	case p.js == nil:
		return nil, false, fmt.Errorf("job without trace on a replay-only pool")
	}
	if p.cfg.Shard.JobTimeout <= 0 {
		r := execute(p.js, j.Payload, degraded)
		p.observe(r, degraded)
		return &r.tr, false, r.err
	}
	js, payload := p.js, j.Payload
	ch := make(chan simResult, 1)
	go func() { ch <- execute(js, payload, degraded) }()
	timer := time.NewTimer(p.cfg.Shard.JobTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		p.observe(r, degraded)
		return &r.tr, false, r.err
	case <-timer.C:
		// The attempt wedged. The goroutine owns js and will exit into
		// its buffered channel on its own; the router abandons both and
		// rebuilds its simulator.
		p.js = p.cfg.Shard.Profile.NewJobSimulator()
		return nil, true, nil
	}
}

// simResult is one simulation attempt's outcome plus the wall-clock
// nanoseconds its prediction and ground-truth halves took (zero for a
// half that did not run).
type simResult struct {
	tr             core.JobTrace
	err            error
	predNs, execNs float64
}

// execute runs one simulation attempt: the slice-driven prediction and
// then the ground truth (the full design's exact done cycle), or — on
// the degraded path — the ground truth alone, because the predictor is
// the component that fell behind.
func execute(js *core.JobSimulator, job accel.Job, degraded bool) simResult {
	start := time.Now() //detlint:allow metrics-only wall-clock; no effect on serving behavior
	if degraded {
		tr, err := js.Execute(job)
		return simResult{tr: tr, err: err, execNs: float64(time.Since(start).Nanoseconds())}
	}
	pr, err := js.Predict(job)
	if err != nil {
		return simResult{err: err}
	}
	mid := time.Now() //detlint:allow metrics-only wall-clock; no effect on serving behavior
	tr, err := js.Complete(job, pr)
	return simResult{tr: tr, err: err,
		predNs: float64(mid.Sub(start).Nanoseconds()), execNs: float64(time.Since(mid).Nanoseconds())}
}

// observe records a finished attempt's stage latencies. Only
// successful attempts count — a timed-out or errored attempt would
// measure the failure mode, not the engine — and degraded attempts
// never ran the slice, so they feed execHist alone.
func (p *Pool) observe(r simResult, degraded bool) {
	if r.err != nil {
		return
	}
	if !degraded {
		p.predHist.Observe(r.predNs)
	}
	p.execHist.Observe(r.execNs)
}

// place routes one already-predicted job. replaced marks re-placements
// of work recovered from a dead replica: those are never shed (the job
// was already admitted once), and a re-placed job that then misses its
// deadline is attributed to fault debt. It reports the placed job's
// projected queue wait and whether it was placed at all.
//
// Each candidate's twin plans the job once: the fresh-deadline
// evaluations behind Candidate.FreshFeasible run only when no candidate
// is feasible, and commit applies the winner's step rather than
// planning it again.
func (p *Pool) place(sj serve.Job, key routeKey, replaced bool) (float64, bool) {
	cands := p.candidates(p.candBuf[:0], sj.Arrival)
	if len(cands) == 0 && replaced {
		// Every active replica is gone: recovered work goes to a draining
		// replica or a registered restart rather than being dropped.
		cands = p.fallbackReplicas(cands)
	}
	p.candBuf = cands
	if len(cands) == 0 {
		if replaced {
			p.lost++
			if sj.Result != nil {
				sj.Result <- serve.Outcome{Err: fmt.Errorf("cluster: %s: no live replica for recovered job", p.cfg.Shard.Name)}
			}
		}
		return 0, false
	}
	if cap(p.viewBuf) < len(cands) {
		p.viewBuf = make([]Candidate, len(cands))
	}
	views := p.viewBuf[:len(cands)]
	feasible := false
	for i, r := range cands {
		p.project(r, &sj, &views[i])
		feasible = feasible || views[i].Feasible
	}
	if !feasible || p.eagerFresh {
		for i, r := range cands {
			views[i].FreshFeasible = r.twin.FitsFresh(&sj)
		}
	}
	var k string
	if p.needKey {
		k = key.String()
	}
	idx := p.policy.Pick(views, k)
	if idx < 0 || idx >= len(cands) {
		if !replaced {
			return 0, false
		}
		// Recovered work is force-placed on the earliest-starting
		// candidate rather than shed a second time.
		idx = minStart(views)
	}
	if !replaced && !views[idx].Feasible {
		// The policy placed a job it knows will miss — predict does this
		// only for intrinsically infeasible jobs (they would miss even a
		// fresh deadline everywhere), which offline replay also serves
		// and counts, so shedding them would skew reconciliation.
		p.intrinsic++
	}
	p.commit(cands[idx], sj, &views[idx], key, replaced)
	return views[idx].Wait, true
}

// candidates appends the placement-eligible replicas to dst in id
// order: alive, not draining, and activated at or before the arrival.
func (p *Pool) candidates(dst []*replica, arrival float64) []*replica {
	for _, r := range p.replicas {
		if !r.dead && !r.draining && arrival >= r.activeFrom {
			dst = append(dst, r)
		}
	}
	return dst
}

// fallbackReplicas appends the live draining replicas to dst or, when
// there are none, the live replicas not yet active: registered restarts.
func (p *Pool) fallbackReplicas(dst []*replica) []*replica {
	for _, r := range p.replicas {
		if !r.dead && r.draining {
			dst = append(dst, r)
		}
	}
	if len(dst) > 0 {
		return dst
	}
	for _, r := range p.replicas {
		if !r.dead {
			dst = append(dst, r)
		}
	}
	return dst
}

// project fills v with one replica's Candidate view of a job: the step
// its twin plans, which is exactly the step the shard will take.
// FreshFeasible is left false; place fills it when it is needed.
func (p *Pool) project(r *replica, sj *serve.Job, v *Candidate) {
	backlog := 0
	for _, f := range r.backlog {
		if f > sj.Arrival {
			backlog++
		}
	}
	*v = Candidate{ID: r.id, Name: r.name, Backlog: backlog}
	r.twin.Plan(sj, &v.Step) // predict hands place only jobs with a trace
	v.Feasible = !v.Result.Missed && (p.cfg.MaxBacklog == 0 || backlog < p.cfg.MaxBacklog)
}

// commit places the job on the chosen replica: the twin applies v's
// step, the one the shard will take, and the job is enqueued on the
// shard. A doomed job is not applied — the shard will hand it back
// unserved — and the router records it for re-placement at death
// detection instead.
func (p *Pool) commit(r *replica, sj serve.Job, v *Candidate, key routeKey, replaced bool) {
	r.placed++
	p.placed++
	if v.Doomed {
		r.doomed = append(r.doomed, doomedJob{job: sj, key: key})
		r.shard.SubmitWait(sj)
		return
	}
	r.twin.Apply(&v.Step)
	// Prune finishes the stream has passed, then record this job's.
	kept := r.backlog[:0]
	for _, f := range r.backlog {
		if f > sj.Arrival {
			kept = append(kept, f)
		}
	}
	r.backlog = append(kept, v.Finish)
	if replaced && v.Result.Missed {
		p.faultDebt++
	}
	// Online-learning tap: committed, non-degraded placements feed the
	// pool trainer, which may hot-swap the shared live model here —
	// before the next submission is predicted. Re-placements of
	// recovered work are skipped to keep each job observed at most once.
	if p.trainer != nil && !replaced && !v.Degraded() {
		p.trainer.Observe(*sj.Trace, v.Result.Missed)
	}
	r.shard.SubmitWait(sj)
}

func minStart(views []Candidate) int {
	best := 0
	for i := 1; i < len(views); i++ {
		if views[i].Start < views[best].Start ||
			(views[i].Start == views[best].Start && views[i].ID < views[best].ID) {
			best = i
		}
	}
	return best
}

// detectKills fires every crash horizon the stream has reached: the
// replica is marked dead, its replacement (if scheduled) is registered,
// and the doomed jobs — work placed on it that its shard will hand back
// unserved — are re-placed on live replicas in their original order.
// All of it is a pure function of the arrival, so a seeded kill
// schedule replays bit-identically.
func (p *Pool) detectKills(arrival float64) {
	for i := 0; i < len(p.replicas); i++ {
		r := p.replicas[i]
		killAt := r.twin.KillAt()
		if r.dead || killAt <= 0 || arrival < killAt {
			continue
		}
		r.dead = true
		p.kills++
		if r.restartAfter >= 0 {
			// The replacement registers now but only becomes a candidate
			// once the stream reaches its activation time.
			if _, err := p.addReplica(killAt+r.restartAfter, 0, -1); err != nil {
				// Profile already validated at pool construction; a failure
				// here means the process is out of resources. Skip the
				// restart rather than wedge the stream.
				p.lost++
			}
		}
		doomed := r.doomed
		r.doomed = nil
		for _, d := range doomed {
			p.replaced++
			p.place(d.job, d.key, true)
		}
	}
}

// autoscaleTick feeds the scaler one submission observation and applies
// its decision. Caller holds mu.
func (p *Pool) autoscaleTick(arrival, wait float64, shed bool) {
	switch p.scaler.observe(wait, p.cfg.Shard.Deadline, shed, p.activeCount()) {
	case scaleUp:
		// Prefer reactivating a draining replica — its governor state is
		// intact — over spawning a cold one.
		for _, r := range p.replicas {
			if !r.dead && r.draining {
				r.draining = false
				p.scaleUps++
				return
			}
		}
		if _, err := p.addReplica(arrival, 0, -1); err == nil {
			p.scaleUps++
		}
	case scaleDown:
		// Drain the highest-id active replica: placements stop, its
		// already-placed work completes, and the physical close happens
		// at Pool.Close (drain-then-retire).
		if c := p.candidates(p.candBuf[:0], arrival); len(c) > 0 {
			c[len(c)-1].draining = true
			p.scaleDown++
		}
	}
}

func (p *Pool) activeCount() int {
	n := 0
	for _, r := range p.replicas {
		if !r.dead && !r.draining {
			n++
		}
	}
	return n
}

// RetireNow is the operator fast-retire path: the named replica is
// drained with handoff — its shard stops, queued-but-unstarted jobs
// come back — and the recovered jobs are immediately re-placed on the
// remaining replicas. Unlike everything else in this package the split
// between served and handed-back depends on wall-clock worker progress,
// so RetireNow is for operators, not for deterministic replays.
func (p *Pool) RetireNow(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var victim *replica
	for _, r := range p.replicas {
		if r.name == name && !r.dead {
			victim = r
		}
	}
	if victim == nil {
		return fmt.Errorf("cluster: %s: no live replica %q", p.cfg.Shard.Name, name)
	}
	if cands := p.candidates(nil, p.last); len(cands) == 1 && cands[0] == victim {
		// Retiring the last active replica would strand its queue.
		return fmt.Errorf("cluster: %s: %q is the last active replica", p.cfg.Shard.Name, name)
	}
	victim.dead = true
	for _, sj := range victim.shard.CloseHandoff() {
		p.replaced++
		p.place(sj, routeKey{}, true)
	}
	return nil
}

// Close finalizes the stream: pending crash horizons past the last
// arrival fire (their doomed jobs are re-placed), every shard drains
// and stops, and the pool's statistics freeze. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closeLocked()
}

func (p *Pool) closeLocked() {
	if p.closed {
		return
	}
	p.closed = true
	p.detectKills(math.Inf(1))
	p.trainer.Close()
	for _, r := range p.replicas {
		r.shard.Close()
	}
}

// ReplicaStats is one replica's serve.Stats plus its router-side view.
type ReplicaStats struct {
	serve.Stats
	ID         int     `json:"id"`
	State      string  `json:"state"`
	ActiveFrom float64 `json:"active_from"`
	// Placed counts jobs the router committed here (including doomed
	// ones later recovered); Doomed is the current recovery backlog.
	Placed uint64 `json:"placed"`
	Doomed int    `json:"doomed"`
}

// Rollup is the fleet-wide sum over replicas.
type Rollup struct {
	Done, Misses, ServingMisses, FaultMisses uint64
	Degraded, HandedOff, Switches            uint64
	Energy                                   float64
}

// PoolStats snapshots the pool: router counters, per-replica stats, and
// the fleet rollup. Deterministic once Close has returned.
type PoolStats struct {
	Name   string `json:"name"`
	Policy string `json:"policy"`
	// Submitted counts Submit calls on the open pool; Placed, router
	// placements (including re-placements); Shed, jobs refused because
	// no replica could meet the deadline; Errors, jobs that failed at
	// the router (no trace on a replay-only pool, a simulation error, or
	// a stall on the last-resort attempt), so that Submitted = first
	// placements + Shed + Errors; Intrinsic, jobs placed despite missing
	// everywhere because they would miss even a fresh deadline (the
	// miss is the job's, not the fleet's); Replaced, jobs recovered
	// from dead replicas; FaultDebtMisses, recovered jobs that then
	// missed; Lost, recovered jobs with no live replica left (reported
	// as errors, never silent); Kills, crash horizons fired; ScaleUps/
	// ScaleDowns, autoscaler actions.
	Submitted, Placed, Shed, Errors uint64
	Intrinsic                       uint64
	Replaced, FaultDebtMisses, Lost uint64
	Kills, ScaleUps, ScaleDowns     uint64
	// Online is the pool-level trainer's snapshot (zeros with State
	// "off" when online learning is disabled). Every replica serves the
	// same live model, so Online.ModelVersion is the fleet's version.
	Online   online.Stats
	Replicas []ReplicaStats
	Fleet    Rollup
}

// Stats snapshots the pool. Safe to call concurrently with serving;
// bit-deterministic once the stream is closed.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Name: p.cfg.Shard.Name, Policy: p.cfg.Policy.Name(),
		Submitted: p.submitted, Placed: p.placed, Shed: p.shed, Errors: p.errs, Intrinsic: p.intrinsic,
		Replaced: p.replaced, FaultDebtMisses: p.faultDebt, Lost: p.lost,
		Kills: p.kills, ScaleUps: p.scaleUps, ScaleDowns: p.scaleDown,
		Online: p.trainer.Stats(),
	}
	for _, r := range p.replicas {
		rs := ReplicaStats{
			Stats: r.shard.Stats(),
			ID:    r.id, State: r.state(), ActiveFrom: r.activeFrom,
			Placed: r.placed, Doomed: len(r.doomed),
		}
		st.Replicas = append(st.Replicas, rs)
		st.Fleet.Done += rs.Done
		st.Fleet.Misses += rs.Misses
		st.Fleet.ServingMisses += rs.ServingMisses
		st.Fleet.FaultMisses += rs.FaultMisses
		st.Fleet.Degraded += rs.Degraded
		st.Fleet.HandedOff += rs.HandedOff
		st.Fleet.Switches += rs.Switches
		st.Fleet.Energy += rs.Energy
	}
	return st
}

// ModelStatus is one pool's serving-model report: the live β
// snapshot, its version, and — when online learning is enabled — the
// trainer's counters. The /v1/model endpoint returns one per pool.
type ModelStatus struct {
	Pool string `json:"pool"`
	// Version is 0 for the offline-trained β, incremented per promoted
	// online refit.
	Version uint64 `json:"version"`
	// Online reports whether a trainer is attached to this pool.
	Online bool `json:"online"`
	// Model is the live β restricted to the slice's kept features,
	// keyed by feature name — the coefficients the hardware actually
	// multiplies.
	Model map[string]float64 `json:"model"`
	// Intercept is the live model's constant term.
	Intercept float64 `json:"intercept"`
	// Trainer is the online trainer's counter snapshot (zeros with
	// State "off" when disabled).
	Trainer online.Stats `json:"trainer"`
}

// ModelStatus reports the pool's shared serving model — the one every
// replica and every router projection reads; ok is false for
// replay-only pools, which have no predictor.
func (p *Pool) ModelStatus() (ModelStatus, bool) {
	pred := p.cfg.Shard.Pred
	if pred == nil {
		return ModelStatus{}, false
	}
	live := pred.LiveModel()
	names := pred.Ins.Names()
	coefs := make(map[string]float64, len(pred.Kept))
	for _, k := range pred.Kept {
		coefs[names[k]] = live.Coef[k]
	}
	return ModelStatus{
		Pool:      p.cfg.Shard.Name,
		Version:   pred.ModelVersion(),
		Online:    p.trainer != nil,
		Model:     coefs,
		Intercept: live.Intercept,
		Trainer:   p.trainer.Stats(),
	}, true
}

// Shards returns the pool's shards in replica-id order (for metrics).
func (p *Pool) Shards() []*serve.Shard {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*serve.Shard, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = r.shard
	}
	return out
}

// Fleet is a set of pools keyed by accelerator name: everything one
// dvfserved process serves.
type Fleet struct {
	mu    sync.Mutex
	pools map[string]*Pool
}

// NewFleet returns an empty fleet; add pools with AddPool.
func NewFleet() *Fleet {
	return &Fleet{pools: make(map[string]*Pool)}
}

// AddPool creates and registers a pool.
func (f *Fleet) AddPool(cfg Config) (*Pool, error) {
	p, err := NewPool(cfg)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.pools[p.Name()]; dup {
		p.Close()
		return nil, fmt.Errorf("cluster: duplicate pool %q", p.Name())
	}
	f.pools[p.Name()] = p
	return p, nil
}

// Pool returns the named pool, or nil.
func (f *Fleet) Pool(name string) *Pool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pools[name]
}

// Names returns registered pool names, sorted.
func (f *Fleet) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.pools))
	for n := range f.pools { //detlint:allow sorted immediately below
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Submit routes a job to the named pool.
func (f *Fleet) Submit(name string, j Job) error {
	p := f.Pool(name)
	if p == nil {
		return fmt.Errorf("cluster: unknown pool %q", name)
	}
	return p.Submit(j)
}

// Stats snapshots every pool, sorted by name.
func (f *Fleet) Stats() []PoolStats {
	names := f.Names()
	out := make([]PoolStats, 0, len(names))
	for _, n := range names {
		out = append(out, f.Pool(n).Stats())
	}
	return out
}

// Close finalizes and stops every pool.
func (f *Fleet) Close() {
	for _, n := range f.Names() {
		f.Pool(n).Close()
	}
}
