package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/workload"
)

// JobSource generates n jobs for a benchmark from a seed; the API uses
// it to synthesize request payloads server-side, so clients describe
// load (count, seed, arrival process) instead of shipping scratchpad
// images over HTTP.
type JobSource func(bench string, n int, seed int64) ([]accel.Job, error)

// API wraps a Fleet with the dvfserved HTTP surface. Arrival
// timestamps come from a per-pool cursor, so successive submissions
// form one continuous virtual-time stream per accelerator.
type API struct {
	fleet  *Fleet
	source JobSource

	mu      sync.Mutex // guards cursors (the map, not the entries)
	cursors map[string]*cursor
}

// cursor is one pool's arrival cursor. Its lock spans a whole POST's
// routing loop, so one request's arrivals reach the pool in order,
// while requests for other pools route in parallel.
type cursor struct {
	mu   sync.Mutex
	next float64
}

// NewAPI builds the HTTP API over a fleet.
func NewAPI(fleet *Fleet, source JobSource) *API {
	return &API{fleet: fleet, source: source, cursors: make(map[string]*cursor)}
}

// cursor returns the named pool's arrival cursor, creating it on first
// use.
func (a *API) cursor(name string) *cursor {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.cursors[name]
	if c == nil {
		c = &cursor{}
		a.cursors[name] = c
	}
	return c
}

// Handler returns the route mux:
//
//	GET  /healthz          liveness probe
//	GET  /v1/benchmarks    pool names
//	GET  /v1/stats         per-pool stats: router counters, replicas (JSON)
//	GET  /v1/cluster       alias of /v1/stats
//	GET  /v1/model         live model per pool: version, β, trainer counters
//	POST /v1/jobs          submit a generated job stream; returns once routed
//	POST /v1/drain         block until every replica queue is empty
//	POST /v1/retire        drain-with-handoff one replica now
//	GET  /metrics          per-replica and per-pool series (text)
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.fleet.Names())
	})
	mux.HandleFunc("/v1/stats", a.handleStats)
	mux.HandleFunc("/v1/cluster", a.handleStats)
	mux.HandleFunc("/v1/model", a.handleModel)
	mux.HandleFunc("/v1/jobs", a.handleJobs)
	mux.HandleFunc("/v1/drain", a.handleDrain)
	mux.HandleFunc("/v1/retire", a.handleRetire)
	mux.HandleFunc("/metrics", a.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.fleet.Stats())
}

func (a *API) handleModel(w http.ResponseWriter, r *http.Request) {
	out := make([]ModelStatus, 0)
	for _, name := range a.fleet.Names() {
		if ms, ok := a.fleet.Pool(name).ModelStatus(); ok {
			out = append(out, ms)
		}
	}
	writeJSON(w, out)
}

// JobsRequest is the POST /v1/jobs body.
type JobsRequest struct {
	// Bench names the target pool.
	Bench string `json:"bench"`
	// Count is the number of jobs to generate and submit.
	Count int `json:"count"`
	// Seed drives job generation (default 1).
	Seed int64 `json:"seed"`
	// PeriodMs spaces periodic arrivals (default: the pool deadline).
	PeriodMs float64 `json:"period_ms"`
	// Poisson switches to exponential inter-arrival gaps at RateHz.
	Poisson bool `json:"poisson"`
	// RateHz is the Poisson arrival rate (default: 1000/PeriodMs).
	RateHz float64 `json:"rate_hz"`
	// Burst > 1 groups periodic arrivals into back-to-back bursts.
	Burst int `json:"burst"`
}

// JobsResponse reports routing results for one submission: every job
// was accepted (placed on a replica), shed, or failed at the router.
type JobsResponse struct {
	Bench    string  `json:"bench"`
	Accepted int     `json:"accepted"`
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	First    float64 `json:"first_arrival_s"`
	Last     float64 `json:"last_arrival_s"`
}

func (a *API) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req JobsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := a.fleet.Pool(req.Bench)
	if p == nil {
		http.Error(w, fmt.Sprintf("unknown benchmark %q (have %v)", req.Bench, a.fleet.Names()), http.StatusNotFound)
		return
	}
	if req.Count < 1 || req.Count > 100000 {
		http.Error(w, "count must be in 1..100000", http.StatusBadRequest)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	period := req.PeriodMs * 1e-3
	if period <= 0 {
		period = p.cfg.Shard.Deadline
	}
	jobs, err := a.source(req.Bench, req.Count, seed)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var offs []float64
	switch {
	case req.Poisson:
		rate := req.RateHz
		if rate <= 0 {
			rate = 1 / period
		}
		offs = workload.PoissonArrivals(req.Count, rate, seed)
	case req.Burst > 1:
		offs = workload.BurstyArrivals(req.Count, req.Burst, period)
	default:
		offs = workload.PeriodicArrivals(req.Count, period)
	}

	c := a.cursor(req.Bench)
	c.mu.Lock()
	base := c.next
	c.next = base + offs[len(offs)-1] + period
	resp := JobsResponse{Bench: req.Bench, First: base + offs[0], Last: base + offs[len(offs)-1]}
	for i, job := range jobs {
		switch err := p.Submit(Job{Arrival: base + offs[i], Payload: job}); err {
		case nil:
			resp.Accepted++
		case ErrShed:
			resp.Shed++
		default:
			resp.Errors++
		}
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

func (a *API) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	deadline := time.Now().Add(2 * time.Minute) //detlint:allow HTTP timeout, not a replay path
	for {
		busy := false
		for _, ps := range a.fleet.Stats() {
			for _, rs := range ps.Replicas {
				if rs.QueueDepth > 0 {
					busy = true
				}
			}
		}
		if !busy {
			fmt.Fprintln(w, "drained")
			return
		}
		if time.Now().After(deadline) { //detlint:allow HTTP timeout, not a replay path
			http.Error(w, "drain timed out", http.StatusServiceUnavailable)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// RetireRequest is the POST /v1/retire body: the pool and the replica
// shard name ("bench/i") to drain-with-handoff immediately.
type RetireRequest struct {
	Bench   string `json:"bench"`
	Replica string `json:"replica"`
}

func (a *API) handleRetire(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req RetireRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := a.fleet.Pool(req.Bench)
	if p == nil {
		http.Error(w, fmt.Sprintf("unknown benchmark %q", req.Bench), http.StatusNotFound)
		return
	}
	if err := p.RetireNow(req.Replica); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "retired %s\n", req.Replica)
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	stats := a.fleet.Stats()
	shards := make([]*serve.Shard, 0)
	for _, name := range a.fleet.Names() {
		shards = append(shards, a.fleet.Pool(name).Shards()...)
	}
	serve.WriteMetrics(w, shards)
	// Process-wide native-engine requests that fell back to the plan
	// evaluator: nonzero means some netlist has no registered generated
	// step, a ~10x slowdown on that simulator.
	fmt.Fprintf(w, "# HELP dvfserved_native_fallbacks_total Native-engine simulator requests that fell back to the plan evaluator.\n# TYPE dvfserved_native_fallbacks_total counter\ndvfserved_native_fallbacks_total %d\n",
		rtl.NativeFallbacks())
	a.writeStageMetrics(w, "dvfserved_predict_ns",
		"Wall-clock prediction latency at the router (hardware slice run plus model) in nanoseconds, labeled with the RTL engine executing the slice.",
		func(p *Pool) (*serve.Histogram, string) { return p.predHist, p.predEngine })
	a.writeStageMetrics(w, "dvfserved_execute_ns",
		"Wall-clock ground-truth simulation latency at the router in nanoseconds, labeled with the RTL engine executing the ground-truth simulator.",
		func(p *Pool) (*serve.Histogram, string) { return p.execHist, p.execEngine })

	counters := []struct {
		name, help string
		get        func(PoolStats) uint64
	}{
		{"dvfscluster_jobs_submitted_total", "Jobs offered to the router.", func(s PoolStats) uint64 { return s.Submitted }},
		{"dvfscluster_jobs_placed_total", "Router placements, including re-placements.", func(s PoolStats) uint64 { return s.Placed }},
		{"dvfscluster_jobs_shed_total", "Jobs shed because no replica could meet the deadline.", func(s PoolStats) uint64 { return s.Shed }},
		{"dvfscluster_job_errors_total", "Jobs that failed at the router (never placed).", func(s PoolStats) uint64 { return s.Errors }},
		{"dvfscluster_jobs_intrinsic_total", "Placed jobs that would miss even a fresh deadline.", func(s PoolStats) uint64 { return s.Intrinsic }},
		{"dvfscluster_jobs_replaced_total", "Jobs recovered from dead replicas and re-placed.", func(s PoolStats) uint64 { return s.Replaced }},
		{"dvfscluster_fault_debt_misses_total", "Recovered jobs that then missed their deadline.", func(s PoolStats) uint64 { return s.FaultDebtMisses }},
		{"dvfscluster_jobs_lost_total", "Recovered jobs with no live replica left (errored, not silent).", func(s PoolStats) uint64 { return s.Lost }},
		{"dvfscluster_replica_kills_total", "Crash horizons fired.", func(s PoolStats) uint64 { return s.Kills }},
		{"dvfscluster_scale_ups_total", "Autoscaler scale-up actions.", func(s PoolStats) uint64 { return s.ScaleUps }},
		{"dvfscluster_scale_downs_total", "Autoscaler drain actions.", func(s PoolStats) uint64 { return s.ScaleDowns }},
		{"dvfscluster_model_drift_events_total", "Drift detections by the pool's online trainer.", func(s PoolStats) uint64 { return s.Online.DriftEvents }},
		{"dvfscluster_model_retrains_total", "Background model refits started at the router.", func(s PoolStats) uint64 { return s.Online.Retrains }},
		{"dvfscluster_model_promotions_total", "Canary candidates promoted fleet-wide.", func(s PoolStats) uint64 { return s.Online.Promotions }},
		{"dvfscluster_model_canary_rejects_total", "Canary candidates rejected (incumbent retained).", func(s PoolStats) uint64 { return s.Online.CanaryRejects }},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
		for _, ps := range stats {
			fmt.Fprintf(w, "%s{pool=%q,policy=%q} %d\n", c.name, ps.Name, ps.Policy, c.get(ps))
		}
	}
	fmt.Fprintf(w, "# HELP dvfscluster_replicas Replicas by state.\n# TYPE dvfscluster_replicas gauge\n")
	for _, ps := range stats {
		counts := map[string]int{"active": 0, "draining": 0, "dead": 0}
		for _, rs := range ps.Replicas {
			counts[rs.State]++
		}
		for _, state := range []string{"active", "draining", "dead"} {
			fmt.Fprintf(w, "dvfscluster_replicas{pool=%q,state=%q} %d\n", ps.Name, state, counts[state])
		}
	}
	fmt.Fprintf(w, "# HELP dvfscluster_energy_joules_total Fleet energy by pool.\n# TYPE dvfscluster_energy_joules_total counter\n")
	for _, ps := range stats {
		fmt.Fprintf(w, "dvfscluster_energy_joules_total{pool=%q} %g\n", ps.Name, ps.Fleet.Energy)
	}
}

// writeStageMetrics renders one engine-labeled nanosecond histogram per
// pool. Replay-only pools (no predictor, engine "") simulate nothing
// and are skipped.
func (a *API) writeStageMetrics(w io.Writer, metric, help string, pick func(*Pool) (*serve.Histogram, string)) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", metric, help, metric)
	for _, name := range a.fleet.Names() {
		h, engine := pick(a.fleet.Pool(name))
		if engine == "" {
			continue
		}
		serve.WriteHistogram(w, metric, fmt.Sprintf("pool=%q,engine=%q", name, engine), h)
	}
}
