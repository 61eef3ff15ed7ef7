package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Lock-free metrics primitives for the serving layer. Shard workers
// and the cluster router update them on the hot path; the stats and
// metrics endpoints read them concurrently, so every field is atomic.
// The histogram uses fixed logarithmic buckets, which keeps updates
// allocation-free and makes quantile estimates cheap enough to compute
// on every scrape.

// counter is a monotonically increasing event count.
type counter struct{ v atomic.Uint64 }

func (c *counter) Add(n uint64)  { c.v.Add(n) }
func (c *counter) Value() uint64 { return c.v.Load() }
func (c *counter) Inc()          { c.v.Add(1) }

// gauge is an instantaneous level (queue depth).
type gauge struct{ v atomic.Int64 }

func (g *gauge) Add(d int64)  { g.v.Add(d) }
func (g *gauge) Value() int64 { return g.v.Load() }

// afloat is an atomically accumulated float64 (energy totals).
type afloat struct{ bits atomic.Uint64 }

func (a *afloat) Add(d float64) {
	for {
		old := a.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if a.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (a *afloat) Value() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *afloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

// histBuckets are the upper bounds (seconds) of the latency histogram:
// 24 logarithmic buckets from 10 µs to ~1.3 s plus a +Inf overflow.
// Serving latencies of interest sit between a slice runtime (~100 µs)
// and a few deadlines (~50 ms), which this range brackets comfortably.
var histBuckets = logBuckets(10e-6)

// nsBuckets are the upper bounds (nanoseconds) of the router's
// prediction and ground-truth simulation latency histograms: 24
// logarithmic buckets from 1 µs to ~50 ms plus a +Inf overflow. They
// span a native slice run (a few µs) up to a timing-cone simulation on
// the plan fallback.
var nsBuckets = logBuckets(1000)

// logBuckets returns 24 bucket bounds growing ×1.6 from first.
func logBuckets(first float64) []float64 {
	b := make([]float64, 24)
	for i := range b {
		b[i] = first
		first *= 1.6
	}
	return b
}

// Histogram counts observations into 24 logarithmic buckets plus
// overflow. The zero value uses second-scale buckets (10 µs to ~1.3 s);
// NsHistogram returns one on a nanosecond scale with the same ×1.6
// growth.
type Histogram struct {
	counts  [25]atomic.Uint64 // len(bkts()) + overflow
	total   atomic.Uint64
	sum     afloat
	buckets []float64
}

// NsHistogram returns a histogram over nanosecond-scale buckets (1 µs
// to ~50 ms), for wall-clock simulation latencies.
func NsHistogram() *Histogram { return &Histogram{buckets: nsBuckets} }

// bkts returns the bucket bounds this histogram counts into.
func (h *Histogram) bkts() []float64 {
	if h.buckets == nil {
		return histBuckets
	}
	return h.buckets
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	buckets := h.bkts()
	i := 0
	for i < len(buckets) && v > buckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from bucket counts,
// interpolating linearly within the chosen bucket. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	buckets := h.bkts()
	var seen float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if seen+n >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = buckets[i-1]
			}
			hi := lo * 1.6
			if i < len(buckets) {
				hi = buckets[i]
			}
			frac := (rank - seen) / n
			return lo + frac*(hi-lo)
		}
		seen += n
	}
	return buckets[len(buckets)-1]
}

// Mean returns the average observation, or 0 with none.
func (h *Histogram) Mean() float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return h.sum.Value() / float64(total)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// snapshot returns cumulative bucket counts aligned with bkts() plus
// the overflow bucket, and the observation sum.
func (h *Histogram) snapshot() (cum []uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.sum.Value()
}

// WriteHistogram renders h in the Prometheus text exposition format as
// metric's bucket, sum and count series, each carrying labels (a
// comma-separated label list such as `shard="aes"`). The caller writes
// the HELP and TYPE lines.
func WriteHistogram(w io.Writer, metric, labels string, h *Histogram) {
	cum, sum := h.snapshot()
	for i, b := range h.bkts() {
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", metric, labels, fmt.Sprintf("%g", b), cum[i])
	}
	n := cum[len(cum)-1]
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", metric, labels, n)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", metric, labels, sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", metric, labels, n)
}

// WriteMetrics renders the Prometheus-style text exposition for the
// given shards, in order, labeling every series with the shard's name
// (a cluster replica is a shard named "bench/i").
func WriteMetrics(w io.Writer, shards []*Shard) {
	stats := make([]Stats, len(shards))
	for i, sh := range shards {
		stats[i] = sh.Stats()
	}
	counters := []struct {
		name, help string
		get        func(Stats) uint64
	}{
		{"dvfserved_jobs_done_total", "Completed jobs.", func(s Stats) uint64 { return s.Done }},
		{"dvfserved_jobs_degraded_total", "Jobs served on the max-frequency bypass.", func(s Stats) uint64 { return s.Degraded }},
		{"dvfserved_job_errors_total", "Jobs that failed without executing.", func(s Stats) uint64 { return s.Errors }},
		{"dvfserved_degraded_wait_total", "Degraded jobs triggered by queue wait.", func(s Stats) uint64 { return s.DegradedWait }},
		{"dvfserved_degraded_budget_total", "Degraded jobs triggered by exhausted budget.", func(s Stats) uint64 { return s.DegradedBudget }},
		{"dvfserved_degraded_stall_total", "Degraded jobs triggered by stall-retry exhaustion.", func(s Stats) uint64 { return s.DegradedStall }},
		{"dvfserved_stalled_attempts_total", "Prediction attempts that timed out.", func(s Stats) uint64 { return s.Stalled }},
		{"dvfserved_stall_retries_total", "Retries provoked by stalled attempts.", func(s Stats) uint64 { return s.Retries }},
		{"dvfserved_jobs_handed_off_total", "Queued jobs handed back at drain or crash horizon.", func(s Stats) uint64 { return s.HandedOff }},
		{"dvfserved_deadline_misses_total", "Arrival-relative deadline misses.", func(s Stats) uint64 { return s.Misses }},
		{"dvfserved_serving_misses_total", "Misses attributable to queue wait.", func(s Stats) uint64 { return s.ServingMisses }},
		{"dvfserved_fault_misses_total", "Misses attributable to injected stall delays.", func(s Stats) uint64 { return s.FaultMisses }},
		{"dvfserved_dvfs_switches_total", "Charged DVFS transitions.", func(s Stats) uint64 { return s.Switches }},
		{"dvfserved_bound_clamps_total", "Predictions clamped into static cycle bounds.", func(s Stats) uint64 { return s.BoundClamps }},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
		for _, st := range stats {
			fmt.Fprintf(w, "%s{shard=%q} %d\n", c.name, st.Name, c.get(st))
		}
	}
	fmt.Fprintf(w, "# HELP dvfserved_energy_joules_total Total job energy.\n# TYPE dvfserved_energy_joules_total counter\n")
	for _, st := range stats {
		fmt.Fprintf(w, "dvfserved_energy_joules_total{shard=%q} %g\n", st.Name, st.Energy)
	}
	fmt.Fprintf(w, "# HELP dvfserved_queue_depth Jobs queued or executing.\n# TYPE dvfserved_queue_depth gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "dvfserved_queue_depth{shard=%q} %d\n", st.Name, st.QueueDepth)
	}
	fmt.Fprintf(w, "# HELP dvfserved_model_version Live model version (0 = offline-trained).\n# TYPE dvfserved_model_version gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "dvfserved_model_version{shard=%q} %d\n", st.Name, st.ModelVersion)
	}
	fmt.Fprintf(w, "# HELP dvfserved_latency_seconds Total job latency (queue wait + service).\n# TYPE dvfserved_latency_seconds histogram\n")
	for _, sh := range shards {
		WriteHistogram(w, "dvfserved_latency_seconds", fmt.Sprintf("shard=%q", sh.Name()), &sh.latHist)
	}
}
