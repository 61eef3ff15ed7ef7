// Command dvfserved runs the online DVFS serving layer: it trains the
// paper's predictor for each requested benchmark and serves each
// accelerator through a replica pool (package cluster): a router that
// runs the slice prediction once per job — with the stall watchdog,
// retries and degradation — and places the job on one of N replica
// shards (bounded queue, slice-driven frequency governor, deadline
// tracking, graceful max-frequency degradation). The default is one
// replica per accelerator under the predict policy. It exposes an HTTP
// JSON API plus a metrics endpoint.
//
// Usage:
//
//	dvfserved [-addr :8437] [-seed N] [-quick] [-benchmarks h264,aes]
//	          [-queue N] [-degrade-wait-ms F] [-boost] [-deadline-ms F]
//	          [-workers N] [-engine E]
//	          [-job-timeout-ms F] [-job-retries N]
//	          [-retry-backoff-ms F] [-stall-penalty-ms F]
//	          [-faults SPEC] [-fault-seed N]
//	          [-online] [-drift-window N] [-canary-window N]
//	          [-replicas N] [-router predict|pressure|hash]
//	          [-autoscale-max N] [-autoscale-window N] [-max-backlog N]
//
// Endpoints:
//
//	GET  /healthz        liveness probe
//	GET  /v1/benchmarks  served accelerators
//	GET  /v1/stats       per-pool stats: router counters and replicas (JSON)
//	GET  /v1/cluster     alias of /v1/stats
//	GET  /v1/model       live model per pool: version, β, trainer counters
//	POST /v1/jobs        submit a generated job stream; returns once routed
//	POST /v1/drain       block until queues drain
//	POST /v1/retire      drain-with-handoff one replica now
//	GET  /metrics        counters and histograms (text exposition)
//
// Example session:
//
//	dvfserved -quick -benchmarks aes &
//	curl -s localhost:8437/v1/benchmarks
//	curl -s -X POST localhost:8437/v1/jobs \
//	     -d '{"bench":"aes","count":32,"seed":7}'
//	curl -s -X POST localhost:8437/v1/drain
//	curl -s localhost:8437/v1/stats
//	curl -s localhost:8437/metrics | grep deadline_misses
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/online"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/suite"
)

func main() {
	fleet, handler, addr, err := setup(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	defer fleet.Close()
	fmt.Printf("dvfserved: listening on %s, serving %v\n", addr, fleet.Names())
	if err := http.ListenAndServe(addr, handler); err != nil {
		fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
		os.Exit(1)
	}
}

// errUsage marks setup errors caused by the command line (exit 2).
var errUsage = errors.New("usage")

func usage(err error) error { return fmt.Errorf("%w: %v", errUsage, err) }

// setup parses args, trains the predictors, and builds the fleet and
// its HTTP handler; it also installs the process-wide fault injector,
// worker count and engine the flags select. Progress goes
// to stdout, warnings to stderr.
func setup(args []string, stdout, stderr io.Writer) (*cluster.Fleet, http.Handler, string, error) {
	fs := flag.NewFlagSet("dvfserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8437", "HTTP listen address")
	seed := fs.Int64("seed", 42, "workload/training seed")
	quick := fs.Bool("quick", false, "trim training workloads for a fast start")
	benches := fs.String("benchmarks", "", "comma-separated benchmarks to serve (default: all)")
	queueDepth := fs.Int("queue", serve.DefaultQueueDepth, "per-replica queue depth (backpressure on the router)")
	degradeMs := fs.Float64("degrade-wait-ms", 0, "queue wait (ms) beyond which jobs run at max frequency without prediction (0 = half the deadline, <0 disables)")
	boost := fs.Bool("boost", false, "allow the 1.08 V emergency boost level")
	deadlineMs := fs.Float64("deadline-ms", exp.Deadline*1e3, "per-job deadline in milliseconds")
	workers := fs.Int("workers", 0, "parallel training workers (0 = GOMAXPROCS)")
	engine := fs.String("engine", "", "RTL engine: native or interp (default: native, or $REPRO_ENGINE)")
	jobTimeoutMs := fs.Float64("job-timeout-ms", 0, "wall-clock watchdog per prediction attempt in ms (0 disables)")
	jobRetries := fs.Int("job-retries", 1, "retries for a stalled prediction attempt before degrading")
	retryBackoffMs := fs.Float64("retry-backoff-ms", 1, "wall-clock backoff before the first retry in ms, doubling per attempt")
	stallPenaltyMs := fs.Float64("stall-penalty-ms", 0, "virtual time charged per stalled attempt in ms (0 = the job timeout)")
	faults := fs.String("faults", "", `fault-injection spec, e.g. "serve.stall=0.1,core.job=0.05" (empty disables)`)
	faultSeed := fs.Int64("fault-seed", 1, "seed for the injected fault schedule")
	onlineLearn := fs.Bool("online", false, "enable online learning at each pool's router: drift detection, background refit, canary hot-swap")
	driftWindow := fs.Int("drift-window", 64, "online: drift-monitor evaluation window in observations")
	canaryWindow := fs.Int("canary-window", 64, "online: canary shadow-prediction window in observations")
	replicas := fs.Int("replicas", 1, "replicas per accelerator behind the router")
	router := fs.String("router", "predict", "routing policy: predict (place at lowest energy, shed when no replica meets the deadline), pressure (least queue wait, never sheds), or hash")
	autoscaleMax := fs.Int("autoscale-max", 0, "autoscale replicas up to this count (0 disables; min is -replicas)")
	autoscaleWindow := fs.Int("autoscale-window", 64, "autoscaler evaluation window in submissions")
	maxBacklog := fs.Int("max-backlog", 0, "per-replica virtual backlog bound in jobs (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return nil, nil, "", usage(err)
	}

	routePolicy, err := cluster.ParsePolicy(*router)
	if err != nil {
		return nil, nil, "", usage(err)
	}
	var injector *fault.Injector
	if *faults != "" {
		injector, err = fault.Parse(*faultSeed, *faults)
		if err != nil {
			return nil, nil, "", usage(err)
		}
		// One injector serves every subsystem: the routers key stalls by
		// pool name, training by job id — the sites never collide.
		core.SetFaultInjector(injector)
		fmt.Fprintf(stdout, "dvfserved: %s\n", injector)
	}

	core.SetWorkers(*workers)
	if *engine != "" {
		if err := rtl.SetDefaultEngine(rtl.Engine(*engine)); err != nil {
			return nil, nil, "", usage(err)
		}
	}

	names := suite.Names()
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	var onlineCfg *online.Config
	if *onlineLearn {
		onlineCfg = &online.Config{DriftWindow: *driftWindow, CanaryWindow: *canaryWindow}
	}
	var scale *cluster.AutoscaleConfig
	if *autoscaleMax > 0 {
		scale = &cluster.AutoscaleConfig{Min: *replicas, Max: *autoscaleMax, Window: *autoscaleWindow}
	}

	lab := exp.NewLab(*seed)
	lab.Quick = *quick
	fleet := cluster.NewFleet()
	var offNative []string
	for _, name := range names {
		name = strings.TrimSpace(name)
		entry, err := lab.Entry(name)
		if err != nil {
			fleet.Close()
			return nil, nil, "", fmt.Errorf("train %s: %w", name, err)
		}
		if sl, full := entry.Pred.Engines(); sl != rtl.EngineNative || full != rtl.EngineNative {
			offNative = append(offNative, fmt.Sprintf("%s (slice %s, full design %s)", name, sl, full))
		}
		if _, err := fleet.AddPool(cluster.Config{
			Shard: serve.ShardConfig{
				Name: name,
				Profile: serve.Profile{
					Pred:       entry.Pred,
					Device:     dvfs.ASIC(entry.Pred.Spec.NominalHz, *boost),
					Power:      entry.Power,
					SlicePower: entry.SlicePower,
					Deadline:   *deadlineMs * 1e-3,
					Margin:     exp.PredictiveMargin,
					AllowBoost: *boost,
				},
				QueueDepth:   *queueDepth,
				DegradeWait:  *degradeMs * 1e-3,
				JobTimeout:   time.Duration(*jobTimeoutMs * float64(time.Millisecond)),
				MaxRetries:   *jobRetries,
				RetryBackoff: time.Duration(*retryBackoffMs * float64(time.Millisecond)),
				StallPenalty: *stallPenaltyMs * 1e-3,
				Faults:       injector,
				Online:       onlineCfg,
			},
			Replicas:   *replicas,
			Policy:     routePolicy,
			MaxBacklog: *maxBacklog,
			Autoscale:  scale,
		}); err != nil {
			fleet.Close()
			return nil, nil, "", err
		}
		fmt.Fprintf(stdout, "dvfserved: pool %s ready, %d %s-routed replica(s) (%s)\n",
			name, *replicas, routePolicy.Name(), entry.Pred.Spec.Description)
	}
	if len(offNative) > 0 && rtl.DefaultEngine() == rtl.EngineNative {
		// The generated-simulator registry is stale for these netlists:
		// they run on the plan fallback, several times slower.
		fmt.Fprintf(stderr, "dvfserved: native engine fell back to the plan for %s; %d native fallbacks (regenerate with go generate ./internal/rtl/native)\n",
			strings.Join(offNative, ", "), rtl.NativeFallbacks())
	}
	return fleet, cluster.NewAPI(fleet, suiteSource).Handler(), *addr, nil
}

// suiteSource generates request payloads by cycling the benchmark's
// test-job pool.
func suiteSource(bench string, n int, jobSeed int64) ([]accel.Job, error) {
	spec, err := suite.ByName(bench)
	if err != nil {
		return nil, err
	}
	pool := spec.TestJobs(jobSeed)
	if len(pool) == 0 {
		return nil, fmt.Errorf("no jobs for %s", bench)
	}
	jobs := make([]accel.Job, n)
	for i := range jobs {
		jobs[i] = pool[i%len(pool)]
	}
	return jobs, nil
}
