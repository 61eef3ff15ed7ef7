// Command dvfserved runs the online DVFS serving layer: it trains the
// paper's predictor for each requested benchmark, builds one serving
// shard per accelerator (bounded queue, slice-driven frequency
// governor, deadline tracking, graceful max-frequency degradation),
// and exposes an HTTP JSON API plus a metrics endpoint.
//
// Usage:
//
//	dvfserved [-addr :8437] [-seed N] [-quick] [-benchmarks h264,aes]
//	          [-queue N] [-degrade-wait-ms F] [-boost] [-deadline-ms F]
//	          [-workers N] [-engine E] [-cachedir DIR]
//	          [-overflow shed|degrade] [-job-timeout-ms F] [-job-retries N]
//	          [-retry-backoff-ms F] [-stall-penalty-ms F]
//	          [-faults SPEC] [-fault-seed N]
//	          [-online] [-drift-window N] [-canary-window N]
//	          [-replicas N] [-router predict|pressure|hash]
//	          [-autoscale-max N] [-autoscale-window N] [-max-backlog N]
//
// With -replicas > 1 (or any -router) the daemon runs in cluster mode:
// N replicas per accelerator behind a predict-then-place router (see
// package cluster), adding /v1/cluster and /v1/retire endpoints.
//
// Endpoints:
//
//	GET  /healthz        liveness probe
//	GET  /v1/benchmarks  served accelerators
//	GET  /v1/stats       per-shard stats (JSON)
//	GET  /v1/model       live model per shard: version, β, trainer counters
//	POST /v1/jobs        submit a generated job stream
//	POST /v1/drain       block until queues drain
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
	"flag"
	"fmt"
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
	"repro/internal/tracecache"
)

func main() {
	addr := flag.String("addr", ":8437", "HTTP listen address")
	seed := flag.Int64("seed", 42, "workload/training seed")
	quick := flag.Bool("quick", false, "trim training workloads for a fast start")
	benches := flag.String("benchmarks", "", "comma-separated benchmarks to serve (default: all)")
	queueDepth := flag.Int("queue", serve.DefaultQueueDepth, "per-shard admission queue depth")
	degradeMs := flag.Float64("degrade-wait-ms", 0, "queue wait (ms) beyond which jobs run at max frequency without prediction (0 = half the deadline, <0 disables)")
	boost := flag.Bool("boost", false, "allow the 1.08 V emergency boost level")
	deadlineMs := flag.Float64("deadline-ms", exp.Deadline*1e3, "per-job deadline in milliseconds")
	workers := flag.Int("workers", 0, "parallel training workers (0 = GOMAXPROCS)")
	engine := flag.String("engine", "", "RTL engine: native, compiled, or interp (default: native, or $REPRO_ENGINE)")
	cacheDir := flag.String("cachedir", os.Getenv("REPRO_CACHE_DIR"),
		"persistent trace cache directory (default: $REPRO_CACHE_DIR; empty disables)")
	overflow := flag.String("overflow", "shed", "full-queue policy: shed (reject excess) or degrade (reject and run the backlog at max frequency)")
	jobTimeoutMs := flag.Float64("job-timeout-ms", 0, "wall-clock watchdog per prediction attempt in ms (0 disables)")
	jobRetries := flag.Int("job-retries", 1, "retries for a stalled prediction attempt before degrading")
	retryBackoffMs := flag.Float64("retry-backoff-ms", 1, "wall-clock backoff before the first retry in ms, doubling per attempt")
	stallPenaltyMs := flag.Float64("stall-penalty-ms", 0, "virtual time charged per stalled attempt in ms (0 = the job timeout)")
	faults := flag.String("faults", "", `fault-injection spec, e.g. "serve.stall=0.1,tracecache.read=0.05" (empty disables)`)
	faultSeed := flag.Int64("fault-seed", 1, "seed for the injected fault schedule")
	onlineLearn := flag.Bool("online", false, "enable online learning: drift detection, background refit, canary hot-swap (per shard, or at the router in cluster mode)")
	driftWindow := flag.Int("drift-window", 64, "online: drift-monitor evaluation window in observations")
	canaryWindow := flag.Int("canary-window", 64, "online: canary shadow-prediction window in observations")
	replicas := flag.Int("replicas", 1, "replicas per accelerator; >1 enables cluster mode (predict-then-place router)")
	router := flag.String("router", "", "cluster routing policy: predict, pressure, or hash (implies cluster mode)")
	autoscaleMax := flag.Int("autoscale-max", 0, "cluster mode: autoscale replicas up to this count (0 disables; min is -replicas)")
	autoscaleWindow := flag.Int("autoscale-window", 64, "cluster mode: autoscaler evaluation window in submissions")
	maxBacklog := flag.Int("max-backlog", 0, "cluster mode: per-replica virtual backlog bound in jobs (0 = unbounded)")
	flag.Parse()

	policy, err := serve.ParseOverflowPolicy(*overflow)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
		os.Exit(2)
	}
	var injector *fault.Injector
	if *faults != "" {
		injector, err = fault.Parse(*faultSeed, *faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
			os.Exit(2)
		}
		// One injector serves every subsystem: serving shards key by
		// shard name, the cache by entry key, training by job id — the
		// sites never collide.
		core.SetFaultInjector(injector)
		fmt.Printf("dvfserved: %s\n", injector)
	}

	core.SetWorkers(*workers)
	if *engine != "" {
		e, err := rtl.ParseEngine(*engine)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
			os.Exit(2)
		}
		rtl.SetDefaultEngine(e)
	}
	if *cacheDir != "" {
		cache, err := tracecache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
			os.Exit(1)
		}
		cache.SetFaults(injector)
		core.SetTraceCache(cache)
	}

	names := suite.Names()
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	lab := exp.NewLab(*seed)
	lab.Quick = *quick
	var onlineCfg *online.Config
	if *onlineLearn {
		onlineCfg = &online.Config{DriftWindow: *driftWindow, CanaryWindow: *canaryWindow}
	}
	var offNative []string
	shardCfg := func(name string) (serve.ShardConfig, string, error) {
		entry, err := lab.Entry(name)
		if err != nil {
			return serve.ShardConfig{}, "", err
		}
		if sl, full := entry.Pred.Engines(); sl != rtl.EngineNative || full != rtl.EngineNative {
			offNative = append(offNative, fmt.Sprintf("%s (slice %s, full design %s)", name, sl, full))
		}
		return serve.ShardConfig{
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
			Overflow:     policy,
			JobTimeout:   time.Duration(*jobTimeoutMs * float64(time.Millisecond)),
			MaxRetries:   *jobRetries,
			RetryBackoff: time.Duration(*retryBackoffMs * float64(time.Millisecond)),
			StallPenalty: *stallPenaltyMs * 1e-3,
			Faults:       injector,
			Online:       onlineCfg,
		}, entry.Pred.Spec.Description, nil
	}
	source := func(bench string, n int, jobSeed int64) ([]accel.Job, error) {
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

	var handler http.Handler
	if *replicas > 1 || *router != "" {
		// Cluster mode: N replicas per accelerator behind the
		// predict-then-place router.
		routePolicy, err := cluster.ParsePolicy(*router)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
			os.Exit(2)
		}
		var scale *cluster.AutoscaleConfig
		if *autoscaleMax > 0 {
			scale = &cluster.AutoscaleConfig{Min: *replicas, Max: *autoscaleMax, Window: *autoscaleWindow}
		}
		fleet := cluster.NewFleet()
		for _, name := range names {
			name = strings.TrimSpace(name)
			cfg, desc, err := shardCfg(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvfserved: train %s: %v\n", name, err)
				os.Exit(1)
			}
			if _, err := fleet.AddPool(cluster.Config{
				Shard:      cfg,
				Replicas:   *replicas,
				Policy:     routePolicy,
				MaxBacklog: *maxBacklog,
				Autoscale:  scale,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("dvfserved: pool %s ready, %d %s-routed replicas (%s)\n", name, *replicas, routePolicy.Name(), desc)
		}
		handler = cluster.NewAPI(fleet, source).Handler()
		fmt.Printf("dvfserved: listening on %s, cluster mode, serving %v\n", *addr, fleet.Names())
	} else {
		srv := serve.NewServer()
		for _, name := range names {
			name = strings.TrimSpace(name)
			cfg, desc, err := shardCfg(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvfserved: train %s: %v\n", name, err)
				os.Exit(1)
			}
			if _, err := srv.AddShard(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("dvfserved: shard %s ready (%s)\n", name, desc)
		}
		handler = serve.NewAPI(srv, source).Handler()
		fmt.Printf("dvfserved: listening on %s, serving %v\n", *addr, srv.Names())
	}
	if len(offNative) > 0 && rtl.DefaultEngine() == rtl.EngineNative {
		// The generated-simulator registry is stale for these netlists:
		// they run on the compiled fallback, several times slower.
		fmt.Fprintf(os.Stderr, "dvfserved: native engine fell back to compiled for %s; %d native fallbacks (regenerate with go generate ./internal/rtl/native)\n",
			strings.Join(offNative, ", "), rtl.NativeFallbacks())
	}
	if err := http.ListenAndServe(*addr, handler); err != nil {
		fmt.Fprintf(os.Stderr, "dvfserved: %v\n", err)
		os.Exit(1)
	}
}
