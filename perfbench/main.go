// Command perfbench is the repository's benchmark. It drives jobs
// through the serving path of the paper's §3.6 loop — trained
// predictors behind predict-then-place cluster pools — and through the
// offline paper pipeline (exp.Lab), checks what they produce, and
// prints one JSON result line last. README.md in this directory
// describes every workload and metric.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics. --trace 1 adds traced
// passes and standalone layer probes and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/rtl"
)

// namedWorkload is one named set of benchmark inputs.
type namedWorkload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []namedWorkload{
	{"serve-mixed", runServeMixed},
	{"fleet-replay", runFleetReplay},
	{"offline-paper", runOfflinePaper},
	{"serve-drift", runServeDrift},
}

// config is one invocation. scale, quick and setups exist so the
// package's own test can run every workload at a tiny size; the command
// always uses the full sizes.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// scale multiplies every pass's job count.
	scale float64
	// quick trims training sets and test pools the way exp.Lab.Quick does.
	quick bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// perPass scales a full-size job count, keeping at least one job.
func (c config) perPass(n int) int {
	if m := int(float64(n) * c.scale); m > 0 {
		return m
	}
	return 1
}

type nameUnit struct{ name, unit string }

// endToEndUnits and perLayerUnits list every metric by name and unit, in
// the order README.md documents them.
var endToEndUnits = []nameUnit{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_us", "us"},
	{"job_p99_us", "us"},
	{"peak_heap_mb", "MB"},
	{"energy_mj_per_job", "mJ"},
	{"miss_rate", "ratio"},
	{"energy_savings_pct", "%"},
	{"pred_under_pct", "%"},
}

var perLayerUnits = []nameUnit{
	{"rtl.full_us", "us"},
	{"rtl.slice_us", "us"},
	{"rtl.full_ns_per_tick", "ns"},
	{"rtl.full_ticks_per_job", "count"},
	{"rtl.slice_ticks_per_job", "count"},
	{"rtl.native_fallbacks", "count"},
	{"core.trace_us", "us"},
	{"core.predict_ns", "ns"},
	{"core.train_s", "s"},
	{"core.collect_s", "s"},
	{"core.bound_clamps", "count"},
	{"core.sim_jobs", "count"},
	{"analyze.s", "s"},
	{"lint.s", "s"},
	{"instrument.s", "s"},
	{"absint.s", "s"},
	{"model.fit_s", "s"},
	{"slice.s", "s"},
	{"exp.replay_s", "s"},
	{"sim.step_ns", "ns"},
	{"sim.project_ns", "ns"},
	{"dvfs.select_ns", "ns"},
	{"cluster.submit_us", "us"},
	{"cluster.shed", "count"},
	{"cluster.intrinsic", "count"},
	{"serve.host_wait_us", "us"},
	{"serve.virtual_wait_p99_ms", "virtual_ms"},
	{"serve.degraded", "count"},
	{"serve.switches", "count"},
	{"online.observe_us", "us"},
	{"online.retrains", "count"},
	{"online.promotions", "count"},
	{"online.canary_rejects", "count"},
	{"go.alloc_kb_per_job", "KB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_s", "s"},
	{"trace.coverage", "ratio"},
}

// report is what a workload run returns: every metric value by name,
// the output checks that failed, and the traced spans to write out.
type report struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	spans             []*spans
	// walls lists every timed pass's host time, traced ones included.
	walls []float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the metrics of the mode; a metric the workload did not
// produce, or one that is not a finite number, is a benchmark bug.
func (r *report) result(trace bool) (result, error) {
	units := endToEndUnits
	if trace {
		units = perLayerUnits
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, nu := range units {
		v, ok := r.values[nu.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", nu.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", nu.name, v)
		}
		res.Metrics[nu.name] = metric{Value: v, Unit: nu.unit}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no job was attempted")
	}
	return res, nil
}

// write prints the spans and failed checks as comment lines, then the
// JSON result as the last line.
func (r *report) write(w io.Writer, trace bool) error {
	res, err := r.result(trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# passes wall_s=%.4f\n", r.walls)
	for _, sp := range r.spans {
		sp.write(w)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# check failed: %s\n", f)
	}
	fmt.Fprintf(w, "# engine native_fallbacks=%d after the run\n", rtl.NativeFallbacks())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Float64("seconds", 10, "host seconds the timed phase keeps starting passes for")
	trace := flag.Int("trace", 0, "1 adds traced passes and reports the per-layer metrics")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds >= 0) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, setups: 3}
	printEnv(os.Stdout, w.name, cfg)
	rep, err := w.run(cfg)
	if err == nil {
		err = rep.write(os.Stdout, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

func lookup(name string) (namedWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return namedWorkload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// printEnv records what the numbers depend on: the host, the Go
// runtime, the commit, the engine every simulator resolves to, and any
// REPRO_* variable that changes the program's behaviour.
func printEnv(w io.Writer, name string, cfg config) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# host %s/%s cpus=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintf(w, "# engine default=%s native_fallbacks=%d\n", rtl.DefaultEngine(), rtl.NativeFallbacks())
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "REPRO_") {
			env = append(env, kv)
		}
	}
	sort.Strings(env)
	for _, kv := range env {
		fmt.Fprintf(w, "# env %s\n", kv)
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a checkout without .git has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
