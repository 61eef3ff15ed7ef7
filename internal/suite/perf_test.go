package suite

import (
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
)

// TestNativeEngineNoRegression guards the native (codegen) engine's
// reason to exist: single-job latency, the quantity that matters on
// the serving path where a prediction runs inline before each job.
// Aggregate single-job throughput (ground truth + all-witness slice per
// job, the shapes core.CollectTraces runs) across the whole suite must
// comfortably beat the codegen plan the native fallback runs (BENCH_sim.json
// native_vs_plan); the aggregate floor here is 2x so only a real
// regression — not scheduler noise on a loaded runner — can trip it. Skipped under -short: it measures wall-clock
// on purpose.
func TestNativeEngineNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped with -short")
	}
	const floor = 2.0
	type pair struct {
		plan, native *rtl.Sim
		job          accel.Job
		max          uint64
	}
	var pairs []pair
	for _, spec := range All() {
		job := spec.TestJobs(3)[0]
		for _, m := range truthAndSlice(t, spec) {
			nat := rtl.NewSimEngine(m, rtl.EngineNative)
			if got := nat.Engine(); got != rtl.EngineNative {
				t.Fatalf("%s: native sim reports %q — regenerate internal/rtl/native", m.Name, got)
			}
			pairs = append(pairs, pair{
				plan:   rtl.NewNativeSim(m, codegen.Build(m).Step),
				native: nat,
				job:    job,
				max:    spec.MaxTicks,
			})
		}
	}
	run := func(pick func(p *pair) *rtl.Sim) float64 {
		// Best of three passes, one warm-up job per sim inside each.
		best := 0.0
		jobs := 0
		for p := 0; p < 3; p++ {
			start := time.Now() //detlint:allow perf guard measures wall-clock by design
			n := 0
			for i := range pairs {
				if _, err := accel.RunJob(pick(&pairs[i]), pairs[i].job, pairs[i].max); err != nil {
					t.Fatal(err)
				}
				n++
			}
			if s := time.Since(start).Seconds(); best == 0 || s < best {
				best, jobs = s, n
			}
		}
		return float64(jobs) / best
	}
	planJPS := run(func(p *pair) *rtl.Sim { return p.plan })
	nativeJPS := run(func(p *pair) *rtl.Sim { return p.native })
	ratio := nativeJPS / planJPS
	t.Logf("plan %.0f jobs/s, native %.0f jobs/s, aggregate ratio %.2fx", planJPS, nativeJPS, ratio)
	if ratio < floor {
		t.Errorf("native single-job throughput only %.2fx the plan across the suite (floor %.1fx)", ratio, floor)
	}
}

// TestBatchEngineNoRegression guards bulk trace collection per
// benchmark, the job the deleted batch engine did before native beat
// it: collecting one trace (ground truth + all-witness slice, the
// shapes of the work core.CollectTraces does per job) on the native
// engine must comfortably beat the plan fallback on every benchmark,
// not just in the suite aggregate that TestNativeEngineNoRegression checks
// (BENCH_sim.json native_vs_plan); the floor here is 1.5x so only a
// real regression — or a benchmark silently falling back — can trip it.
// Skipped under -short: it measures wall-clock on purpose.
func TestBatchEngineNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped with -short")
	}
	const floor = 1.5
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mods := truthAndSlice(t, spec)
			job := spec.TestJobs(3)[0]
			collector := func(sim func(*rtl.Module) *rtl.Sim) func() {
				var sims []*rtl.Sim
				for _, m := range mods {
					sims = append(sims, sim(m))
				}
				return func() {
					for _, s := range sims {
						if _, err := accel.RunJob(s, job, spec.MaxTicks); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			runPlan := collector(func(m *rtl.Module) *rtl.Sim { return rtl.NewNativeSim(m, codegen.Build(m).Step) })
			runNative := collector(func(m *rtl.Module) *rtl.Sim {
				s := rtl.NewSimEngine(m, rtl.EngineNative)
				if got := s.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: native sim reports %q", m.Name, got)
				}
				return s
			})
			// Each pass repeats traces for at least 20 ms, so one
			// scheduler blip cannot dominate a pass even on the smallest
			// design; the engines alternate passes so a load shift hits
			// both, and the best of five passes per engine counts.
			pass := func(run func()) float64 {
				start := time.Now() //detlint:allow perf guard measures wall-clock by design
				n := 0
				for time.Since(start) < 20*time.Millisecond {
					run()
					n++
				}
				return float64(n) / time.Since(start).Seconds()
			}
			runPlan()
			runNative()
			planJPS, nativeJPS := 0.0, 0.0
			for p := 0; p < 5; p++ {
				planJPS = max(planJPS, pass(runPlan))
				nativeJPS = max(nativeJPS, pass(runNative))
			}
			ratio := nativeJPS / planJPS
			t.Logf("plan %.0f traces/s, native %.0f traces/s, ratio %.2fx", planJPS, nativeJPS, ratio)
			if ratio < floor {
				t.Errorf("native trace collection only %.2fx the plan on %s (floor %.1fx)",
					ratio, spec.Name, floor)
			}
		})
	}
}
