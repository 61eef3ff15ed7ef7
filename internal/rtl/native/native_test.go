package native_test

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/suite"

	_ "repro/internal/rtl/native"
)

// TestRegistryCoversSuiteShapes asserts the checked-in generated code
// is exactly the set of netlist shapes the production flows build on
// all 7 benchmarks, each built through the core constructor the flows
// call: the all-witness slice, the timing cone of a design that takes
// ground truth from it (every design but the certified aes and sha,
// which take it from the all-witness slice, see core.GroundTruth), the
// slice trained at the canonical seed 42 and the slice a quick lab
// trains (the first exp.QuickJobs seed-42 training jobs). It fails on
// a flow shape with
// no generated simulator — internal/rtl/native is stale: regenerate
// with `go generate ./internal/rtl/native` — and on a generated
// simulator that no flow builds.
func TestRegistryCoversSuiteShapes(t *testing.T) {
	built := map[string]bool{} // fingerprints of every flow shape
	names := map[string]bool{} // every flow shape's name, as cmd/rtlgen labels it
	for _, spec := range suite.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ins, err := instrument.Instrument(spec.Build())
			if err != nil {
				t.Fatal(err)
			}
			all, err := core.AllWitnessSlice(ins)
			if err != nil {
				t.Fatal(err)
			}
			truth, certified, err := core.GroundTruth(ins, all)
			if err != nil {
				t.Fatal(err)
			}
			if certified != (spec.Name == "aes" || spec.Name == "sha") {
				t.Fatalf("certified = %v; only aes and sha take ground truth from the all-witness slice", certified)
			}
			trained, err := core.Train(spec, core.Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			quickJobs := spec.TrainJobs(42)
			if len(quickJobs) > exp.QuickJobs {
				quickJobs = quickJobs[:exp.QuickJobs]
			}
			quick, err := core.Train(spec, core.Options{Seed: 42, TrainJobs: quickJobs})
			if err != nil {
				t.Fatal(err)
			}
			type shape struct {
				suffix string
				m      *rtl.Module
			}
			shapes := []shape{
				{"_slice_all", all.M},
				{"_slice_t42", trained.Slice.M},
				{"_slice_quick", quick.Slice.M},
			}
			if !certified {
				shapes = append(shapes, shape{"_cone", truth.M})
			}
			for _, shape := range shapes {
				name := spec.Name + shape.suffix
				names[name] = true
				built[rtl.Fingerprint(shape.m)] = true
				if _, ok := rtl.NativeStepFor(shape.m); !ok {
					t.Errorf("%s: no generated simulator (registry stale? run go generate ./internal/rtl/native)", name)
				}
			}
		})
	}
	registered := rtl.NativeNames()
	for _, name := range registered {
		if !names[name] {
			t.Errorf("generated simulator %s is not a shape any flow builds", name)
		}
	}
	// Each registered name is a flow shape's and each distinct flow
	// shape resolves, so equal counts leave no registered fingerprint
	// that no flow builds.
	if len(registered) != len(built) {
		t.Errorf("%d generated simulators for %d distinct flow shapes", len(registered), len(built))
	}
}

// TestGeneratedCodeMatchesInterpOnSuite is the differential check of
// the emitted (checked-in) code itself, as opposed to the codegen plan
// evaluator the rtl package fuzzes: for every benchmark, real jobs run
// on the generated native sims for the ground-truth simulator (the
// timing cone, or the all-witness slice of a certified design) and the
// trained predictor slice. Each job is stepped one cycle at a time with every
// node value compared on every cycle, then run whole through Run (one
// call of the generated function), and ticks, node values and memories
// must match the interpreter bit-exactly.
func TestGeneratedCodeMatchesInterpOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite run in -short mode")
	}
	for _, spec := range suite.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			pred, err := core.Train(spec, core.Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			jobs := spec.TestJobs(17)
			if len(jobs) > 3 {
				jobs = jobs[:3]
			}
			all, err := core.AllWitnessSlice(pred.Ins)
			if err != nil {
				t.Fatal(err)
			}
			truth, _, err := core.GroundTruth(pred.Ins, all)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*rtl.Module{truth.M, pred.Slice.M} {
				nat := rtl.NewSimEngine(m, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: engine %q, want native (stale registry?)", m.Name, got)
				}
				ref := rtl.NewInterpSim(m)
				sameValues := func(ji int, when string) {
					for id := 0; id < m.NumNodes(); id++ {
						if nv, rv := nat.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); nv != rv {
							t.Fatalf("%s job %d %s node %d (%s): %#x (native) != %#x (interp)",
								m.Name, ji, when, id, m.Nodes[id].Op, nv, rv)
						}
					}
				}
				for ji, job := range jobs {
					for _, s := range []*rtl.Sim{ref, nat} {
						s.Reset()
						for name, data := range job.Mems { //detlint:allow each iteration loads a distinct memory; order-independent
							if err := s.LoadMem(name, data); err != nil {
								t.Fatal(err)
							}
						}
					}
					for done := false; !done; {
						if done = ref.Step(); nat.Step() != done || ref.Cycles() > spec.MaxTicks {
							t.Fatalf("%s job %d cycle %d: done or cycle limit mismatch", m.Name, ji, ref.Cycles())
						}
						sameValues(ji, fmt.Sprintf("cycle %d", ref.Cycles()))
					}
					rt, err := accel.RunJob(ref, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					nt, err := accel.RunJob(nat, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					if nt != rt {
						t.Fatalf("%s job %d: ticks %d (native) != %d (interp)", m.Name, ji, nt, rt)
					}
					sameValues(ji, "after Run")
					for _, mem := range m.Mems {
						nm, rm := nat.Mem(mem.Name), ref.Mem(mem.Name)
						for a := range rm {
							if nm[a] != rm[a] {
								t.Fatalf("%s job %d mem %s[%d]: %#x (native) != %#x (interp)",
									m.Name, ji, mem.Name, a, nm[a], rm[a])
							}
						}
					}
				}
			}
		})
	}
}

// TestServedPredictorsRunNative is the no-fallback guarantee for the
// serving path: predictors trained the way dvfserved trains them must
// run both the hardware slice and the ground-truth simulator (the
// timing cone, or a certified design's all-witness slice) on generated
// code under the native default, at the canonical seed 42 and at
// another seed. The ground truth depends only on the design, so it
// must hit at any seed; the slices trained at seed 7 have
// seed 42's shape. A failure means the checked-in registry is stale for
// a netlist the daemon simulates on every job: regenerate with
// `go generate ./internal/rtl/native`.
func TestServedPredictorsRunNative(t *testing.T) {
	prevEngine := rtl.DefaultEngine()
	defer func() {
		if err := rtl.SetDefaultEngine(prevEngine); err != nil {
			t.Fatal(err)
		}
	}()
	if err := rtl.SetDefaultEngine(rtl.EngineNative); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{42, 7} {
		for _, spec := range suite.All() {
			before := rtl.NativeFallbacks()
			pred, err := core.Train(spec, core.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			js := pred.NewJobSimulator()
			if d := rtl.NativeFallbacks() - before; d != 0 {
				t.Errorf("%s seed %d: NativeFallbacks advanced by %d", spec.Name, seed, d)
			}
			if sl, truth := js.Engines(); sl != rtl.EngineNative || truth != rtl.EngineNative {
				t.Errorf("%s seed %d: slice engine %s, ground-truth engine %s; want native for both",
					spec.Name, seed, sl, truth)
			}
		}
	}
}
