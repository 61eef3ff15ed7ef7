package native_test

import (
	"fmt"
	"testing"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/suite"

	_ "repro/internal/rtl/native"
)

// TestRegistryCoversSuiteShapes asserts the checked-in generated code
// actually resolves for every netlist shape the production flows
// simulate — raw design, instrumented design, pruned twin — on all 7
// benchmarks. A miss here means internal/rtl/native is stale:
// regenerate with `go generate ./internal/rtl/native`.
func TestRegistryCoversSuiteShapes(t *testing.T) {
	for _, spec := range suite.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mods := map[string]*rtl.Module{"raw": spec.Build()}
			ins, err := instrument.Instrument(spec.Build())
			if err != nil {
				t.Fatal(err)
			}
			mods["instrumented"] = ins.M
			featRegs := make([]int, len(ins.Features))
			for i, f := range ins.Features {
				featRegs[i] = f.Witness
			}
			pm, _ := absint.Prune(ins.M, featRegs)
			mods["pruned"] = pm
			for shape, m := range mods { //detlint:allow independent subtests, order immaterial for pass/fail
				s := rtl.NewSimEngine(m, rtl.EngineNative)
				if got := s.Engine(); got != rtl.EngineNative {
					t.Errorf("%s %s: engine %q (registry stale? run go generate ./internal/rtl/native)",
						spec.Name, shape, got)
				}
			}
		})
	}
}

// TestGeneratedCodeMatchesInterpOnSuite is the differential check of
// the emitted (checked-in) code itself, as opposed to the codegen plan
// evaluator the rtl package fuzzes: for every benchmark, real jobs run
// on the generated native sims for the raw design and the trained
// predictor slice. Each job is stepped one cycle at a time with every
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
			for _, m := range []*rtl.Module{spec.Build(), pred.Slice.M} {
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
// run both the hardware slice and the ground-truth
// timing cone on generated code under the native default, at the
// canonical seed 42 and at another seed. The cone depends only on the
// design, so it must hit at any seed; the slices trained at seed 7 have
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
			if sl, full := js.Engines(); sl != rtl.EngineNative || full != rtl.EngineNative {
				t.Errorf("%s seed %d: slice engine %s, timing-cone engine %s; want native for both",
					spec.Name, seed, sl, full)
			}
		}
	}
}
