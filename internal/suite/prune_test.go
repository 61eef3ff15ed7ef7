package suite

import (
	"testing"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/slice"
)

// TestPrunedFullDesignMatchesOnSuite is the differential gate for
// absint pruning on the real benchmarks: for every instrumented
// design, the pruned twin must reproduce the unpruned interpreter's
// observables bit-exactly on real jobs — tick count, every feature
// witness register, and every surviving memory — under interp and
// the codegen plan (the native fallback). No flow simulates the pruned
// twin, so it has no generated native code; the generated code is
// checked against the interpreter on the shapes the flows build
// (TestEnginesMatchOnSuite).
func TestPrunedFullDesignMatchesOnSuite(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ins, err := instrument.Instrument(spec.Build())
			if err != nil {
				t.Fatal(err)
			}
			keep := make([]int, len(ins.Features))
			for i, f := range ins.Features {
				keep[i] = f.Witness
			}
			pm, regMap := absint.Prune(ins.M, keep)
			if err := pm.Validate(); err != nil {
				t.Fatalf("pruned module invalid: %v", err)
			}
			witness := make([]int, len(keep))
			for i, ri := range keep {
				ni, ok := regMap[ri]
				if !ok {
					t.Fatalf("witness register %d (%s) pruned away", ri, ins.Features[i].Name)
				}
				witness[i] = ni
			}
			t.Logf("%s: %d -> %d nodes, %d -> %d regs",
				spec.Name, len(ins.M.Nodes), len(pm.Nodes), len(ins.M.Regs), len(pm.Regs))

			jobs := spec.TestJobs(17)
			if len(jobs) > 3 {
				jobs = jobs[:3]
			}
			engines := []struct {
				name string
				s    *rtl.Sim
			}{
				{"interp", rtl.NewInterpSim(pm)},
				{"plan", rtl.NewNativeSim(pm, codegen.Build(pm).Step)},
			}
			ref := rtl.NewInterpSim(ins.M)
			for ji, job := range jobs {
				rt, err := accel.RunJob(ref, job, spec.MaxTicks)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					pt, err := accel.RunJob(e.s, job, spec.MaxTicks)
					if err != nil {
						t.Fatalf("job %d (%s, pruned): %v", ji, e.name, err)
					}
					if pt != rt {
						t.Fatalf("job %d: %d ticks (%s, pruned) != %d (interp, unpruned)", ji, pt, e.name, rt)
					}
					comparePrunedObservables(t, ins, pm, keep, witness, ref, e.s, e.name, ji)
				}
			}
		})
	}
}

// comparePrunedObservables checks witness registers and surviving
// memories of a finished pruned run against the unpruned reference.
func comparePrunedObservables(t *testing.T, ins *instrument.Instrumented, pm *rtl.Module,
	keep, witness []int, ref, ps *rtl.Sim, engine string, ji int) {
	t.Helper()
	for i, ri := range keep {
		if rv, pv := ref.RegValue(ri), ps.RegValue(witness[i]); rv != pv {
			t.Fatalf("job %d witness %s: %#x (%s, pruned) != %#x (interp, unpruned)",
				ji, ins.Features[i].Name, pv, engine, rv)
		}
	}
	for _, mem := range pm.Mems {
		rm, pmem := ref.Mem(mem.Name), ps.Mem(mem.Name)
		if rm == nil {
			continue
		}
		for w := range pmem {
			if rm[w] != pmem[w] {
				t.Fatalf("job %d mem %s[%d]: %#x (%s, pruned) != %#x (interp, unpruned)",
					ji, mem.Name, w, pmem[w], engine, rm[w])
			}
		}
	}
}

// TestSlicePruneDifferential compares the pruned slice (the default)
// against the plain-simplify slice on real jobs: identical tick counts
// and identical witness feature values, with the pruned netlist no
// larger than the unpruned one.
func TestSlicePruneDifferential(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ins, err := instrument.Instrument(spec.Build())
			if err != nil {
				t.Fatal(err)
			}
			kept := make([]int, len(ins.Features))
			for i := range kept {
				kept[i] = i
			}
			plain := slice.DefaultOptions()
			plain.Prune = false
			slP, err := slice.Slice(ins, kept, plain)
			if err != nil {
				t.Fatal(err)
			}
			slA, err := slice.Slice(ins, kept, slice.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			// Raw node counts can differ by a hoisted const; what the
			// engines evaluate each cycle is the combinational nodes.
			pi, ai := rtl.CombNodes(slP.M), rtl.CombNodes(slA.M)
			if ai > pi {
				t.Errorf("pruned slice has more combinational nodes: %d vs %d plain", ai, pi)
			}
			jobs := spec.TestJobs(29)
			if len(jobs) > 3 {
				jobs = jobs[:3]
			}
			sP, sA := rtl.NewSim(slP.M), rtl.NewSim(slA.M)
			for ji, job := range jobs {
				tp, err := accel.RunJob(sP, job, spec.MaxTicks)
				if err != nil {
					t.Fatal(err)
				}
				ta, err := accel.RunJob(sA, job, spec.MaxTicks)
				if err != nil {
					t.Fatal(err)
				}
				if tp != ta {
					t.Fatalf("job %d: %d ticks (pruned slice) != %d (plain slice)", ji, ta, tp)
				}
				fp, fa := slP.ReadFeatures(sP), slA.ReadFeatures(sA)
				for i := range fp {
					if fp[i] != fa[i] {
						t.Fatalf("job %d feature %d: %v (pruned) != %v (plain)", ji, i, fa[i], fp[i])
					}
				}
			}
		})
	}
}
