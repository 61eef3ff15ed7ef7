package suite

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"

	// The native engine resolves generated steps registered at init.
	_ "repro/internal/rtl/native"
)

// stepJob loads job into ref and s and steps both one cycle at a time
// to the job's end, checking done and every node value on every cycle.
func stepJob(t *testing.T, mod *rtl.Module, job accel.Job, maxTicks uint64, ref, s *rtl.Sim, label string) {
	t.Helper()
	for _, x := range []*rtl.Sim{ref, s} {
		x.Reset()
		for name, data := range job.Mems { //detlint:allow each iteration loads a distinct memory; order-independent
			if err := x.LoadMem(name, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	for cycle := uint64(1); cycle <= maxTicks; cycle++ {
		rd, sd := ref.Step(), s.Step()
		if rd != sd {
			t.Fatalf("%s cycle %d: done %v, interp %v", label, cycle, sd, rd)
		}
		compareState(t, mod, ref, s, fmt.Sprintf("%s cycle %d", label, cycle), false)
		if rd {
			return
		}
	}
	t.Fatalf("%s: no done within %d cycles", label, maxTicks)
}

// compareState checks every node value of s against ref and, with
// mems set, every memory word.
func compareState(t *testing.T, mod *rtl.Module, ref, s *rtl.Sim, label string, mems bool) {
	t.Helper()
	for id := 0; id < mod.NumNodes(); id++ {
		if v, rv := s.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); v != rv {
			t.Fatalf("%s node %d (%s): %#x, interp %#x", label, id, mod.Nodes[id].Op, v, rv)
		}
	}
	if !mems {
		return
	}
	for _, mem := range mod.Mems {
		m, rm := s.Mem(mem.Name), ref.Mem(mem.Name)
		for a := range rm {
			if m[a] != rm[a] {
				t.Fatalf("%s mem %s[%d]: %#x, interp %#x", label, mem.Name, a, m[a], rm[a])
			}
		}
	}
}

// runJob runs job through Run on ref and s and checks ticks and the
// final state: every node value and every memory word.
func runJob(t *testing.T, mod *rtl.Module, job accel.Job, maxTicks uint64, ref, s *rtl.Sim, label string) {
	t.Helper()
	rt, err := accel.RunJob(ref, job, maxTicks)
	if err != nil {
		t.Fatal(err)
	}
	st, err := accel.RunJob(s, job, maxTicks)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if st != rt {
		t.Fatalf("%s: ticks %d, interp %d", label, st, rt)
	}
	compareState(t, mod, ref, s, label, true)
}

// TestEnginesMatchOnSuite is the suite-wide differential test: for
// every benchmark, the ground-truth simulator AND the all-witness
// hardware slice (the shapes a trace-collection job simulates; one
// module on a certified design) are run on real jobs
// by every engine — the codegen plan (the native fallback) and the
// generated native code — against the interpreter.
// Each job is stepped one cycle at a time with every node value
// compared on every cycle, then run whole through Run (one call per
// job) with ticks, every node value and every memory word compared.
func TestEnginesMatchOnSuite(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			jobs := spec.TestJobs(23)[:2]
			for _, mod := range truthAndSlice(t, spec) {
				nat := rtl.NewSimEngine(mod, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: native sim reports %q — generated registry stale? run go generate ./internal/rtl/native",
						mod.Name, got)
				}
				others := []struct {
					name string
					s    *rtl.Sim
				}{
					{"plan", rtl.NewNativeSim(mod, codegen.Build(mod).Step)},
					{"native", nat},
				}
				ref := rtl.NewInterpSim(mod)
				for ji, job := range jobs {
					for _, o := range others {
						label := fmt.Sprintf("%s job %d (%s)", mod.Name, ji, o.name)
						stepJob(t, mod, job, spec.MaxTicks, ref, o.s, label)
						runJob(t, mod, job, spec.MaxTicks, ref, o.s, label)
					}
				}
			}
		})
	}
}

// TestBatchEngineMatchesOnSuite covers bulk trace collection, the work
// the deleted 64-lane batch engine used to do and the native engine
// now does: one native Sim per module is reused across several real
// jobs of differing lengths, as a core worker reuses its simulators.
// Each job is stepped one cycle at a time against a fresh interpreter,
// every node value compared on every cycle, then run whole, with ticks,
// node values and memories compared bit-exactly, on both the
// ground-truth simulator and the all-witness slice. A long job followed by a shorter
// one on the same Sim is what catches state that Reset fails to clear.
func TestBatchEngineMatchesOnSuite(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			jobs := spec.TestJobs(31)
			if len(jobs) > 5 {
				jobs = jobs[:5]
			}
			for _, mod := range truthAndSlice(t, spec) {
				nat := rtl.NewSimEngine(mod, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: native sim reports %q — regenerate internal/rtl/native", mod.Name, got)
				}
				for ji, job := range jobs {
					label := fmt.Sprintf("%s job %d", mod.Name, ji)
					stepJob(t, mod, job, spec.MaxTicks, rtl.NewInterpSim(mod), nat, label)
					runJob(t, mod, job, spec.MaxTicks, rtl.NewInterpSim(mod), nat, label)
				}
			}
		})
	}
}
