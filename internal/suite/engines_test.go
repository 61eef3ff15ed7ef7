package suite

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/rtl"

	// The native engine resolves generated steps registered at init.
	_ "repro/internal/rtl/native"
)

// TestEnginesMatchOnSuite is the suite-wide differential test: for
// every benchmark, the instrumented full design AND its hardware slice
// are run on real jobs by all three engines — interpreter (reference),
// compiled, and the generated native code — and every observable
// (ticks, every node value, every toggle counter, every memory word)
// must agree bit-exactly. The toggle counters feed the energy model,
// so their equivalence is what licenses making the native engine the
// default.
// TestBatchEngineMatchesOnSuite covers bulk trace collection, the work
// the deleted 64-lane batch engine used to do and the native engine
// now does: one native Sim per module is reused across several real
// jobs of differing lengths, as a core worker reuses its simulators,
// and after each job its ticks, node values, toggle counters and
// memories must match a fresh interpreter run of the same job
// bit-exactly, on both the instrumented design and its slice. A long
// job followed by a shorter one on the same Sim is what catches state
// that Reset fails to clear.
func TestBatchEngineMatchesOnSuite(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ins, sl := instrumentAndSlice(t, spec)
			jobs := spec.TestJobs(31)
			if len(jobs) > 5 {
				jobs = jobs[:5]
			}
			for _, mod := range []*rtl.Module{ins.M, sl.M} {
				nat := rtl.NewSimEngine(mod, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: native sim reports %q — regenerate internal/rtl/native", mod.Name, got)
				}
				nat.EnableActivity()
				for ji, job := range jobs {
					nt, err := accel.RunJob(nat, job, spec.MaxTicks)
					if err != nil {
						t.Fatalf("%s job %d: %v", mod.Name, ji, err)
					}
					ref := rtl.NewInterpSim(mod)
					ref.EnableActivity()
					rt, err := accel.RunJob(ref, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					if nt != rt {
						t.Fatalf("%s job %d: ticks %d (native) != %d (interp)", mod.Name, ji, nt, rt)
					}
					for id := 0; id < mod.NumNodes(); id++ {
						if nv, rv := nat.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); nv != rv {
							t.Fatalf("%s job %d node %d (%s): %#x (native) != %#x (interp)",
								mod.Name, ji, id, mod.Nodes[id].Op, nv, rv)
						}
					}
					ng, rg := nat.Toggles(), ref.Toggles()
					for id := range rg {
						if ng[id] != rg[id] {
							t.Fatalf("%s job %d node %d: toggles %d (native) != %d (interp)",
								mod.Name, ji, id, ng[id], rg[id])
						}
					}
					for _, mem := range mod.Mems {
						nm, rm := nat.Mem(mem.Name), ref.Mem(mem.Name)
						for a := range rm {
							if nm[a] != rm[a] {
								t.Fatalf("%s job %d mem %s[%d]: %#x (native) != %#x (interp)",
									mod.Name, ji, mem.Name, a, nm[a], rm[a])
							}
						}
					}
				}
			}
		})
	}
}

func TestEnginesMatchOnSuite(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ins, sl := instrumentAndSlice(t, spec)
			jobs := spec.TestJobs(23)[:2]
			for _, mod := range []*rtl.Module{ins.M, sl.M} {
				ref := rtl.NewInterpSim(mod)
				nat := rtl.NewSimEngine(mod, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: native sim reports %q — generated registry stale? run go generate ./internal/rtl/native",
						mod.Name, got)
				}
				others := []struct {
					name string
					s    *rtl.Sim
				}{
					{"compiled", rtl.NewSimEngine(mod, rtl.EngineCompiled)},
					{"native", nat},
				}
				ref.EnableActivity()
				for _, o := range others {
					o.s.EnableActivity()
				}
				for ji, job := range jobs {
					rt, err := accel.RunJob(ref, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					rg := ref.Toggles()
					for _, o := range others {
						ot, err := accel.RunJob(o.s, job, spec.MaxTicks)
						if err != nil {
							t.Fatal(err)
						}
						if ot != rt {
							t.Fatalf("%s job %d: ticks %d (%s) != %d (interp)",
								mod.Name, ji, ot, o.name, rt)
						}
						for id := 0; id < mod.NumNodes(); id++ {
							if ov, rv := o.s.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); ov != rv {
								t.Fatalf("%s job %d node %d (%s): %#x (%s) != %#x (interp)",
									mod.Name, ji, id, mod.Nodes[id].Op, ov, o.name, rv)
							}
						}
						og := o.s.Toggles()
						for id := range og {
							if og[id] != rg[id] {
								t.Fatalf("%s job %d node %d: toggles %d (%s) != %d (interp)",
									mod.Name, ji, id, og[id], o.name, rg[id])
							}
						}
						for _, mem := range mod.Mems {
							om, rm := o.s.Mem(mem.Name), ref.Mem(mem.Name)
							for a := range om {
								if om[a] != rm[a] {
									t.Fatalf("%s job %d mem %s[%d]: %#x (%s) != %#x (interp)",
										mod.Name, ji, mem.Name, a, om[a], o.name, rm[a])
								}
							}
						}
					}
				}
			}
		})
	}
}
