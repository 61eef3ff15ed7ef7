package rtl_test

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/accel/stencil"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/testdesigns"

	// Register the generated simulators so EngineNative resolves
	// stencil's timing cone in BenchmarkStencilSimNative, and the plan
	// fallback.
	_ "repro/internal/rtl/native"
)

// benchToy runs the Toy workload on the given engine and reports
// Mevals/s (node evaluations per second, the headline simulator
// throughput metric) and ns/cycle.
func benchToy(b *testing.B, s *rtl.Sim, nodes int) {
	items := make([]uint64, 100)
	for i := range items {
		items[i] = testdesigns.ToyItem(i%2 == 0, uint8(20))
	}
	job := testdesigns.ToyJob(items)
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		s.Reset()
		if err := s.LoadMem("in", job); err != nil {
			b.Fatal(err)
		}
		c, err := s.Run(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		total += c
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(total*uint64(nodes))/sec/1e6, "Mevals/s")
	b.ReportMetric(sec*1e9/float64(total), "ns/cycle")
	b.ReportMetric(float64(total)/float64(b.N), "ticks/job")
}

// BenchmarkToySim measures the plan fallback, which is what the native
// default runs on Toy (it has no generated native simulator).
func BenchmarkToySim(b *testing.B) {
	toy := testdesigns.Toy()
	benchToy(b, rtl.NewSimEngine(toy.M, rtl.EngineNative), toy.M.NumNodes())
}

// BenchmarkToySimInterp measures the interpreter escape hatch on the
// same workload, so each engine's speedup is one benchstat away.
func BenchmarkToySimInterp(b *testing.B) {
	toy := testdesigns.Toy()
	benchToy(b, rtl.NewInterpSim(toy.M), toy.M.NumNodes())
}

// benchAccel runs one real accelerator job repeatedly on the given
// sim of stencil's timing cone (core.TimingCone), the ground-truth
// simulator every flow runs. stencil is used because its netlist is
// datapath-heavy and representative of the suite's per-cycle cost.
func benchAccel(b *testing.B, sim func(*rtl.Module) *rtl.Sim) {
	spec := stencil.Spec()
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	cone, err := core.TimingCone(ins)
	if err != nil {
		b.Fatal(err)
	}
	m := cone.M
	s := sim(m)
	job := spec.TestJobs(3)[0]
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		c, err := accel.RunCone(s, ins.M, job, spec.MaxTicks)
		if err != nil {
			b.Fatal(err)
		}
		total += c
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(total*uint64(m.NumNodes()))/sec/1e6, "Mevals/s")
	b.ReportMetric(sec*1e9/float64(total), "ns/cycle")
}

// BenchmarkStencilSim measures the plan fallback on a real accelerator
// netlist, stencil's timing cone.
func BenchmarkStencilSim(b *testing.B) {
	benchAccel(b, func(m *rtl.Module) *rtl.Sim { return rtl.NewNativeSim(m, codegen.Build(m).Step) })
}

// BenchmarkStencilSimNative measures the default engine: the
// checked-in generated simulator of stencil's timing cone.
func BenchmarkStencilSimNative(b *testing.B) {
	benchAccel(b, func(m *rtl.Module) *rtl.Sim { return rtl.NewSimEngine(m, rtl.EngineNative) })
}

// BenchmarkStencilSimInterp is the interpreter reference point.
func BenchmarkStencilSimInterp(b *testing.B) { benchAccel(b, rtl.NewInterpSim) }
