// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation, one testing.B benchmark per
// artifact, plus ablation benchmarks for the design decisions called
// out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the headline quantities of its artifact as
// custom metrics (energy percentages, miss rates, overheads), so the
// bench output doubles as a compact reproduction record; the full
// paper-style tables come from cmd/dvfsim.
package repro

import (
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/instrument"
	"repro/internal/model"
	"repro/internal/rtl"
	"repro/internal/slice"
	"repro/internal/suite"
)

var (
	benchLabOnce sync.Once
	benchLab     *exp.Lab
	benchLabErr  error
)

// lab trains all seven benchmarks once (full workloads) and is shared
// by every benchmark in this file; experiments replay cached traces.
func lab(b *testing.B) *exp.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = exp.NewLab(42)
		_, benchLabErr = benchLab.All()
	})
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLab
}

// runExp executes one experiment per iteration and returns the last
// table for metric extraction.
func runExp(b *testing.B, id string) *exp.Table {
	l := lab(b)
	b.ResetTimer()
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.Run(l, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return t
}

func BenchmarkTable3Workloads(b *testing.B) {
	t := runExp(b, "table3")
	b.ReportMetric(float64(len(t.Rows)), "benchmarks")
}

func BenchmarkTable4Implementation(b *testing.B) {
	t := runExp(b, "table4")
	b.ReportMetric(float64(len(t.Rows)), "benchmarks")
}

func BenchmarkFigure2H264Variation(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r *exp.Figure2Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Figure2(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	minV, maxV := 1e9, 0.0
	for _, clip := range r.Clips {
		for _, v := range clip.Values {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	b.ReportMetric(maxV-minV, "spread_ms")
}

func BenchmarkFigure3PIDLag(b *testing.B) {
	runExp(b, "fig3")
}

func BenchmarkFigure10PredictionError(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var rows []exp.Figure10Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, _, err = exp.Figure10(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstUnder float64
	for _, r := range rows {
		if r.WorstUnder < worstUnder {
			worstUnder = r.WorstUnder
		}
	}
	b.ReportMetric(-100*worstUnder, "worst_under_pct")
}

func BenchmarkFigure11EnergyMisses(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r *exp.Figure11Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Figure11(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100-r.AvgNormalized["prediction"], "savings_pct")
	b.ReportMetric(100*r.AvgMiss["prediction"], "miss_pct")
	b.ReportMetric(100-r.AvgNormalized["pid"], "pid_savings_pct")
	b.ReportMetric(100*r.AvgMiss["pid"], "pid_miss_pct")
}

func BenchmarkFigure12SliceOverhead(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var rows []exp.OverheadRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, _, err = exp.Figure12(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	var a, e, t float64
	for _, r := range rows {
		a += r.AreaPct
		e += r.EnergyPct
		t += r.TimePct
	}
	n := float64(len(rows))
	b.ReportMetric(a/n, "area_pct")
	b.ReportMetric(e/n, "energy_pct")
	b.ReportMetric(t/n, "time_pct")
}

func BenchmarkFigure13Oracle(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r *exp.Figure13Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Figure13(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, row := range r.Rows {
		sums[row.Scheme] += row.Normalized
		counts[row.Scheme]++
	}
	gap := sums["prediction w/o overhead"]/counts["prediction w/o overhead"] -
		sums["oracle"]/counts["oracle"]
	b.ReportMetric(gap, "oracle_gap_pct")
}

func BenchmarkFigure14Boost(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r *exp.Figure14Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Figure14(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	var boostMiss float64
	for _, row := range r.Rows {
		if row.Scheme == "prediction+boost" {
			boostMiss += row.MissRate
		}
	}
	b.ReportMetric(100*boostMiss, "boost_miss_pct")
}

func BenchmarkFigure15DeadlineSweep(b *testing.B) {
	runExp(b, "fig15")
}

func BenchmarkFigure16FPGA(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r *exp.Figure11Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Figure16(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100-r.AvgNormalized["prediction"], "fpga_savings_pct")
}

func BenchmarkFigure17FPGASlice(b *testing.B) {
	runExp(b, "fig17")
}

func BenchmarkFigure18HLS(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var rows []exp.HLSRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, _, err = exp.Figure18(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	var rtlMiss, hlsMiss float64
	for _, r := range rows {
		if r.Level == "rtl" {
			rtlMiss += r.MissRate
		} else {
			hlsMiss += r.MissRate
		}
	}
	b.ReportMetric(100*rtlMiss/2, "rtl_miss_pct")
	b.ReportMetric(100*hlsMiss/2, "hls_miss_pct")
}

func BenchmarkFigure19HLSOverhead(b *testing.B) {
	runExp(b, "fig19")
}

func BenchmarkCaseStudyH264(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r *exp.CaseStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.CaseStudy(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.FeaturesKept), "kept_features")
	b.ReportMetric(r.SliceAreaPct, "slice_area_pct")
	b.ReportMetric(r.SliceEnergyPct, "slice_energy_pct")
}

// ---------------------------------------------------------------------
// Extension experiments (paper §2.4, §3, §4.5, §5.1).

func BenchmarkExtGovernors(b *testing.B) {
	runExp(b, "ext-governors")
}

func BenchmarkExtSoftwarePredictor(b *testing.B) {
	runExp(b, "ext-swpredict")
}

func BenchmarkExtReconfig(b *testing.B) {
	runExp(b, "ext-reconfig")
}

func BenchmarkExtSwitchSweep(b *testing.B) {
	runExp(b, "ext-switch")
}

func BenchmarkExtMarginSweep(b *testing.B) {
	runExp(b, "ext-margin")
}

// ---------------------------------------------------------------------
// Ablation benchmarks for DESIGN.md's called-out decisions.

// BenchmarkAblationSymmetricLoss trains the md predictor with the
// symmetric least-squares objective (α=1) instead of the paper's
// asymmetric one, showing the under-prediction fraction the asymmetry
// removes.
func BenchmarkAblationSymmetricLoss(b *testing.B) {
	spec, err := suite.ByName("djpeg")
	if err != nil {
		b.Fatal(err)
	}
	var under, underAsym float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sym, err := core.Train(spec, core.Options{Seed: 42,
			Model: model.Config{Alpha: 1, MaxIter: 4000}})
		if err != nil {
			b.Fatal(err)
		}
		asym, err := core.Train(spec, core.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		eSym, err := sym.EvaluateTest(spec.TestJobs(43))
		if err != nil {
			b.Fatal(err)
		}
		eAsym, err := asym.EvaluateTest(spec.TestJobs(43))
		if err != nil {
			b.Fatal(err)
		}
		under = eSym.UnderFrac
		underAsym = eAsym.UnderFrac
	}
	b.ReportMetric(100*under, "sym_under_pct")
	b.ReportMetric(100*underAsym, "asym_under_pct")
}

// BenchmarkAblationNoElision slices without wait-state elision: the
// slice computes identical features but takes as long as the job,
// destroying the time budget (the reason §3.5 needs the optimization).
func BenchmarkAblationNoElision(b *testing.B) {
	spec, err := suite.ByName("md")
	if err != nil {
		b.Fatal(err)
	}
	var ratioElided, ratioPlain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := spec.Build()
		ins, err := instrument.Instrument(m)
		if err != nil {
			b.Fatal(err)
		}
		keep := []int{0, 1, 2}
		elided, err := slice.Slice(ins, keep, slice.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		plain, err := slice.Slice(ins, keep, slice.Options{})
		if err != nil {
			b.Fatal(err)
		}
		job := spec.TestJobs(7)[0]
		full := rtl.NewSim(ins.M)
		fullT := runJob(b, full, job.Mems, spec.MaxTicks)
		se := rtl.NewSim(elided.M)
		sp := rtl.NewSim(plain.M)
		ratioElided = float64(runJob(b, se, job.Mems, spec.MaxTicks)) / float64(fullT)
		ratioPlain = float64(runJob(b, sp, job.Mems, spec.MaxTicks)) / float64(fullT)
	}
	b.ReportMetric(100*ratioElided, "elided_time_pct")
	b.ReportMetric(100*ratioPlain, "unelided_time_pct")
}

func runJob(b *testing.B, s *rtl.Sim, mems map[string][]uint64, maxTicks uint64) uint64 {
	b.Helper()
	s.Reset()
	for name, data := range mems {
		if err := s.LoadMem(name, data); err != nil {
			b.Fatal(err)
		}
	}
	ticks, err := s.Run(maxTicks)
	if err != nil {
		b.Fatal(err)
	}
	return ticks
}

// BenchmarkAblationDenseModel disables the Lasso term: the model keeps
// nearly every feature, forcing a far larger slice.
func BenchmarkAblationDenseModel(b *testing.B) {
	spec, err := suite.ByName("h264")
	if err != nil {
		b.Fatal(err)
	}
	var sparseKept, denseKept, sparseArea, denseArea float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse, err := core.Train(spec, core.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		dense, err := core.Train(spec, core.Options{Seed: 42, Gammas: []float64{0}})
		if err != nil {
			b.Fatal(err)
		}
		sparseKept = float64(len(sparse.Kept))
		denseKept = float64(len(dense.Kept))
		sparseArea = rtl.Stats(sparse.Slice.M).LogicArea()
		denseArea = rtl.Stats(dense.Slice.M).LogicArea()
	}
	b.ReportMetric(sparseKept, "lasso_kept")
	b.ReportMetric(denseKept, "dense_kept")
	b.ReportMetric(100*sparseArea/denseArea, "lasso_area_vs_dense_pct")
}

// BenchmarkRTLSimThroughput measures the cycle-accurate simulator —
// the substrate everything above runs on — on djpeg's timing cone
// (core.TimingCone), the slowest ground-truth simulator a flow runs.
func BenchmarkRTLSimThroughput(b *testing.B) {
	spec, err := suite.ByName("djpeg")
	if err != nil {
		b.Fatal(err)
	}
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	cone, err := core.TimingCone(ins)
	if err != nil {
		b.Fatal(err)
	}
	m := cone.M
	s := rtl.NewSim(m)
	job := spec.TestJobs(3)[0]
	var ticks uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := accel.RunCone(s, ins.M, job, spec.MaxTicks)
		if err != nil {
			b.Fatal(err)
		}
		ticks += t
	}
	evals := float64(ticks) * float64(len(m.Nodes))
	b.ReportMetric(evals/b.Elapsed().Seconds()/1e6, "Mevals/s")
}
