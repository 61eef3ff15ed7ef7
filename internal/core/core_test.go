package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/accel/md"
	"repro/internal/accel/stencil"
	"repro/internal/suite"
	"repro/internal/testdesigns"
)

func TestTrainMDPredictor(t *testing.T) {
	p, err := Train(md.Spec(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Kept) == 0 || len(p.Kept) > 10 {
		t.Errorf("kept %d features, want a small non-zero set", len(p.Kept))
	}
	e, err := p.EvaluateTest(md.Spec().TestJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if e.MeanAbs > 0.03 {
		t.Errorf("md test mean abs error %.4f, want < 3%%", e.MeanAbs)
	}
	if e.WorstUnder < -0.05 {
		t.Errorf("md worst under-prediction %.4f, want > -5%%", e.WorstUnder)
	}
}

func TestTrainStencilPredictor(t *testing.T) {
	p, err := Train(stencil.Spec(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.EvaluateTest(stencil.Spec().TestJobs(6))
	if err != nil {
		t.Fatal(err)
	}
	if e.MeanAbs > 0.03 {
		t.Errorf("stencil test mean abs error %.4f, want < 3%%", e.MeanAbs)
	}
}

func TestTracesConsistent(t *testing.T) {
	spec := md.Spec()
	p, err := Train(spec, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := spec.TestJobs(3)[:20]
	tr, err := p.CollectTraces(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 20 {
		t.Fatalf("traces = %d", len(tr))
	}
	for i, jt := range tr {
		if jt.Seconds <= 0 || jt.Cycles <= 0 {
			t.Errorf("trace %d: non-positive time", i)
		}
		if jt.SliceTicks > jt.Ticks {
			t.Errorf("trace %d: slice slower than job (%d > %d)", i, jt.SliceTicks, jt.Ticks)
		}
		if jt.PredSeconds <= 0 {
			t.Errorf("trace %d: non-positive prediction", i)
		}
		if math.Abs(jt.Seconds-float64(jt.Ticks)*spec.CycleScale/spec.NominalHz) > 1e-12 {
			t.Errorf("trace %d: seconds/ticks inconsistent", i)
		}
	}
	// Collecting the same jobs again must give identical traces.
	tr2, err := p.CollectTraces(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if tr[i].Ticks != tr2[i].Ticks || tr[i].SliceTicks != tr2[i].SliceTicks ||
			tr[i].PredSeconds != tr2[i].PredSeconds {
			t.Errorf("trace %d not reproducible", i)
		}
		for j := range tr[i].SliceFeatures {
			if tr[i].SliceFeatures[j] != tr2[i].SliceFeatures[j] {
				t.Errorf("trace %d feature %d not reproducible", i, j)
			}
		}
	}
}

func TestSliceTimeFractionReasonable(t *testing.T) {
	// §3.7 reports the slice runs in 5–15% of the full design's time.
	// Enforce a generous upper bound across the suite here; the precise
	// per-benchmark fractions are the Figure 12 experiment.
	for _, name := range []string{"md", "aes", "sha"} {
		spec, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Train(spec, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := p.CollectTraces(spec.TestJobs(4)[:15])
		if err != nil {
			t.Fatal(err)
		}
		var frac float64
		for _, jt := range tr {
			frac += float64(jt.SliceTicks) / float64(jt.Ticks)
		}
		frac /= float64(len(tr))
		if frac > 0.30 {
			t.Errorf("%s: slice/full time fraction %.2f too large", name, frac)
		}
	}
}

func TestTrainRejectsTinyWorkload(t *testing.T) {
	spec := md.Spec()
	jobs := spec.TrainJobs(1)[:3]
	if _, err := Train(spec, Options{TrainJobs: jobs}); err == nil {
		t.Error("tiny training set accepted")
	}
}

// TestTrainCountsSimulatedJobs: Train simulates every training job and
// counts each one in SimulatedJobs.
func TestTrainCountsSimulatedJobs(t *testing.T) {
	spec := md.Spec()
	jobs := spec.TrainJobs(4)
	before := SimulatedJobs()
	if _, err := Train(spec, Options{TrainJobs: jobs}); err != nil {
		t.Fatal(err)
	}
	if d := SimulatedJobs() - before; d != uint64(len(jobs)) {
		t.Fatalf("Train advanced SimulatedJobs by %d, want %d", d, len(jobs))
	}
}

func TestReportMentionsFeatures(t *testing.T) {
	p, err := Train(md.Spec(), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if rep == "" || len(p.FeatureNames()) != len(p.Kept) {
		t.Error("report/feature names inconsistent")
	}
}

// TestTrainLintGate proves Train refuses a design that fails the lint
// gate (the djpeg idct_cnt bug class) and that SkipLint bypasses it.
func TestTrainLintGate(t *testing.T) {
	spec := accel.Spec{
		Name:       "seeded-bug",
		NominalHz:  1e8,
		CycleScale: 1,
		Build:      testdesigns.UnqualifiedLoad,
		TrainJobs:  func(seed int64) []accel.Job { return nil },
		TestJobs:   func(seed int64) []accel.Job { return nil },
		MaxTicks:   1000,
	}
	_, err := Train(spec, Options{Seed: 1})
	if err == nil {
		t.Fatal("Train accepted a design with an unqualified counter load")
	}
	if !strings.Contains(err.Error(), "counter-load-qual") {
		t.Errorf("gate error does not name the rule: %v", err)
	}
	// With the gate bypassed, Train proceeds past lint and fails later
	// for the mundane reason that the spec has no training jobs.
	_, err = Train(spec, Options{Seed: 1, SkipLint: true})
	if err == nil || strings.Contains(err.Error(), "lint") {
		t.Errorf("SkipLint did not bypass the gate: %v", err)
	}
}
