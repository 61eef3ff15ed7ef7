package suite

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/slice"
)

func TestAllSpecsValid(t *testing.T) {
	specs := All()
	if len(specs) != 7 {
		t.Fatalf("suite has %d benchmarks, want 7 (Table 3)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate benchmark %s", s.Name)
		}
		seen[s.Name] = true
		if s.AreaUM2 <= 0 || s.MemFraction <= 0 || s.MemFraction >= 1 {
			t.Errorf("%s: calibration constants out of range", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("ByName(%s) returned %s", name, s.Name)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestBuildAndAnalyzeAll(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Build()
			if err := m.Validate(); err != nil {
				t.Fatalf("netlist invalid: %v", err)
			}
			ins, err := instrument.Instrument(m)
			if err != nil {
				t.Fatal(err)
			}
			a := ins.Analysis
			if len(a.FSMs) < 1 {
				t.Error("no FSM detected")
			}
			if len(a.Counters) < 2 {
				t.Errorf("only %d counters detected", len(a.Counters))
			}
			if len(a.WaitStates) < 1 {
				t.Error("no wait states detected")
			}
			if len(ins.Features) < 6 {
				t.Errorf("only %d features", len(ins.Features))
			}
		})
	}
}

func TestRunDeterminismAndVariation(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Build()
			sim := rtl.NewSim(m)
			jobs := spec.TestJobs(7)
			if len(jobs) < 20 {
				t.Fatalf("too few test jobs: %d", len(jobs))
			}
			jobs = jobs[:20]
			var minT, maxT uint64 = 1 << 62, 0
			for _, j := range jobs {
				ticks, err := accel.RunJob(sim, j, spec.MaxTicks)
				if err != nil {
					t.Fatal(err)
				}
				if ticks < minT {
					minT = ticks
				}
				if ticks > maxT {
					maxT = ticks
				}
			}
			// Determinism: re-run the first job.
			t0a, _ := accel.RunJob(sim, jobs[0], spec.MaxTicks)
			t0b, _ := accel.RunJob(sim, jobs[0], spec.MaxTicks)
			if t0a != t0b {
				t.Errorf("non-deterministic: %d vs %d ticks", t0a, t0b)
			}
			// Input-dependent variation must exist (§2.3).
			if float64(maxT) < 1.2*float64(minT) {
				t.Errorf("variation too small: min %d max %d", minT, maxT)
			}
		})
	}
}

// TestSliceFeatureEquivalenceAll is the suite-wide version of the
// slicer's defining property: for every benchmark, the wait-elided
// slice computes feature values identical to the full instrumented
// design. Note this holds for djpeg too — its prediction error comes
// from latency no feature captures, not from feature divergence.
func TestSliceFeatureEquivalenceAll(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Build()
			ins, err := instrument.Instrument(m)
			if err != nil {
				t.Fatal(err)
			}
			keep := make([]int, len(ins.Features))
			for i := range keep {
				keep[i] = i
			}
			sl, err := slice.Slice(ins, keep, slice.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			fullSim := rtl.NewSim(ins.M)
			sliceSim := rtl.NewSim(sl.M)
			jobs := spec.TestJobs(11)[:4]
			for ji, job := range jobs {
				fullT, err := accel.RunJob(fullSim, job, spec.MaxTicks)
				if err != nil {
					t.Fatal(err)
				}
				sliceT, err := accel.RunJob(sliceSim, job, spec.MaxTicks)
				if err != nil {
					t.Fatal(err)
				}
				if sliceT > fullT {
					t.Errorf("job %d: slice slower than full (%d > %d ticks)", ji, sliceT, fullT)
				}
				fullF := ins.ReadFeatures(fullSim)
				sliceF := sl.ReadFeatures(sliceSim)
				for i, k := range sl.Kept {
					if sliceF[i] != fullF[k] {
						t.Errorf("job %d: feature %s: slice=%v full=%v",
							ji, ins.Features[k].Name, sliceF[i], fullF[k])
					}
				}
			}
		})
	}
}

func TestSliceAreaWellBelowFull(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Build()
			full := rtl.Stats(m).LogicArea()
			ins, err := instrument.Instrument(m)
			if err != nil {
				t.Fatal(err)
			}
			// A trained model keeps a handful of features (the paper's
			// case study keeps 7 of 257); slice a comparable subset.
			keep := make([]int, 0, 8)
			for i := range ins.Features {
				if len(keep) == 8 {
					break
				}
				keep = append(keep, i)
			}
			sl, err := slice.Slice(ins, keep, slice.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ratio := rtl.Stats(sl.M).LogicArea() / full
			// The slice must drop the datapath: well under half the
			// baseline's logic (the per-accel ratios are measured
			// precisely by the Figure 12 experiment).
			if ratio > 0.5 {
				t.Errorf("slice logic area ratio %.2f too large", ratio)
			}
		})
	}
}

func TestExecutionTimesRoughlyMatchTable4(t *testing.T) {
	// Table 4 average execution times in milliseconds.
	paperAvg := map[string]float64{
		"h264": 7.56, "cjpeg": 5.22, "djpeg": 3.78, "md": 7.11,
		"stencil": 5.92, "aes": 4.62, "sha": 4.11,
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Build()
			sim := rtl.NewSim(m)
			jobs := spec.TestJobs(3)
			if len(jobs) > 60 {
				jobs = jobs[:60]
			}
			var sum float64
			for _, j := range jobs {
				ticks, err := accel.RunJob(sim, j, spec.MaxTicks)
				if err != nil {
					t.Fatal(err)
				}
				sum += spec.Seconds(ticks)
			}
			avgMs := sum / float64(len(jobs)) * 1e3
			want := paperAvg[spec.Name]
			if avgMs < want/3 || avgMs > want*3 {
				t.Errorf("average exec time %.2f ms outside 3x band of paper's %.2f ms", avgMs, want)
			}
			// Everything must comfortably fit a 16.7 ms frame budget at
			// the nominal frequency for the 60 fps scenario to make sense.
			if avgMs > 16.7 {
				t.Errorf("average %.2f ms exceeds the frame deadline", avgMs)
			}
		})
	}
}

// instrumentAndSlice builds the instrumented design and its
// all-witness hardware slice for a benchmark, through the constructor
// Train reads its features from (core.AllWitnessSlice).
func instrumentAndSlice(t *testing.T, spec accel.Spec) (*instrument.Instrumented, *slice.Result) {
	t.Helper()
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	sl, err := core.AllWitnessSlice(ins)
	if err != nil {
		t.Fatal(err)
	}
	return ins, sl
}

// truthAndSlice returns a benchmark's ground-truth simulator (see
// core.GroundTruth) and its all-witness slice: the shapes of the pair
// of modules every trace-collection job simulates (core.CollectTraces
// runs the ground truth and the trained slice). A certified design's
// ground truth is its all-witness slice, so it returns that once.
func truthAndSlice(t *testing.T, spec accel.Spec) []*rtl.Module {
	t.Helper()
	ins, sl := instrumentAndSlice(t, spec)
	truth, certified, err := core.GroundTruth(ins, sl)
	if err != nil {
		t.Fatal(err)
	}
	if certified {
		return []*rtl.Module{sl.M}
	}
	return []*rtl.Module{truth.M, sl.M}
}
