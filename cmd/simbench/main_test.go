package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/suite"
)

// TestNewDist checks the quartile interpolation on known samples.
func TestNewDist(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want Dist
	}{
		{[]float64{4, 1, 3, 2, 5}, Dist{Median: 3, Q1: 2, Q3: 4, K: 5}},
		{[]float64{1, 2, 3, 4}, Dist{Median: 2.5, Q1: 1.75, Q3: 3.25, K: 4}},
		{[]float64{7}, Dist{Median: 7, Q1: 7, Q3: 7, K: 1}},
	} {
		if got := newDist(tc.in); got != tc.want {
			t.Errorf("newDist(%v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestReport runs simbench end to end on two benchmarks, stencil
// (ground truth on its timing cone) and sha (certified: ground truth on
// its all-witness slice), and checks the report's shape: every cell
// carries samplesPerCell samples, toy has no native row (it has no
// generated simulator), each benchmark's ground-truth simulator is
// measured on all three engines (interp, plan, native) and native
// beats the plan, each ground-truth row names its simulator and keeps
// fewer memories than the instrumented design, and nothing fell back —
// every shape simbench times has generated code. Each benchmark also
// has a train row with a sampled Train and γ-sweep time.
func TestReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"simbench", "-designs", "stencil,sha", "-reps", "2", "-warm=false", "-out", out}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SamplesPerCell != samplesPerCell || rep.Host.GOMAXPROCS < 1 || rep.MaxWorkers != rep.Host.GOMAXPROCS {
		t.Errorf("header: samples %d, host %+v, max_workers %d", rep.SamplesPerCell, rep.Host, rep.MaxWorkers)
	}
	if rep.NativeFallbacks != 0 {
		t.Errorf("%d native fallbacks", rep.NativeFallbacks)
	}
	if len(rep.Designs) != 3 || rep.Designs[1].Design != "stencil_cone" || rep.Designs[2].Design != "sha_slice_all" {
		t.Fatalf("designs %+v, want toy, stencil_cone and sha_slice_all", rep.Designs)
	}
	for i, want := range []int{2, 3, 3} {
		d := rep.Designs[i]
		if len(d.Engines) != want {
			t.Errorf("%s: %d engine rows, want %d", d.Design, len(d.Engines), want)
		}
		for _, e := range d.Engines {
			if e.NsPerCycle.K != samplesPerCell || e.NsPerCycle.Q1 > e.NsPerCycle.Median || e.NsPerCycle.Median > e.NsPerCycle.Q3 {
				t.Errorf("%s/%s: ns_per_cycle %+v", d.Design, e.Engine, e.NsPerCycle)
			}
		}
	}
	if d := rep.Designs[0]; d.NativeVsPlan != 0 {
		t.Errorf("toy reports native_vs_plan %g without a generated simulator", d.NativeVsPlan)
	}
	for _, d := range rep.Designs[1:] {
		if d.NativeVsPlan <= 1 {
			t.Errorf("%s native_vs_plan %g, want > 1", d.Design, d.NativeVsPlan)
		}
	}
	if len(rep.WorkerSweep) == 0 || len(rep.TraceThroughput) != 2 || rep.SuiteWallclockS != nil {
		t.Errorf("sections: %d sweep, %d throughput, wall-clock %v",
			len(rep.WorkerSweep), len(rep.TraceThroughput), rep.SuiteWallclockS)
	}
	if len(rep.Truth) != 2 {
		t.Fatalf("%d ground-truth rows, want stencil's and sha's", len(rep.Truth))
	}
	for i, want := range []string{"cone", "slice_all"} {
		c := rep.Truth[i]
		if c.Simulator != want {
			t.Errorf("%s ground truth runs on %q, want %q", c.Benchmark, c.Simulator, want)
		}
		for _, d := range []Dist{c.NsPerCycle, c.UsPerJob} {
			if d.K != samplesPerCell || d.Q1 > d.Median || d.Median > d.Q3 {
				t.Errorf("%s ground-truth row %+v", c.Benchmark, d)
			}
		}
		spec, err := suite.ByName(c.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		if mems := len(spec.Build().Mems); c.Jobs < 1 || c.Comb < 1 || c.Mems < 1 || c.Mems >= mems {
			t.Errorf("%s ground truth: %d jobs, %d comb nodes, %d of the design's %d mems", c.Benchmark, c.Jobs, c.Comb, c.Mems, mems)
		}
	}
	if len(rep.Train) != 2 {
		t.Fatalf("%d train rows, want stencil's and sha's", len(rep.Train))
	}
	for i, want := range []string{"stencil", "sha"} {
		c := rep.Train[i]
		if c.Benchmark != want || c.Jobs < 8 || c.Varying < 1 || c.Varying > c.Columns {
			t.Errorf("train row %d: %+v, want %s with 8+ jobs and 1..columns varying", i, c, want)
		}
		for _, d := range []Dist{c.TrainMs, c.SweepMs} {
			if d.K != samplesPerCell || d.Median <= 0 || d.Q1 > d.Median || d.Median > d.Q3 {
				t.Errorf("%s train row %+v", c.Benchmark, d)
			}
		}
	}
}
