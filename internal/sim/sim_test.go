package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/rtl"
)

// synthTraces builds traces with the given execution times (ms) at a
// 250 MHz nominal clock and perfect predictions.
func synthTraces(ms []float64) []core.JobTrace {
	traces := make([]core.JobTrace, len(ms))
	for i, m := range ms {
		sec := m * 1e-3
		cycles := sec * 250e6
		traces[i] = core.JobTrace{
			Ticks:        uint64(cycles / 1000),
			Cycles:       cycles,
			Seconds:      sec,
			PredSeconds:  sec,
			SliceTicks:   uint64(cycles / 1000 / 20),
			SliceSeconds: sec / 20,
			Class:        "c",
		}
	}
	return traces
}

func testConfig(ctrl control.Controller) Config {
	st := rtl.AreaStats{LogicGates: 40000, RegGates: 15000, MemGates: 20000}
	pm := power.FromStats(st, power.DefaultParams(250e6))
	sliceSt := rtl.AreaStats{LogicGates: 2000, RegGates: 800, MemGates: 0}
	spm := power.FromStats(sliceSt, power.DefaultParams(250e6))
	return Config{
		Device:     dvfs.ASIC(250e6, false),
		Power:      pm,
		SlicePower: spm,
		Deadline:   16.7e-3,
		Controller: ctrl,
	}
}

func TestBaselineNeverMissesAndUsesNominal(t *testing.T) {
	traces := synthTraces([]float64{4, 8, 12, 16})
	res, err := Run(traces, testConfig(control.NewBaseline()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Errorf("baseline missed %d", res.Misses)
	}
	for _, j := range res.PerJob {
		if j.Level != 5 {
			t.Errorf("baseline at level %d, want nominal 5", j.Level)
		}
	}
	if res.Switches != 0 {
		t.Errorf("baseline switched %d times", res.Switches)
	}
}

func TestPerfectPredictionSavesEnergyWithoutMisses(t *testing.T) {
	traces := synthTraces([]float64{3, 5, 4, 6, 3.5, 5.5, 4.5, 2, 7, 3})
	base, err := Run(traces, testConfig(control.NewBaseline()))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Run(traces, testConfig(control.NewPredictive(0.05, false)))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Misses != 0 {
		t.Errorf("predictive missed %d with perfect predictions", pred.Misses)
	}
	if pred.Energy >= base.Energy {
		t.Errorf("no energy saved: %.3g vs %.3g", pred.Energy, base.Energy)
	}
	norm := Normalized(pred, base)
	if norm < 40 || norm > 90 {
		t.Errorf("normalized energy %.1f%%, want a plausible 40-90%%", norm)
	}
}

func TestUnderPredictionCausesMiss(t *testing.T) {
	traces := synthTraces([]float64{15})
	traces[0].PredSeconds = 5e-3 // badly under-predicted
	res, err := Run(traces, testConfig(control.NewPredictive(0.05, false)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 1 {
		t.Errorf("under-predicted long job not missed (misses=%d)", res.Misses)
	}
}

// TestPoisonedPredictionsAreClamped: a NaN prediction must drive the
// device to its fastest non-boost level (unbounded demand), not poison
// the decision into NaN comparisons, and a negative prediction must
// not manufacture a negative frequency demand. Either way no NaN may
// leak into the energy/time accounting.
func TestPoisonedPredictionsAreClamped(t *testing.T) {
	traces := synthTraces([]float64{4, 4, 4})
	traces[0].PredSeconds = math.NaN()
	traces[1].PredSeconds = -3e-3
	res, err := Run(traces, testConfig(control.NewPredictive(0.05, false)))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range res.PerJob {
		if math.IsNaN(j.Energy) || math.IsNaN(j.TotalSeconds) {
			t.Fatalf("job %d accounting went NaN: %+v", i, j)
		}
	}
	// NaN prediction → infinite demand → nominal level; the short job
	// still finishes in time.
	if j := res.PerJob[0]; j.Level != 5 || j.Missed {
		t.Errorf("NaN-predicted job: %+v, want nominal level and no miss", j)
	}
	// Negative prediction → zero demand → lowest level; a 4 ms job at
	// roughly half speed still makes a 16.7 ms deadline.
	if j := res.PerJob[1]; j.Level != 0 || j.Missed {
		t.Errorf("negative-predicted job: %+v, want level 0 and no miss", j)
	}
}

// TestNewStepperRejectsInvalidDevice: a device violating the ascending
// operating-point invariant is refused up front, not silently misused
// by Select's round-up scan.
func TestNewStepperRejectsInvalidDevice(t *testing.T) {
	cfg := testConfig(control.NewBaseline())
	cfg.Device = &dvfs.Device{
		Name:    "unsorted",
		Points:  []dvfs.OperatingPoint{{V: 0.8, Freq: 200e6}, {V: 0.9, Freq: 100e6}},
		Nominal: 1,
		Boost:   -1,
	}
	if _, err := NewStepper(cfg); err == nil {
		t.Fatal("unsorted device accepted")
	}
}

func TestOracleIsLowerBound(t *testing.T) {
	traces := synthTraces([]float64{3, 9, 5, 12, 4, 8, 2.5, 6})
	oracle, err := Run(traces, testConfig(control.NewOracle()))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Run(traces, testConfig(control.NewPredictive(0.05, false)))
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Misses != 0 {
		t.Errorf("oracle missed %d", oracle.Misses)
	}
	if oracle.Energy > pred.Energy*(1+1e-9) {
		t.Errorf("oracle energy %.4g above prediction %.4g", oracle.Energy, pred.Energy)
	}
}

func TestNoOverheadsRemovesSliceAndSwitchCosts(t *testing.T) {
	traces := synthTraces([]float64{4, 10, 4, 10, 4, 10})
	cfg := testConfig(control.NewPredictive(0.05, false))
	with, err := Run(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoOverheads = true
	without, err := Run(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if without.Energy >= with.Energy {
		t.Errorf("removing overheads did not reduce energy: %.4g vs %.4g",
			without.Energy, with.Energy)
	}
	if without.Switches != 0 {
		t.Errorf("no-overhead run recorded %d switches", without.Switches)
	}
}

func TestSwitchAccounting(t *testing.T) {
	// Alternating short and long jobs force level changes.
	traces := synthTraces([]float64{2, 14, 2, 14, 2})
	res, err := Run(traces, testConfig(control.NewPredictive(0.05, false)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches < 4 {
		t.Errorf("switches = %d, want >= 4 on alternating load", res.Switches)
	}
	// First job switches down from the nominal starting level.
	if !res.PerJob[0].Switched {
		t.Error("first short job should switch away from nominal")
	}
}

func TestBoostEliminatesBudgetExhaustionMisses(t *testing.T) {
	// A job predicted (correctly) to take ~16.5 ms: after slice and
	// switch overheads the budget is infeasible at nominal, so the
	// non-boost scheme misses and the boost scheme recovers.
	traces := synthTraces([]float64{16.5})
	noBoost, err := Run(traces, testConfig(control.NewPredictive(0.02, false)))
	if err != nil {
		t.Fatal(err)
	}
	boostCfg := testConfig(control.NewPredictive(0.02, true))
	boostCfg.Device = dvfs.ASIC(250e6, true)
	boost, err := Run(traces, boostCfg)
	if err != nil {
		t.Fatal(err)
	}
	if noBoost.Misses != 1 {
		t.Errorf("non-boost misses = %d, want 1", noBoost.Misses)
	}
	if boost.Misses != 0 {
		t.Errorf("boost misses = %d, want 0", boost.Misses)
	}
	if boost.PerJob[0].Level != boostCfg.Device.Boost {
		t.Errorf("boost level not used: level %d", boost.PerJob[0].Level)
	}
}

func TestPIDMissesOnSpikyLoadMoreThanPredictive(t *testing.T) {
	ms := make([]float64, 0, 60)
	for i := 0; i < 60; i++ {
		if i%6 == 5 {
			ms = append(ms, 13)
		} else {
			ms = append(ms, 5)
		}
	}
	traces := synthTraces(ms)
	pidRes, err := Run(traces, testConfig(control.NewPID(control.DefaultPIDConfig(16.7e-3))))
	if err != nil {
		t.Fatal(err)
	}
	predRes, err := Run(traces, testConfig(control.NewPredictive(0.05, false)))
	if err != nil {
		t.Fatal(err)
	}
	if pidRes.Misses <= predRes.Misses {
		t.Errorf("pid misses %d not above predictive %d on spiky load",
			pidRes.Misses, predRes.Misses)
	}
}

func TestRunValidation(t *testing.T) {
	traces := synthTraces([]float64{5})
	if _, err := Run(traces, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := testConfig(control.NewBaseline())
	cfg.Deadline = 0
	if _, err := Run(traces, cfg); err == nil {
		t.Error("zero deadline accepted")
	}
}

func TestNormalized(t *testing.T) {
	a := Result{Energy: 50}
	b := Result{Energy: 100}
	if got := Normalized(a, b); math.Abs(got-50) > 1e-9 {
		t.Errorf("normalized = %v", got)
	}
	if got := Normalized(a, Result{}); got != 0 {
		t.Errorf("normalized vs zero base = %v", got)
	}
}

func TestMissRate(t *testing.T) {
	r := Result{Misses: 3, Jobs: 200}
	if got := r.MissRate(); math.Abs(got-0.015) > 1e-12 {
		t.Errorf("miss rate = %v", got)
	}
	if (Result{}).MissRate() != 0 {
		t.Error("empty result miss rate nonzero")
	}
}

// TestStepEnergyMatchesPowerModel holds the stepper's per-level energy
// factors to the power model's closed forms bit for bit: every job's
// energy equals JobEnergy at its level, plus SliceEnergy for the slice
// run and TransitionEnergy for a charged switch, over random execution
// times that visit every level on both device profiles.
func TestStepEnergyMatchesPowerModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := make([]float64, 400)
	for i := range ms {
		ms[i] = 0.01 + 18*rng.Float64()
	}
	traces := synthTraces(ms)
	for _, d := range []*dvfs.Device{dvfs.ASIC(250e6, true), dvfs.FPGA(250e6)} {
		cfg := testConfig(control.NewPredictive(0.05, true))
		cfg.Device = d
		res, err := Run(traces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		levels := map[int]bool{}
		for i, jr := range res.PerJob {
			tr := traces[i]
			want := cfg.Power.JobEnergy(d.Points[jr.Level], tr.Cycles)
			want += cfg.SlicePower.SliceEnergy(d, float64(tr.SliceTicks)*(tr.Cycles/float64(tr.Ticks)))
			if jr.Switched {
				want += cfg.Power.TransitionEnergy(1)
			}
			if math.Float64bits(jr.Energy) != math.Float64bits(want) {
				t.Fatalf("%s job %d at level %d: energy %v, power model %v", d.Name, i, jr.Level, jr.Energy, want)
			}
			levels[jr.Level] = true
		}
		if len(levels) != len(d.Points) {
			t.Errorf("%s: jobs visited %d of %d levels", d.Name, len(levels), len(d.Points))
		}
	}
}
