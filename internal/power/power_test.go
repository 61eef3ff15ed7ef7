package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
	"repro/internal/rtl"
)

func testModel() Model {
	st := rtl.AreaStats{LogicGates: 50000, RegGates: 20000, MemGates: 30000}
	return FromStats(st, DefaultParams(250e6))
}

func TestEnergyDecreasesWithVoltage(t *testing.T) {
	m := testModel()
	d := dvfs.ASIC(250e6, false)
	cycles := 1e6
	prev := 0.0
	for _, pt := range d.Points {
		e := m.JobEnergy(pt, cycles)
		if e <= prev {
			t.Errorf("energy at V=%v (%.3g J) not above lower level (%.3g J)", pt.V, e, prev)
		}
		prev = e
	}
}

func TestEnergyScalesLinearlyWithCycles(t *testing.T) {
	m := testModel()
	pt := dvfs.OperatingPoint{V: 0.8, Freq: 180e6}
	f := func(raw uint16) bool {
		c := float64(raw) + 1
		e1 := m.JobEnergy(pt, c)
		e2 := m.JobEnergy(pt, 2*c)
		return math.Abs(e2-2*e1) < 1e-9*e2+1e-21
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemEnergyDoesNotScaleWithVoltage(t *testing.T) {
	st := rtl.AreaStats{LogicGates: 1000}
	p := DefaultParams(100e6)
	p.MemFraction = 1.0 // all energy on the fixed rail
	p.LeakFraction = 0
	m := FromStats(st, p)
	lo := m.JobEnergy(dvfs.OperatingPoint{V: 0.625, Freq: 50e6}, 1000)
	hi := m.JobEnergy(dvfs.OperatingPoint{V: 1.0, Freq: 100e6}, 1000)
	if math.Abs(lo-hi) > 1e-12*hi {
		t.Errorf("fixed-rail energy varies with V: %v vs %v", lo, hi)
	}
}

func TestLowestLevelSavingsBand(t *testing.T) {
	// With default calibration, running at the lowest ASIC level should
	// save roughly 35-55%% of energy versus nominal — the band that makes
	// the paper's average 36.7%% reachable but not trivially exceeded.
	m := testModel()
	d := dvfs.ASIC(250e6, false)
	cycles := 1e6
	lo := m.JobEnergy(d.Points[0], cycles)
	hi := m.JobEnergy(d.Points[d.Nominal], cycles)
	savings := 1 - lo/hi
	if savings < 0.30 || savings > 0.60 {
		t.Errorf("lowest-level savings = %.3f, want 0.30..0.60", savings)
	}
}

func TestLeakScale(t *testing.T) {
	if got := leakScale(1.0); math.Abs(got-1) > 1e-12 {
		t.Errorf("leakScale(1) = %v, want 1", got)
	}
	if leakScale(0.7) >= leakScale(1.0) {
		t.Error("leakage not decreasing with voltage")
	}
	if leakScale(1.08) <= 1 {
		t.Error("boost leakage not above nominal")
	}
}

func TestFromStatsCalibration(t *testing.T) {
	st := rtl.AreaStats{LogicGates: 10000, RegGates: 5000, MemGates: 5000}
	p := DefaultParams(500e6)
	m := FromStats(st, p)
	if m.DynPerCycle <= 0 || m.MemPerCycle <= 0 || m.LeakPower <= 0 || m.SwitchEnergy <= 0 {
		t.Errorf("non-positive parameters: %+v", m)
	}
	// MemFraction split must hold.
	total := m.DynPerCycle + m.MemPerCycle
	if math.Abs(m.MemPerCycle/total-p.MemFraction) > 1e-9 {
		t.Errorf("mem fraction = %v, want %v", m.MemPerCycle/total, p.MemFraction)
	}
	// LeakFraction of total power at nominal.
	leakFrac := m.LeakPower / (m.NominalPower(500e6))
	if math.Abs(leakFrac-p.LeakFraction) > 1e-9 {
		t.Errorf("leak fraction = %v, want %v", leakFrac, p.LeakFraction)
	}
}

func TestTransitionEnergy(t *testing.T) {
	m := testModel()
	if m.TransitionEnergy(0) != 0 {
		t.Error("zero transitions cost energy")
	}
	if m.TransitionEnergy(3) != 3*m.SwitchEnergy {
		t.Error("transition energy not linear")
	}
}

func TestSliceEnergyMuchSmallerThanJob(t *testing.T) {
	// A slice that is 6% of the area and runs 10% of the cycles should
	// consume around 0.6% of the job energy.
	full := testModel()
	st := rtl.AreaStats{LogicGates: 3000, RegGates: 1200, MemGates: 1800}
	sliceM := FromStats(st, DefaultParams(250e6))
	d := dvfs.ASIC(250e6, false)
	jobE := full.JobEnergy(d.Points[d.Nominal], 1e6)
	sliceE := sliceM.SliceEnergy(d, 1e5)
	ratio := sliceE / jobE
	if ratio > 0.05 {
		t.Errorf("slice energy ratio = %v, want well below 5%%", ratio)
	}
}

// TestFactorsMatchJobEnergyBitForBit holds the per-level factors the
// simulator evaluates jobs with to JobEnergy and SliceEnergy exactly:
// every level of the ASIC (with boost) and FPGA profiles, a job model
// and a slice model, and cycle counts from 0 to 1e12 — any
// reassociation of the sum or its products shows up in the low bits.
func TestFactorsMatchJobEnergyBitForBit(t *testing.T) {
	sliceM := FromStats(rtl.AreaStats{LogicGates: 3000, RegGates: 1200}, DefaultParams(250e6))
	rng := rand.New(rand.NewSource(1))
	cycles := []float64{0, 1, 1e12}
	for i := 0; i < 200; i++ {
		cycles = append(cycles, math.Ldexp(rng.Float64(), rng.Intn(41)), float64(rng.Int63n(1e12)))
	}
	for _, d := range []*dvfs.Device{dvfs.ASIC(250e6, true), dvfs.FPGA(100e6)} {
		for _, m := range []Model{testModel(), sliceM} {
			for li, pt := range d.Points {
				f := m.Factors(pt)
				for _, c := range cycles {
					if got, want := f.Energy(c), m.JobEnergy(pt, c); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s level %d, %v cycles: factored energy %v, JobEnergy %v", d.Name, li, c, got, want)
					}
				}
			}
			f := m.Factors(d.Points[d.Nominal])
			for _, c := range cycles {
				if got, want := f.Energy(c), m.SliceEnergy(d, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s, %v slice cycles: factored energy %v, SliceEnergy %v", d.Name, c, got, want)
				}
			}
		}
	}
}
