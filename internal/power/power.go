// Package power provides the energy model that stands in for the
// paper's Synopsys gate-level power flow. Per-job energy at an
// operating point (V, f) decomposes into:
//
//   - scalable dynamic energy:   Dyn·V²·cycles — switched logic
//     capacitance, quadratic in voltage (the DVFS win),
//   - non-scalable access energy: Mem·cycles — scratchpad/SRAM accesses
//     on a fixed rail (cannot be voltage-scaled in this system model),
//   - leakage: Leak·leakScale(V)·T — static power integrated over the
//     active interval (idle intervals are power-gated),
//   - DVFS transition energy per level change.
//
// Absolute joules depend on calibration constants, but the evaluation
// only ever compares energies across schemes and levels of the same
// design, which depend on the ratios this model preserves.
package power

import (
	"math"

	"repro/internal/dvfs"
	"repro/internal/rtl"
)

// Model holds per-design energy parameters.
type Model struct {
	// DynPerCycle is the voltage-scalable dynamic energy per cycle at
	// V = 1, in joules.
	DynPerCycle float64
	// MemPerCycle is the fixed-rail (non-scalable) energy per cycle, in
	// joules.
	MemPerCycle float64
	// LeakPower is the leakage power at V = 1, in watts.
	LeakPower float64
	// SwitchEnergy is the energy of one DVFS level transition, in joules.
	SwitchEnergy float64
}

// Params calibrate a Model from netlist statistics.
type Params struct {
	// EnergyPerGate is dynamic energy per gate-equivalent per cycle at
	// V = 1 (joules); folds in the average activity factor.
	EnergyPerGate float64
	// MemFraction is the fraction of per-cycle energy on the fixed rail
	// (scratchpad and clock distribution), 0..1.
	MemFraction float64
	// LeakFraction is leakage power as a fraction of total power at the
	// nominal point, 0..1.
	LeakFraction float64
	// NominalHz is the design's synthesis frequency.
	NominalHz float64
}

// DefaultParams is the 65 nm-class calibration used across benchmarks;
// per-accelerator MemFraction overrides provide the workload diversity
// visible in the paper's Figure 11.
func DefaultParams(nominalHz float64) Params {
	return Params{
		EnergyPerGate: 1.0e-15, // 1 fJ per gate-equivalent per cycle
		MemFraction:   0.30,
		LeakFraction:  0.10,
		NominalHz:     nominalHz,
	}
}

// FromStats builds a Model from area statistics and calibration params.
func FromStats(st rtl.AreaStats, p Params) Model {
	perCycle := st.Total() * p.EnergyPerGate
	dyn := perCycle * (1 - p.MemFraction)
	mem := perCycle * p.MemFraction
	totalPower := perCycle * p.NominalHz
	leak := totalPower * p.LeakFraction / (1 - p.LeakFraction)
	return Model{
		DynPerCycle: dyn,
		MemPerCycle: mem,
		LeakPower:   leak,
		// One transition costs roughly the decoupling charge of the
		// domain: model as 50 µs of nominal power.
		SwitchEnergy: totalPower * 50e-6,
	}
}

// leakScale models leakage power versus supply voltage: roughly linear
// in V with an exponential DIBL-like term, normalized to 1 at V = 1.
func leakScale(v float64) float64 {
	return v * math.Exp(2.5*(v-1))
}

// JobEnergy returns the energy of executing `cycles` at operating point
// pt, in joules. Idle time after completion is power-gated and free.
// Each product is wrapped in an explicit float64 conversion so that no
// compiler fuses it into a multiply-add: the result is bit-identical on
// every architecture, and to Factors.Energy.
func (m Model) JobEnergy(pt dvfs.OperatingPoint, cycles float64) float64 {
	t := cycles / pt.Freq
	v2 := pt.V * pt.V
	return float64(m.DynPerCycle*v2*cycles) + float64(m.MemPerCycle*cycles) + float64(m.LeakPower*leakScale(pt.V)*t)
}

// Factors are a Model's per-operating-point energy coefficients,
// precomputed so that a job's energy at that point costs three
// multiplies and a divide instead of an exponential per job.
type Factors struct {
	// Dyn is DynPerCycle·V², Mem is MemPerCycle, and Leak is
	// LeakPower·leakScale(V), all at the point's voltage; Freq is the
	// point's frequency.
	Dyn, Mem, Leak, Freq float64
}

// Factors returns m's energy coefficients at operating point pt.
func (m Model) Factors(pt dvfs.OperatingPoint) Factors {
	return Factors{
		Dyn:  m.DynPerCycle * (pt.V * pt.V),
		Mem:  m.MemPerCycle,
		Leak: m.LeakPower * leakScale(pt.V),
		Freq: pt.Freq,
	}
}

// Energy returns the energy of executing cycles at the factors' point:
// bit-identical to Model.JobEnergy there, because it keeps JobEnergy's
// association order, (Dyn·cycles) + (Mem·cycles) + (Leak·(cycles/Freq)).
func (f Factors) Energy(cycles float64) float64 {
	return float64(f.Dyn*cycles) + float64(f.Mem*cycles) + float64(f.Leak*(cycles/f.Freq))
}

// SliceEnergy returns the energy of running the predictor slice for
// sliceCycles at the nominal point of the device. The slice is its own
// small domain; its model is the slice's own Model.
func (m Model) SliceEnergy(d *dvfs.Device, sliceCycles float64) float64 {
	return m.JobEnergy(d.Points[d.Nominal], sliceCycles)
}

// TransitionEnergy returns the cost of nLevels DVFS changes.
func (m Model) TransitionEnergy(n int) float64 {
	return float64(n) * m.SwitchEnergy
}

// NominalPower returns the design's total power at V=1 in watts.
func (m Model) NominalPower(nominalHz float64) float64 {
	return (m.DynPerCycle+m.MemPerCycle)*nominalHz + m.LeakPower
}
