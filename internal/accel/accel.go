// Package accel defines the common harness for benchmark accelerators:
// a Spec couples a synthesizable netlist with workload generators and
// calibration constants, and Runner executes jobs on a simulator.
//
// Seven accelerators implement the paper's Table 3 benchmark suite, one
// package each under internal/accel/... . Their control structure —
// FSMs and latency counters — is real netlist logic that the analysis
// packages process with no benchmark-specific knowledge, preserving the
// paper's automation claim.
//
// Tick scaling: simulating millions of hardware cycles per job for
// thousands of jobs is wasteful when the quantities of interest are
// ratios, so each design defines a CycleScale — the number of hardware
// cycles represented by one IR tick. Latency counters count ticks;
// reported execution times are ticks × CycleScale ÷ frequency. Every
// cross-scheme comparison is invariant to this constant.
package accel

import (
	"fmt"

	"repro/internal/rtl"
)

// Job is one unit of work: the scratchpad images to load plus metadata.
type Job struct {
	// Mems maps memory name to the contents DMA'd in before execution.
	Mems map[string][]uint64
	// Class is the coarse-grained parameter a table-based DVFS
	// controller would index on (video resolution, image size bucket,
	// data size bucket) — see §2.4.
	Class string
	// Desc describes the job for reports.
	Desc string
}

// Spec describes one benchmark accelerator.
type Spec struct {
	// Name is the paper's benchmark name (h264, cjpeg, ...).
	Name string
	// Description and TaskDesc echo Table 3.
	Description string
	TaskDesc    string
	// TrainDesc and TestDesc describe the workloads (Table 3).
	TrainDesc string
	TestDesc  string
	// NominalHz is the synthesis frequency at 1 V (Table 4).
	NominalHz float64
	// CycleScale is hardware cycles per IR tick.
	CycleScale float64
	// AreaUM2 calibrates gate-equivalents to the paper's place-and-route
	// area for Table 4 (µm² per design at 65 nm).
	AreaUM2 float64
	// MemFraction is the fixed-rail energy fraction for power modeling.
	MemFraction float64
	// Build constructs a fresh netlist.
	Build func() *rtl.Module
	// TrainJobs and TestJobs generate the seeded workloads.
	TrainJobs func(seed int64) []Job
	TestJobs  func(seed int64) []Job
	// MaxTicks bounds one job's simulation.
	MaxTicks uint64
}

// Validate checks the spec is complete.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("accel: spec has no name")
	case s.NominalHz <= 0:
		return fmt.Errorf("accel %s: bad nominal frequency", s.Name)
	case s.CycleScale <= 0:
		return fmt.Errorf("accel %s: bad cycle scale", s.Name)
	case s.Build == nil || s.TrainJobs == nil || s.TestJobs == nil:
		return fmt.Errorf("accel %s: missing constructor or workloads", s.Name)
	case s.MaxTicks == 0:
		return fmt.Errorf("accel %s: missing tick bound", s.Name)
	}
	return nil
}

// Cycles converts IR ticks to hardware cycles.
func (s *Spec) Cycles(ticks uint64) float64 { return float64(ticks) * s.CycleScale }

// Seconds converts IR ticks to seconds at the nominal frequency.
func (s *Spec) Seconds(ticks uint64) float64 {
	return s.Cycles(ticks) / s.NominalHz
}

// RunJob loads a job's memories into the simulator, runs to completion,
// and returns the tick count. The simulator is reset first.
func RunJob(s *rtl.Sim, job Job, maxTicks uint64) (uint64, error) {
	s.Reset()
	for name, data := range job.Mems { //detlint:allow each iteration loads a distinct memory; order-independent
		if err := s.LoadMem(name, data); err != nil {
			return 0, fmt.Errorf("accel: load %s: %w", name, err)
		}
	}
	return s.Run(maxTicks)
}

// RunCone is RunJob for a simulator of a slice of design (see
// core.TimingCone and core.AllWitnessSlice). Each job memory is checked
// against design, so a job fails exactly when RunJob on design would
// fail, but only the memories the slice kept are loaded, and those are
// not zeroed first (see rtl.Sim.ResetFor).
func RunCone(s *rtl.Sim, design *rtl.Module, job Job, maxTicks uint64) (uint64, error) {
	for name, data := range job.Mems { //detlint:allow each iteration checks a distinct memory; order-independent
		if err := design.CheckLoad(name, len(data)); err != nil {
			return 0, fmt.Errorf("accel: load %s: %w", name, err)
		}
	}
	s.ResetFor(job.Mems)
	for name, data := range job.Mems { //detlint:allow each iteration loads a distinct memory; order-independent
		if s.Mem(name) == nil {
			continue // dropped: nothing the slice keeps reads it
		}
		if err := s.LoadMem(name, data); err != nil {
			return 0, fmt.Errorf("accel: load %s: %w", name, err)
		}
	}
	return s.Run(maxTicks)
}
