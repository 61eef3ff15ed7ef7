// Package exp reproduces the paper's evaluation: one driver per table
// and figure (Table 3, Table 4, Figures 2, 3, 10–19, and the §3.7 case
// study). Each driver returns structured results plus a text rendering
// whose rows mirror what the paper reports.
//
// A Lab trains the predictor for each benchmark once (the offline flow
// of Figure 6) and collects test traces once; every experiment then
// replays those traces under different controllers, devices, deadlines
// and overhead assumptions, which is exact under the paper's T = C/f
// model.
package exp

import (
	"fmt"
	"sync"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/suite"
)

// Deadline is the paper's 60 fps frame budget (§4.2).
const Deadline = 16.7e-3

// PredictiveMargin is the prediction-based scheme's margin (§4.2).
const PredictiveMargin = 0.05

// QuickJobs is how many training and test jobs a Quick lab keeps per
// benchmark (cmd/rtlgen pre-generates the slices it trains).
const QuickJobs = 60

// Lab caches trained predictors and traces per benchmark.
type Lab struct {
	// Seed drives workload generation; a fixed seed makes every
	// experiment reproducible.
	Seed int64
	// Quick trims workloads for fast runs (unit tests); headline
	// numbers are produced with Quick=false.
	Quick bool

	mu      sync.Mutex
	entries map[string]*entryState
}

type entryState struct {
	once sync.Once
	e    *Entry
	err  error
}

// Entry holds everything the experiments need for one benchmark.
type Entry struct {
	// Pred is the trained predictor (instrumented design, model, slice).
	Pred *core.Predictor
	// Train and Test are the collected traces.
	Train []core.JobTrace
	Test  []core.JobTrace
	// Power and SlicePower are the calibrated energy models.
	Power      power.Model
	SlicePower power.Model
	// FullStats and SliceStats are the netlist area statistics.
	FullStats  rtl.AreaStats
	SliceStats rtl.AreaStats
}

// NewLab creates a lab with the given workload seed.
func NewLab(seed int64) *Lab {
	return &Lab{Seed: seed, entries: make(map[string]*entryState)}
}

// Entry trains (once) and returns the benchmark's artifacts.
func (l *Lab) Entry(name string) (*Entry, error) {
	l.mu.Lock()
	st, ok := l.entries[name]
	if !ok {
		st = &entryState{}
		l.entries[name] = st
	}
	l.mu.Unlock()
	st.once.Do(func() {
		st.e, st.err = l.build(name)
	})
	return st.e, st.err
}

func (l *Lab) build(name string) (*Entry, error) {
	spec, err := suite.ByName(name)
	if err != nil {
		return nil, err
	}
	trainJobs := spec.TrainJobs(l.Seed)
	testJobs := spec.TestJobs(l.Seed + 1)
	if l.Quick {
		trainJobs = trim(trainJobs, QuickJobs)
		testJobs = trim(testJobs, QuickJobs)
	}
	pred, err := core.Train(spec, core.Options{Seed: l.Seed, TrainJobs: trainJobs})
	if err != nil {
		return nil, err
	}
	trainTr, err := pred.CollectTraces(trainJobs)
	if err != nil {
		return nil, err
	}
	testTr, err := pred.CollectTraces(testJobs)
	if err != nil {
		return nil, err
	}

	// Instrumentation witnesses for UNUSED features would not be taped
	// out; the shipped accelerator carries only the kept witnesses, so
	// cost the baseline as the clean design.
	cleanStats := rtl.Stats(spec.Build())
	sliceStats := rtl.Stats(pred.Slice.M)

	params := power.DefaultParams(spec.NominalHz)
	params.MemFraction = spec.MemFraction
	pm := power.FromStats(cleanStats, params)
	// The slice's scratchpad is the accelerator's own, accessed by
	// time-multiplexing (Figure 5); its energy belongs to the job, so
	// the slice power model covers the slice's logic only.
	sliceLogic := rtl.AreaStats{
		LogicGates: sliceStats.LogicGates,
		RegGates:   sliceStats.RegGates,
		Nodes:      sliceStats.Nodes,
		Regs:       sliceStats.Regs,
	}
	sliceParams := power.DefaultParams(spec.NominalHz)
	sliceParams.MemFraction = 0.1 // slices are logic-dominated
	spm := power.FromStats(sliceLogic, sliceParams)

	return &Entry{
		Pred:       pred,
		Train:      trainTr,
		Test:       testTr,
		Power:      pm,
		SlicePower: spm,
		FullStats:  cleanStats,
		SliceStats: sliceStats,
	}, nil
}

func trim[T any](s []T, n int) []T {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// All trains every benchmark (in parallel) and returns entries in
// table order.
func (l *Lab) All() ([]*Entry, error) {
	names := suite.Names()
	entries := make([]*Entry, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			entries[i], errs[i] = l.Entry(name)
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", names[i], err)
		}
	}
	return entries, nil
}

// Warm trains every benchmark concurrently (each of which additionally
// fans its job simulations out across workers, see core.SetWorkers)
// before the serial experiment loop starts, so every later Entry call
// is a cache hit. It is an alias for discarding All's entries.
func (l *Lab) Warm() error {
	_, err := l.All()
	return err
}

// Names returns benchmark names in table order.
func (l *Lab) Names() []string { return suite.Names() }

// asicDevice returns the benchmark's ASIC DVFS profile.
func asicDevice(e *Entry, boost bool) *dvfs.Device {
	return dvfs.ASIC(e.Pred.Spec.NominalHz, boost)
}

// fpgaDevice returns the benchmark's FPGA DVFS profile. Per DESIGN.md,
// the FPGA implementation is assumed to reach the same nominal
// throughput (wider overlay at lower clock is equivalent under T = C/f);
// what changes is the voltage range, the f(V) curve and the power
// profile.
func fpgaDevice(e *Entry) *dvfs.Device {
	return dvfs.FPGA(e.Pred.Spec.NominalHz)
}

// fpgaPower returns the FPGA energy models: higher leakage share, but a
// *smaller* fixed-rail fraction — FPGA power is dominated by the
// programmable routing fabric's switched capacitance, which scales with
// the core supply.
func fpgaPower(e *Entry) (power.Model, power.Model) {
	spec := e.Pred.Spec
	params := power.DefaultParams(spec.NominalHz)
	params.MemFraction = spec.MemFraction - 0.06
	if params.MemFraction < 0.12 {
		params.MemFraction = 0.12
	}
	params.LeakFraction = 0.22
	pm := power.FromStats(e.FullStats, params)
	sp := power.DefaultParams(spec.NominalHz)
	sp.MemFraction = 0.15
	sp.LeakFraction = 0.22
	sliceLogic := rtl.AreaStats{
		LogicGates: e.SliceStats.LogicGates,
		RegGates:   e.SliceStats.RegGates,
	}
	spm := power.FromStats(sliceLogic, sp)
	return pm, spm
}

// run replays this entry's test traces under a controller on a device.
func (e *Entry) run(d *dvfs.Device, pm, spm power.Model, deadline float64,
	ctrl control.Controller, noOverheads bool) (sim.Result, error) {
	return sim.Run(e.Test, sim.Config{
		Device:      d,
		Power:       pm,
		SlicePower:  spm,
		Deadline:    deadline,
		Controller:  ctrl,
		NoOverheads: noOverheads,
	})
}

// runASIC is the common case: ASIC device, calibrated power models.
func (e *Entry) runASIC(ctrl control.Controller, deadline float64, noOverheads bool) (sim.Result, error) {
	return e.run(asicDevice(e, false), e.Power, e.SlicePower, deadline, ctrl, noOverheads)
}

// schemes builds the three standard controllers of §4.2 for this entry.
func (e *Entry) schemes() (baseline, pid, prediction control.Controller) {
	return control.NewBaseline(),
		control.NewPID(control.DefaultPIDConfig(Deadline)),
		control.NewPredictive(PredictiveMargin, false)
}

// testErrors returns the slice-driven prediction errors on the test set
// (Figure 10 data).
func (e *Entry) testErrors() model.Errors {
	return core.TraceErrors(e.Test)
}
