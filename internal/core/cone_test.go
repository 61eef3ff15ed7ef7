package core

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/accel/aes"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/suite"
	"repro/internal/testdesigns"
)

// TestTimingConeMatchesOnSuite is the exactness gate for taking ground
// truth from the timing cone instead of the full design. On every
// seed-42 training job and every seed-43 test job (the lab's workloads)
// of all seven benchmarks, the cone must reproduce the unpruned
// instrumented design run by the interpreter — the tick count and every
// IC witness — under each engine: interp, the codegen plan (the native
// fallback) and the generated native code every predictor binds.
// JobSimulator.Trace on each leg must report the design's Ticks,
// Seconds and Items. -short and -race builds take every 16th job.
func TestTimingConeMatchesOnSuite(t *testing.T) {
	prev := PruningEnabled()
	t.Cleanup(func() { SetPruning(prev) })
	SetPruning(true) // the cone every served predictor builds
	for _, spec := range suite.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := loadUntrained(t, spec)
			cone, err := TimingCone(p.Ins)
			if err != nil {
				t.Fatal(err)
			}
			served := p.NewJobSimulator()
			if _, e := served.Engines(); e != rtl.DefaultEngine() {
				t.Fatalf("served cone runs on %s, want %s", e, rtl.DefaultEngine())
			}
			legs := []struct {
				name string
				js   *JobSimulator
			}{
				{"interp", &JobSimulator{p: p, cone: rtl.NewInterpSim(cone.M), slice: p.sliceSim.Clone()}},
				{"plan", &JobSimulator{p: p, cone: rtl.NewNativeSim(cone.M, codegen.Build(cone.M).Step), slice: p.sliceSim.Clone()}},
				{string(rtl.DefaultEngine()), served},
			}
			var ics []int // positions in cone.Kept of the IC witnesses
			for i, k := range cone.Kept {
				if p.Ins.Features[k].Kind == instrument.IC {
					ics = append(ics, i)
				}
			}
			if len(ics) == 0 {
				t.Fatal("cone keeps no IC witness")
			}
			jobs := append(spec.TrainJobs(42), spec.TestJobs(43)...)
			stride := 1
			if testing.Short() || raceEnabled {
				stride = 16
			}
			ref := rtl.NewInterpSim(p.Ins.M)
			for ji := 0; ji < len(jobs); ji += stride {
				job := jobs[ji]
				want, err := accel.RunJob(ref, job, spec.MaxTicks)
				if err != nil {
					t.Fatal(err)
				}
				var items float64
				for _, i := range ics {
					items = max(items, float64(ref.RegValue(p.Ins.Features[cone.Kept[i]].Witness)))
				}
				for _, leg := range legs {
					tr, err := leg.js.Trace(job)
					if err != nil {
						t.Fatalf("job %d (%s): %v", ji, leg.name, err)
					}
					if tr.Ticks != want || tr.Seconds != spec.Seconds(want) || tr.Items != items {
						t.Fatalf("job %d (%s cone): ticks %d, seconds %g, items %g; full design (interp): %d, %g, %g",
							ji, leg.name, tr.Ticks, tr.Seconds, tr.Items, want, spec.Seconds(want), items)
					}
					for _, i := range ics {
						f := p.Ins.Features[cone.Kept[i]]
						if got, w := leg.js.cone.RegValue(cone.WitnessRegs[i]), ref.RegValue(f.Witness); got != w {
							t.Fatalf("job %d (%s cone): witness %s = %d, full design (interp) %d", ji, leg.name, f.Name, got, w)
						}
					}
				}
			}
		})
	}
}

// loadUntrained builds spec's predictor through Load from a one-term
// zero model: the cone tests need the predictor's simulators, not a
// fit, and skipping the training simulation keeps the -race legs short.
func loadUntrained(t *testing.T, spec accel.Spec) *Predictor {
	t.Helper()
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(SavedPredictor{Benchmark: spec.Name, Terms: []SavedTerm{{Feature: ins.Names()[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Load(data, spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTimingConeMemoryContract pins how the cone treats job memories.
// It checks every name against the instrumented design, so a job the
// full design would reject (unknown memory, a ROM, an oversized image)
// fails from Complete, Execute and CollectTraces with accel.RunJob's
// error on that design. It loads only what the cone kept, so a job
// that also fills memories the cone dropped (aes's out and keymem)
// completes with the full design's ticks.
func TestTimingConeMemoryContract(t *testing.T) {
	spec := aes.Spec()
	p := loadUntrained(t, spec)
	js := p.NewJobSimulator()
	full := rtl.NewInterpSim(p.Ins.M)
	base := spec.TestJobs(43)[0]
	with := func(name string, data []uint64) accel.Job {
		job := accel.Job{Mems: map[string][]uint64{}, Class: base.Class}
		for k, v := range base.Mems { //detlint:allow copying a map; order-independent
			job.Mems[k] = v
		}
		job.Mems[name] = data
		return job
	}

	for _, job := range []accel.Job{
		with("bogus", []uint64{1}),
		with("sbox", []uint64{1}),
		with("in", make([]uint64, 1<<20)),
	} {
		_, want := accel.RunJob(full, job, spec.MaxTicks)
		if want == nil {
			t.Fatalf("full design accepted a job loading %v", job.Mems)
		}
		if _, err := js.Execute(job); err == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("Execute: %v, want an error containing %q", err, want)
		}
		if _, err := js.Complete(job, Prediction{}); err == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("Complete: %v, want an error containing %q", err, want)
		}
		if _, err := p.CollectTraces([]accel.Job{job}); err == nil {
			t.Errorf("CollectTraces accepted a job the full design rejects (%v)", want)
		}
	}

	rng := rand.New(rand.NewSource(5))
	junk := make([]uint64, 64)
	for i := range junk {
		junk[i] = rng.Uint64()
	}
	job := with("out", junk)
	job.Mems["keymem"] = junk[:16]
	want, err := accel.RunJob(full, job, spec.MaxTicks)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := js.Execute(job)
	if err != nil || tr.Ticks != want {
		t.Errorf("Execute: %d ticks (%v), full design %d", tr.Ticks, err, want)
	}
	tr, err = js.Complete(job, Prediction{})
	if err != nil || tr.Ticks != want {
		t.Errorf("Complete: %d ticks (%v), full design %d", tr.Ticks, err, want)
	}
}

// TestTimingConeWithoutICFeatures covers a design whose catalog has no
// IC feature (a bare FSM): the cone keeps the first feature, since a
// slice needs one witness, and reports no Items registers.
func TestTimingConeWithoutICFeatures(t *testing.T) {
	m, _ := testdesigns.HandFSM()
	ins, err := instrument.Instrument(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ins.Features {
		if f.Kind == instrument.IC {
			t.Fatalf("HandFSM has IC feature %s", f.Name)
		}
	}
	cone, err := TimingCone(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(cone.Kept) != 1 || cone.Kept[0] != 0 || len(itemRegs(ins, cone)) != 0 {
		t.Errorf("cone keeps %v with %d Items registers; want feature 0 and none", cone.Kept, len(itemRegs(ins, cone)))
	}
}
