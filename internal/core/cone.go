package core

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/slice"
)

// PruningEnabled reports true: every simulated design is absint-pruned
// (proven-constant registers and cones folded to literals, dead write
// ports dropped), which is behavior-preserving on done, the witness
// registers, and memory contents (see absint.Prune). It remains only
// because perfbench/layers.go calls it; the next benchmark change
// removes it.
func PruningEnabled() bool { return true }

// TimingCone builds the module JobSimulator runs for ground truth on a
// design that is not certified (see groundTruth): the backward cone of
// done plus every IC witness (what JobTrace.Items reads), sliced with
// no wait elided and pruned.
// Nothing that decides when done rises is cut, so done fires on the
// same cycle as in the full design, and the kept witnesses hold the
// full design's values (the slicing invariant; pruning preserves
// both). The cone depends only on the design, never on a trained
// model. Train takes such a design's training ticks from it too.
//
// A design without IC features keeps its first feature instead, since
// a slice needs one witness; Result.Kept tells the two apart.
func TimingCone(ins *instrument.Instrumented) (*slice.Result, error) {
	var keep []int
	for i, f := range ins.Features {
		if f.Kind == instrument.IC {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		keep = []int{0}
	}
	cone, err := slice.Slice(ins, keep, slice.Options{Prune: true})
	if err != nil {
		return nil, fmt.Errorf("core: timing cone of %s: %w", ins.M.Name, err)
	}
	cone.M.Name = ins.M.Name + "_cone"
	return cone, nil
}

// AllWitnessSlice builds the hardware slice that keeps every
// instrumented feature, with the paper's slicing options
// (slice.DefaultOptions): the module Train reads its feature matrix
// from. By the slicing invariant its witnesses hold the full design's
// feature values on every job, while its elided waits make it run in a
// fraction of the full design's cycles. On a certified design its
// ticks plus the closed-form cycles of those waits are the design's,
// and it is also the ground-truth simulator (see groundTruth).
// Result.Kept is every feature index in catalog order.
func AllWitnessSlice(ins *instrument.Instrumented) (*slice.Result, error) {
	keep := make([]int, len(ins.Features))
	for i := range keep {
		keep[i] = i
	}
	sl, err := slice.Slice(ins, keep, slice.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("core: all-witness slice of %s: %w", ins.M.Name, err)
	}
	return sl, nil
}

// groundTruth is the simulator a predictor takes each job's ground
// truth from, and how to read the full design's ticks and Items off it.
//
// A design is certified when the full design's ticks are the
// all-witness slice's plus the cycles its elided waits would have
// taken, in closed form: no wait is elided approximately (ApproxWaits
// == 0), and every elided counter wait has a WaitDwell (see
// absint.WaitDwells: one constant load on entry, an "== limit" exit,
// a counter that steps down onto its limit every waiting cycle). Each
// visit to such a wait costs the full design Extra cycles beyond the
// slice's one, and the slice's STC witnesses count the visits. A
// certified design runs the all-witness slice; every other design runs
// the timing cone, whose ticks are the full design's by construction.
type groundTruth struct {
	// sl is the simulated module: the timing cone, or the all-witness
	// slice of a certified design.
	sl *slice.Result
	// items are sl's IC witness registers, whose largest value is a
	// job's Items.
	items []int
	// certified marks the all-witness slice; elided then lists the
	// weighted visit counters whose sum is the full design's ticks
	// minus the slice's.
	certified bool
	elided    []elidedTerm
}

// elidedTerm is one STC witness register of the all-witness slice that
// counts entries into an elided counter wait, and the cycles each entry
// costs the full design beyond the slice.
type elidedTerm struct {
	reg    int
	cycles uint64
}

// ticks returns the full design's ticks for a run of s (a simulator of
// g.sl) that took simTicks.
func (g *groundTruth) ticks(s *rtl.Sim, simTicks uint64) uint64 {
	for _, e := range g.elided {
		simTicks += e.cycles * s.RegValue(e.reg)
	}
	return simTicks
}

// itemsOf returns a job's Items after a run of s: the largest IC
// witness value.
func (g *groundTruth) itemsOf(s *rtl.Sim) float64 {
	var items float64
	for _, ri := range g.items {
		items = max(items, float64(s.RegValue(ri)))
	}
	return items
}

// newGroundTruth certifies ins against its all-witness slice all (see
// groundTruth), or builds its timing cone. av is the abstract
// interpretation of ins.M.
func newGroundTruth(ins *instrument.Instrumented, all *slice.Result, av *absint.Analysis) (groundTruth, error) {
	if elided, ok := elidedCycles(ins, all, av); ok {
		return groundTruth{sl: all, items: itemRegs(ins, all), certified: true, elided: elided}, nil
	}
	cone, err := TimingCone(ins)
	if err != nil {
		return groundTruth{}, err
	}
	return groundTruth{sl: cone, items: itemRegs(ins, cone)}, nil
}

// elidedCycles returns the terms that add the elided waits' cycles to
// the all-witness slice's ticks, or false when ins is not certified.
// av is the abstract interpretation of ins.M.
func elidedCycles(ins *instrument.Instrumented, all *slice.Result, av *absint.Analysis) ([]elidedTerm, bool) {
	if all.ApproxWaits != 0 {
		return nil, false
	}
	dwells, err := absint.WaitDwells(av, ins.Analysis)
	if err != nil {
		return nil, false
	}
	type arc struct {
		fsm      int
		from, to uint64
	}
	stc := map[arc]int{}
	for i, k := range all.Kept {
		if f := ins.Features[k]; f.Kind == instrument.STC {
			stc[arc{f.FSM, f.From, f.To}] = all.WitnessRegs[i]
		}
	}
	var terms []elidedTerm
	for _, d := range dwells {
		for _, src := range d.Sources {
			reg, ok := stc[arc{d.FSM, src, d.State}]
			if !ok {
				return nil, false
			}
			if d.Extra > 0 {
				terms = append(terms, elidedTerm{reg: reg, cycles: d.Extra})
			}
		}
	}
	return terms, true
}

// GroundTruth builds the module a predictor of ins takes ground truth
// from, given ins's all-witness slice all (see AllWitnessSlice): all
// itself when the design is certified (its ticks plus the closed-form
// cycles of its elided counter waits are the full design's), else the
// timing cone. certified reports which.
func GroundTruth(ins *instrument.Instrumented, all *slice.Result) (truth *slice.Result, certified bool, err error) {
	g, err := newGroundTruth(ins, all, absint.Analyze(ins.M))
	if err != nil {
		return nil, false, err
	}
	return g.sl, g.certified, nil
}

// itemRegs returns the IC witness registers of a slice of ins, whose
// largest value is a job's Items.
func itemRegs(ins *instrument.Instrumented, sl *slice.Result) []int {
	var regs []int
	for i, k := range sl.Kept {
		if ins.Features[k].Kind == instrument.IC {
			regs = append(regs, sl.WitnessRegs[i])
		}
	}
	return regs
}
