package core

import (
	"fmt"

	"repro/internal/instrument"
	"repro/internal/slice"
)

// PruningEnabled reports true: every simulated design is absint-pruned
// (proven-constant registers and cones folded to literals, dead write
// ports dropped), which is behavior-preserving on done, the witness
// registers, and memory contents (see absint.Prune). It remains only
// because perfbench/layers.go calls it; the next benchmark change
// removes it.
func PruningEnabled() bool { return true }

// TimingCone builds the module JobSimulator runs for ground truth: the
// backward cone of done plus every IC witness (what JobTrace.Items
// reads), sliced with no wait elided and pruned.
// Nothing that decides when done rises is cut, so done fires on the
// same cycle as in the full design, and the kept witnesses hold the
// full design's values (the slicing invariant; pruning preserves
// both). The cone depends only on the design, never on a trained
// model. Train takes its training ticks from it too.
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
// fraction of the full design's cycles, so its ticks are not the
// design's (those come from TimingCone). Result.Kept is every feature
// index in catalog order.
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

// itemRegs returns the cone registers of its IC witnesses, whose
// largest value is a job's Items.
func itemRegs(ins *instrument.Instrumented, cone *slice.Result) []int {
	var regs []int
	for i, k := range cone.Kept {
		if ins.Features[k].Kind == instrument.IC {
			regs = append(regs, cone.WitnessRegs[i])
		}
	}
	return regs
}
