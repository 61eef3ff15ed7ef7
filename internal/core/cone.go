package core

import (
	"fmt"

	"repro/internal/instrument"
	"repro/internal/slice"
)

// TimingCone builds the module JobSimulator runs for ground truth: the
// backward cone of done plus every IC witness (what JobTrace.Items
// reads), sliced with no wait elided and pruned when PruningEnabled.
// Nothing that decides when done rises is cut, so done fires on the
// same cycle as in the full design, and the kept witnesses hold the
// full design's values (the slicing invariant; pruning preserves
// both). The cone depends only on the design, never on a trained
// model.
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
	cone, err := slice.Slice(ins, keep, slice.Options{Prune: PruningEnabled()})
	if err != nil {
		return nil, fmt.Errorf("core: timing cone of %s: %w", ins.M.Name, err)
	}
	cone.M.Name = ins.M.Name + "_cone"
	return cone, nil
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
