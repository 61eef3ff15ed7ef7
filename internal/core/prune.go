package core

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/instrument"
	"repro/internal/rtl"
)

// PruningEnabled reports true: every simulated design is absint-pruned
// (proven-constant registers and cones folded to literals, dead write
// ports dropped), which is behavior-preserving on done, the witness
// registers, and memory contents (see absint.Prune). It remains only
// because perfbench/layers.go calls it; the next benchmark change
// removes it.
func PruningEnabled() bool { return true }

// bindFull returns the full-design module Train simulates for its
// feature matrix — the instrumented design's absint-pruned twin — with
// the feature-witness register indices in that module (catalog order).
// Serving and trace collection run the timing cone instead (see
// TimingCone), which needs only the IC witnesses.
func bindFull(ins *instrument.Instrumented) (*rtl.Module, []int, error) {
	featRegs := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		featRegs[i] = f.Witness
	}
	pm, regMap := absint.Prune(ins.M, featRegs)
	for i, ri := range featRegs {
		ni, ok := regMap[ri]
		if !ok {
			return nil, nil, fmt.Errorf("core: prune dropped witness register %d (%s)",
				ri, ins.Features[i].Name)
		}
		featRegs[i] = ni
	}
	return pm, featRegs, nil
}
