package core

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/absint"
	"repro/internal/instrument"
	"repro/internal/rtl"
)

// Pruning gates the abstract-interpretation netlist pruning applied to
// the simulated modules: proven-constant registers and cones are folded
// to literals and dead write ports dropped before the engines compile
// the design, so every engine executes fewer instructions per cycle.
// Pruning is behavior-preserving on done, the witness registers, and
// memory contents (see absint.Prune), so traces, features, and cache
// artifacts are bit-identical either way. On by default; REPRO_PRUNE=0
// or SetPruning(false) disables it (the escape hatch if a pruned design
// ever needs to be ruled out while debugging).
var pruneDisabled atomic.Bool

func init() {
	switch os.Getenv("REPRO_PRUNE") {
	case "0", "off", "false":
		pruneDisabled.Store(true)
	}
}

// SetPruning enables or disables absint pruning of simulated designs.
// Safe to call concurrently; affects predictors trained afterwards.
func SetPruning(on bool) { pruneDisabled.Store(!on) }

// PruningEnabled reports whether newly trained predictors prune.
func PruningEnabled() bool { return !pruneDisabled.Load() }

// bindFull selects the full-design module Train simulates for its
// feature matrix — the instrumented design itself, or its absint-pruned
// twin when pruning is enabled — and returns it with the
// feature-witness register indices in that module (catalog order).
// Serving and trace collection run the timing cone instead (see
// TimingCone), which needs only the IC witnesses.
func bindFull(ins *instrument.Instrumented) (*rtl.Module, []int, error) {
	featRegs := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		featRegs[i] = f.Witness
	}
	if !PruningEnabled() {
		return ins.M, featRegs, nil
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
