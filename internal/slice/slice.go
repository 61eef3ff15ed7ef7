// Package slice generates the paper's hardware slice (§3.5): a minimal
// version of an instrumented accelerator that computes a selected set of
// feature witnesses, with everything else removed.
//
// Slicing proceeds in three steps:
//
//  1. Wait-state elision. For every detected wait state — an FSM state
//     whose single exit is guarded by a comparison between a latency
//     counter and a limit — the guard is replaced by a constant so the
//     slice exits the state immediately. The latency information the
//     wait embodied is preserved in the counter's AIV/APV features: the
//     APV witness is rewritten to sample the comparison limit (the value
//     the counter provably holds at reload time in the full design)
//     instead of the now-stale counter register.
//
//     Optionally (ApproximateDataWaits), states that wait on signals
//     other than counters — e.g. a datapath "computation done" flag —
//     are elided the same way. This removes the dependency on the
//     datapath cone at the cost of timing information that no feature
//     captures, which is exactly the residual prediction error the
//     paper reports for the JPEG decoder (Figure 10).
//
//  2. Backward cone. Starting from the kept feature witnesses and the
//     module's done signal, all logic transitively needed — through
//     combinational arguments, register next expressions, and memory
//     write ports — is marked live. Elided guards cut the traversal, so
//     removed datapaths are never pulled in.
//
//  3. Extraction. Live nodes are copied into a fresh module with dense
//     IDs; dead logic, registers, write ports and memories disappear.
//
// The defining invariant, enforced by property tests: for every job
// input, the slice computes feature values identical to the full
// instrumented design (and the approximation option never changes
// them either, by design of the supported accelerators).
package slice

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/instrument"
	"repro/internal/rtl"
)

// Options control slicing behaviour.
type Options struct {
	// ElideWaits enables wait-state elision (step 1). Without it the
	// slice takes as long as the full design, which defeats the purpose;
	// the option exists for the ablation benchmark.
	ElideWaits bool
	// ApproximateDataWaits additionally elides self-loop states guarded
	// by non-counter signals, cutting datapath dependencies at the cost
	// of unmodeled latency (the djpeg case).
	ApproximateDataWaits bool
	// Prune folds abstract-interpretation const facts into the
	// post-slice cleanup: registers and cones the elided guards freeze
	// are proven constant globally and removed, beyond what local
	// folding sees. Behavior on done and the witness registers is
	// preserved (see absint.Prune).
	Prune bool
}

// DefaultOptions is the configuration the paper's flow corresponds to.
func DefaultOptions() Options {
	return Options{ElideWaits: true, ApproximateDataWaits: true, Prune: true}
}

// Result is a generated hardware slice.
type Result struct {
	// M is the sliced module.
	M *rtl.Module
	// Kept lists the feature indices (into the source Instrumented
	// catalog) the slice computes, in witness order.
	Kept []int
	// WitnessRegs are the slice-module register indices of the kept
	// feature witnesses, aligned with Kept.
	WitnessRegs []int
	// ElidedWaits counts counter-wait states removed; ApproxWaits counts
	// data-dependent waits removed under ApproximateDataWaits.
	ElidedWaits int
	ApproxWaits int
}

// ReadFeatures extracts the kept features from a slice simulation, in
// Kept order.
func (r *Result) ReadFeatures(s *rtl.Sim) []float64 {
	out := make([]float64, len(r.WitnessRegs))
	for i, ri := range r.WitnessRegs {
		out[i] = float64(s.RegValue(ri))
	}
	return out
}

// Slice builds a hardware slice of ins that computes the features
// selected by keep (indices into ins.Features).
func Slice(ins *instrument.Instrumented, keep []int, opt Options) (*Result, error) {
	m := ins.M
	a := ins.Analysis
	if len(keep) == 0 {
		return nil, fmt.Errorf("slice: no features selected")
	}
	for _, k := range keep {
		if k < 0 || k >= len(ins.Features) {
			return nil, fmt.Errorf("slice: feature index %d out of range", k)
		}
	}

	res := &Result{Kept: append([]int(nil), keep...)}

	// Step 1a: plan guard substitutions for wait elision.
	sub := map[rtl.NodeID]subst{}
	// apvPatch maps a counter register node to the limit node whose
	// value the APV witness should sample instead.
	apvPatch := map[rtl.NodeID]rtl.NodeID{}
	if opt.ElideWaits {
		for _, ws := range a.WaitStates {
			// Exit taken when guard==1 (GuardNeg=false) or guard==0.
			sub[ws.Guard] = subst{constVal: boolConst(!ws.GuardNeg)}
			apvPatch[a.Counters[ws.Counter].Node] = ws.Limit
			res.ElidedWaits++
		}
	}
	if opt.ElideWaits && opt.ApproximateDataWaits {
		for _, dw := range a.DataWaits() {
			if _, done := sub[dw.Guard]; done {
				continue
			}
			sub[dw.Guard] = subst{constVal: boolConst(!dw.Neg)}
			res.ApproxWaits++
		}
	}

	// Step 2 + 3: copy the cones of the kept witnesses and Done into a
	// fresh module, applying substitutions. The copier works recursively
	// with memoization, which both computes the live set and emits nodes
	// in valid SSA order.
	c := newCopier(m, sub)

	// Registers must be discovered before their next-cones are copied;
	// the copier queues registers it encounters and we drain the queue
	// until closure.
	var keptWitness []rtl.NodeID
	for _, k := range keep {
		keptWitness = append(keptWitness, ins.Features[k].WitnessNode)
	}
	for _, w := range keptWitness {
		c.copy(w, nil)
	}
	newDone := c.copy(m.Done, nil)
	c.drainRegs(apvPatch, ins)

	// Copy write ports whose memory is live (reads in the slice must see
	// writes the slice's own logic performs).
	for _, w := range m.Writes {
		if nm, ok := c.memMap[w.Mem]; ok {
			c.out.Writes = append(c.out.Writes, rtl.MemWrite{
				Mem:  nm,
				Addr: c.copy(w.Addr, nil),
				Data: c.copy(w.Data, nil),
				En:   c.copy(w.En, nil),
			})
		}
	}
	c.drainRegs(apvPatch, ins)

	c.out.Done = newDone
	c.out.Name = m.Name + "_slice"
	if err := c.out.Validate(); err != nil {
		return nil, fmt.Errorf("slice: invalid result: %w", err)
	}

	for _, w := range keptWitness {
		nw, ok := c.memo[w]
		if !ok {
			return nil, fmt.Errorf("slice: witness %d not copied", w)
		}
		ri := c.out.RegIndex(nw)
		if ri < 0 {
			return nil, fmt.Errorf("slice: witness %d not a register in slice", w)
		}
		res.WitnessRegs = append(res.WitnessRegs, ri)
	}
	res.M = c.out

	// Post-slice cleanup: with elided guards now constant, whole mux
	// arms fold away and the counters that only fed them die. Iterate
	// until the netlist stops shrinking (liveness is computed before
	// folding, so a pass can expose more dead state for the next one).
	for iter := 0; iter < 4; iter++ {
		before := len(res.M.Nodes) + len(res.M.Regs)
		var simplified *rtl.Module
		var regMap map[int]int
		if opt.Prune {
			simplified, regMap = absint.Prune(res.M, res.WitnessRegs)
		} else {
			simplified, regMap = rtl.Simplify(res.M, res.WitnessRegs)
		}
		remapped := make([]int, len(res.WitnessRegs))
		for i, ri := range res.WitnessRegs {
			nri, ok := regMap[ri]
			if !ok {
				return nil, fmt.Errorf("slice: witness register lost in simplification")
			}
			remapped[i] = nri
		}
		res.M = simplified
		res.WitnessRegs = remapped
		if len(res.M.Nodes)+len(res.M.Regs) >= before {
			break
		}
	}
	if err := res.M.Validate(); err != nil {
		return nil, fmt.Errorf("slice: invalid simplified result: %w", err)
	}
	return res, nil
}

func boolConst(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

type subst struct {
	constVal uint64
}

// copier performs the memoized recursive extraction.
type copier struct {
	src    *rtl.Module
	out    *rtl.Module
	sub    map[rtl.NodeID]subst
	memo   map[rtl.NodeID]rtl.NodeID
	memMap map[int32]int32
	// regQueue holds source register indices whose next expressions
	// still need copying.
	regQueue []int
	queued   map[int]bool
}

func newCopier(src *rtl.Module, sub map[rtl.NodeID]subst) *copier {
	return &copier{
		src:    src,
		out:    &rtl.Module{Srcs: src.Srcs},
		sub:    sub,
		memo:   make(map[rtl.NodeID]rtl.NodeID),
		memMap: make(map[int32]int32),
		queued: make(map[int]bool),
	}
}

// copy clones the cone of old into the output module and returns the new
// ID. overlay, if non-nil, maps source nodes to *source* replacement
// nodes within this call only (used for APV retargeting); overlay copies
// are not memoized globally.
func (c *copier) copy(old rtl.NodeID, overlay map[rtl.NodeID]rtl.NodeID) rtl.NodeID {
	if overlay != nil {
		if rep, ok := overlay[old]; ok {
			return c.copy(rep, nil)
		}
	} else if nid, ok := c.memo[old]; ok {
		return nid
	}
	if s, ok := c.sub[old]; ok {
		nid := c.emit(rtl.Node{Op: rtl.OpConst, Width: c.src.Nodes[old].Width, Const: s.constVal})
		if overlay == nil {
			c.memo[old] = nid
		}
		return nid
	}
	n := c.src.Nodes[old] // copy
	switch n.Op {
	case rtl.OpReg:
		// Register state nodes copy as registers; their next cones are
		// queued for later so recursion terminates.
		if overlay == nil {
			// Reserve the memo entry before queueing to break cycles.
			nid := c.emit(n)
			c.memo[old] = nid
			if ri := c.src.RegIndex(old); ri >= 0 && !c.queued[ri] {
				c.queued[ri] = true
				c.regQueue = append(c.regQueue, ri)
			}
			return nid
		}
		// Under an overlay a register reference copies through the
		// global path (registers themselves are never overlaid targets
		// other than via explicit overlay entries handled above).
		return c.copy(old, nil)
	case rtl.OpMemRead:
		newMem := c.mapMem(n.Mem)
		n.Args[0] = c.copy(n.Args[0], overlay)
		n.Mem = newMem
		return c.emitMaybeMemo(old, n, overlay)
	default:
		for i := 0; i < int(n.NArgs); i++ {
			n.Args[i] = c.copy(n.Args[i], overlay)
		}
		return c.emitMaybeMemo(old, n, overlay)
	}
}

func (c *copier) emitMaybeMemo(old rtl.NodeID, n rtl.Node, overlay map[rtl.NodeID]rtl.NodeID) rtl.NodeID {
	nid := c.emit(n)
	if overlay == nil {
		c.memo[old] = nid
	}
	return nid
}

func (c *copier) emit(n rtl.Node) rtl.NodeID {
	id := rtl.NodeID(len(c.out.Nodes))
	c.out.Nodes = append(c.out.Nodes, n)
	return id
}

func (c *copier) mapMem(old int32) int32 {
	if nm, ok := c.memMap[old]; ok {
		return nm
	}
	src := c.src.Mems[old]
	cp := &rtl.Mem{Name: src.Name, Words: src.Words, ROM: src.ROM}
	if src.ROM {
		cp.Data = append([]uint64(nil), src.Data...)
	}
	nm := int32(len(c.out.Mems))
	c.out.Mems = append(c.out.Mems, cp)
	c.memMap[old] = nm
	return nm
}

// drainRegs copies queued registers' next expressions until closure.
// APV witnesses of elided counters have their next cone copied under an
// overlay that retargets the counter register to the wait limit.
func (c *copier) drainRegs(apvPatch map[rtl.NodeID]rtl.NodeID, ins *instrument.Instrumented) {
	apvWitness := map[rtl.NodeID]map[rtl.NodeID]rtl.NodeID{}
	for _, f := range ins.Features {
		if f.Kind != instrument.APV || f.Counter < 0 {
			continue
		}
		cn := ins.Analysis.Counters[f.Counter].Node
		if limit, ok := apvPatch[cn]; ok {
			apvWitness[f.WitnessNode] = map[rtl.NodeID]rtl.NodeID{cn: limit}
		}
	}
	for len(c.regQueue) > 0 {
		ri := c.regQueue[len(c.regQueue)-1]
		c.regQueue = c.regQueue[:len(c.regQueue)-1]
		r := c.src.Regs[ri]
		overlay := apvWitness[r.Node]
		newNext := c.copy(r.Next, overlay)
		c.out.Regs = append(c.out.Regs, rtl.Reg{
			Node: c.memo[r.Node],
			Next: newNext,
			Init: r.Init,
			Name: r.Name,
		})
	}
}
