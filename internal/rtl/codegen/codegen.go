// Package codegen translates a netlist into specialized straight-line
// Go — the generation half of the native execution engine (the runtime
// half is rtl's NativeStep registry).
//
// The translation is Verilator's move taken one step further than the
// compiled engine: where Compile lowers the node DAG to a flat
// instruction stream that still pays one dispatch per instruction per
// cycle, codegen unrolls the cycle body into ordinary Go statements the
// Go compiler optimizes like any other code — constants become
// literals, width masks are baked in (and elided where the operand
// widths prove them redundant), intermediate values live in locals the
// register allocator can keep in machine registers, and instruction
// dispatch disappears entirely.
//
// On top of the unrolling, the translator specializes control flow per
// FSM state. The structural analyses already recover each design's FSM
// (analyze) and the set of states actually reachable from reset under
// the pinned abstract values (absint.RefinedReachable). The generated
// step dispatches one Go switch on the latched state register and runs
// a per-state basic block in which the state is a known constant:
// state comparisons fold to literals, muxes they select collapse to
// copies, and whole control cones evaluate at generation time. Dead
// (unreachable) states get no arm at all; a default arm runs the
// unspecialized code so the generated step stays total even if an
// analysis bug ever produced an impossible state.
//
// On top of the specialization, the generated function runs whole
// jobs: registers and inputs live in locals across cycles, and each
// state's arm evaluates only the instructions its done test, memory
// writes and register latch need (the plan's hot lists, from a
// per-state demand analysis). Nothing is stored into the value array
// until the cycle the function returns on (the last one the limit
// allows, or the one that raises done): that cycle leaves the loop
// before its writes and latch, and runs again in full, storing every
// node's value.
//
// Both backends consume the same Plan: the Go source emitter (emit.go,
// used by cmd/rtlgen to produce the checked-in internal/rtl/native
// registry) and a closure evaluator (eval.go) that executes the plan
// directly. The evaluator exists so the differential tests and
// FuzzEngineDifferential can check the specialization logic on
// arbitrary random netlists without invoking the Go toolchain; the
// emitted source for the benchmark suite is then checked bit-exact by
// the suite differential tests and, for every generated shape under
// cut-off and full-length runs, by cmd/rtlgen's tests, and checked
// fresh by CI's generated-code drift gate.
//
// Bit-exactness contract: after every return — so after each Sim.Step
// and each Sim.Run — every node's value, every memory word and the
// cycle count equal the interpreter's, and each cycle mirrors the
// interpreter's four phases (combinational evaluation in SSA order,
// memory-write commit, simultaneous register latch, caller-side toggle
// counting). Between the cycles inside one call the value array is
// not maintained; activity counting therefore steps one cycle per
// call, and Value/RegValue/Toggles/Mem observe interpreter state
// whenever the caller can look.
package codegen

import (
	"sort"

	"repro/internal/absint"
	"repro/internal/analyze"
	"repro/internal/rtl"
)

// maxStates caps FSM-state specialization: beyond this many reachable
// states the per-state arms stop paying for their code size (and the
// generated source would bloat linearly), so the plan falls back to
// one unspecialized straight-line body.
const maxStates = 16

// kind discriminates plan instruction forms. pGeneric evaluates the
// node's op over current values; the others are partial-evaluation
// residues.
type kind uint8

const (
	// pGeneric evaluates Op over the current value array.
	pGeneric kind = iota
	// pConst stores a value proven constant in this context.
	pConst
	// pCopy stores vals[a] & mask — a mux whose selector is known.
	pCopy
	// pShlImm / pShrImm shift by a known amount < 64.
	pShlImm
	pShrImm
)

// inst is one planned operation. dst/a/b/c index the value array; mask
// is the destination width mask; imm is the pConst value or the
// pShlImm/pShrImm shift amount.
type inst struct {
	kind kind
	op   rtl.Op
	dst  int32
	a    int32
	b    int32
	c    int32
	mem  int32
	mask uint64
	imm  uint64
}

// Plan is a netlist translated for specialized execution: a
// state-independent prefix, optionally a per-state specialization of
// the state-dependent suffix, and the unspecialized suffix as the
// default arm. Immutable once built; safe to share across Sims.
type Plan struct {
	m *rtl.Module
	// prefix holds the comb nodes independent of the specialized state
	// register, in SSA order (when no FSM is specialized, every comb
	// node is here and the suffix pieces are empty).
	prefix []inst
	// stateNode is the specialized FSM's OpReg node, or -1.
	stateNode int32
	// stateVals are the reachable states, ascending; arms[i] is the
	// suffix specialized under stateVals[i].
	stateVals []uint64
	arms      [][]inst
	// generic is the unspecialized suffix (the default arm).
	generic []inst
	armOf   map[uint64]int

	// The hot lists are what each cycle of a multi-cycle run evaluates
	// first: only the instructions the done test, the memory writes and
	// the register latch need, transitively. The cycle a run returns on
	// (done, or the last the limit allows) then runs the full lists.
	// hotPrefix holds the prefix instructions every arm needs;
	// hotArms[i] (and hotGeneric for the default arm) the rest of the
	// prefix that arm needs, followed by its needed suffix instructions,
	// each part in SSA order. An unspecialized plan has only hotPrefix.
	hotPrefix  []inst
	hotArms    [][]inst
	hotGeneric []inst
}

// Module returns the module this plan was built from.
func (p *Plan) Module() *rtl.Module { return p.m }

// StateCount reports how many FSM states the plan specializes (0 when
// unspecialized).
func (p *Plan) StateCount() int { return len(p.stateVals) }

// StateReg returns the specialized state register's node, or
// rtl.InvalidNode.
func (p *Plan) StateReg() rtl.NodeID {
	if p.stateNode < 0 {
		return rtl.InvalidNode
	}
	return rtl.NodeID(p.stateNode)
}

// Build translates a validated module into a plan. It never fails: a
// module with no (usable) FSM simply gets an unspecialized plan.
func Build(m *rtl.Module) *Plan {
	p := &Plan{m: m, stateNode: -1}

	stateNode, states := pickFSM(m)

	// Base knowledge: constants hold their literal value everywhere.
	baseKnown := make(map[int32]uint64)
	for i := range m.Nodes {
		if n := &m.Nodes[i]; n.Op == rtl.OpConst {
			baseKnown[int32(i)] = n.Const & n.Mask()
		}
	}

	if stateNode < 0 {
		p.unspecialized(baseKnown)
		return p
	}

	// Partition combinational nodes into the state-independent prefix
	// and the state-dependent suffix. Dependence flows through
	// combinational args only: other registers latch at cycle end, so
	// they cannot carry this cycle's state value back into the prefix.
	dep := make([]bool, len(m.Nodes))
	dep[stateNode] = true
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Op {
		case rtl.OpConst, rtl.OpInput, rtl.OpReg:
			continue
		}
		for a := 0; a < int(n.NArgs); a++ {
			if dep[n.Args[a]] {
				dep[i] = true
				break
			}
		}
	}
	var prefixIDs, suffixIDs []rtl.NodeID
	for i := range m.Nodes {
		switch m.Nodes[i].Op {
		case rtl.OpConst, rtl.OpInput, rtl.OpReg:
			continue
		}
		if dep[i] {
			suffixIDs = append(suffixIDs, rtl.NodeID(i))
		} else {
			prefixIDs = append(prefixIDs, rtl.NodeID(i))
		}
	}

	// Size guard: the arms duplicate the suffix once per state. Past
	// this budget the emitted source (and icache footprint) grows out
	// of proportion to the win, so fall back to one straight-line body
	// — still dispatch-free, just not state-specialized.
	if len(suffixIDs)*(len(states)+1) > 60000 {
		p.unspecialized(baseKnown)
		return p
	}

	prefixKnown := copyKnown(baseKnown)
	p.prefix = planOps(m, prefixIDs, prefixKnown)

	p.stateNode = int32(stateNode)
	p.stateVals = states
	p.armOf = make(map[uint64]int, len(states))
	// Per-state demand: each arm (the default one last) marks what its
	// own roots need; prefix instructions every arm needs are hoisted
	// out of the state dispatch. Arms that are done on every cycle run
	// in full and do not vote on the hoisting.
	var needs, voters [][]bool
	addDemand := func(suffix []inst, known map[int32]uint64) {
		need := demand(m, p.prefix, suffix, known)
		needs = append(needs, need)
		if !alwaysDone(m, known) {
			voters = append(voters, need)
		}
	}
	for ai, sv := range states {
		known := copyKnown(prefixKnown)
		known[int32(stateNode)] = sv
		p.arms = append(p.arms, planOps(m, suffixIDs, known))
		p.armOf[sv] = ai
		addDemand(p.arms[ai], known)
	}
	genKnown := copyKnown(prefixKnown)
	p.generic = planOps(m, suffixIDs, genKnown)
	addDemand(p.generic, genKnown)
	common := func(id int32) bool {
		for _, need := range voters {
			if !need[id] {
				return false
			}
		}
		return len(voters) > 0
	}
	p.hotPrefix = filter(p.prefix, common)
	armHot := func(arm []inst, need []bool) []inst {
		own := func(id int32) bool { return need[id] && !common(id) }
		return append(filter(p.prefix, own), filter(arm, func(id int32) bool { return need[id] })...)
	}
	for ai := range states {
		p.hotArms = append(p.hotArms, armHot(p.arms[ai], needs[ai]))
	}
	p.hotGeneric = armHot(p.generic, needs[len(states)])
	return p
}

// unspecialized makes p one straight-line body over every comb node.
func (p *Plan) unspecialized(baseKnown map[int32]uint64) {
	known := copyKnown(baseKnown)
	p.stateNode = -1
	p.prefix = planOps(p.m, combNodes(p.m, nil), known)
	need := demand(p.m, p.prefix, nil, known)
	p.hotPrefix = filter(p.prefix, func(id int32) bool { return need[id] })
}

// demand marks the comb nodes one cycle needs to reach its done test,
// memory writes and register latch, through the residual instructions
// prefix then suffix, under the literal knowledge of that scope. A
// write port whose enable is known zero needs neither address nor
// data. Arguments are marked even when they are literals in scope: the
// evaluator reads them from the value array, so their (pConst)
// instructions must run too; the emitter prints them as literals.
func demand(m *rtl.Module, prefix, suffix []inst, known map[int32]uint64) []bool {
	need := make([]bool, len(m.Nodes))
	need[m.Done] = true
	if alwaysDone(m, known) {
		// Every cycle in this scope is a done cycle, which runs in full.
		return need
	}
	for i := range m.Writes {
		w := &m.Writes[i]
		need[w.En] = true
		if en, ok := known[int32(w.En)]; !ok || en != 0 {
			need[w.Addr], need[w.Data] = true, true
		}
	}
	for i := range m.Regs {
		need[m.Regs[i].Next] = true
	}
	mark := func(insts []inst) {
		for i := len(insts) - 1; i >= 0; i-- {
			in := &insts[i]
			if !need[in.dst] {
				continue
			}
			for _, a := range in.args(m) {
				need[a] = true
			}
		}
	}
	mark(suffix)
	mark(prefix)
	return need
}

// alwaysDone reports whether the done test is a nonzero literal under
// the scope's knowledge.
func alwaysDone(m *rtl.Module, known map[int32]uint64) bool {
	done, ok := known[int32(m.Done)]
	return ok && done != 0
}

// args lists the value-array slots the instruction reads.
func (in *inst) args(m *rtl.Module) []int32 {
	switch in.kind {
	case pConst:
		return nil
	case pGeneric:
		return []int32{in.a, in.b, in.c}[:m.Nodes[in.dst].NArgs]
	}
	return []int32{in.a}
}

// filter keeps the instructions whose destination satisfies keep.
func filter(insts []inst, keep func(int32) bool) []inst {
	var out []inst
	for _, in := range insts {
		if keep(in.dst) {
			out = append(out, in)
		}
	}
	return out
}

// pickFSM chooses the FSM register to specialize on: the one whose
// combinational cone is largest, among FSMs with a usable reachable
// state set (2..maxStates states, per absint's refinement). Returns
// (-1, nil) when no FSM qualifies.
func pickFSM(m *rtl.Module) (rtl.NodeID, []uint64) {
	sa := analyze.Analyze(m)
	if len(sa.FSMs) == 0 {
		return rtl.InvalidNode, nil
	}
	av := absint.Analyze(m)
	bestNode, bestScore := rtl.InvalidNode, -1
	var bestStates []uint64
	for fi := range sa.FSMs {
		f := &sa.FSMs[fi]
		reach := absint.RefinedReachable(av, sa, fi)
		if len(reach) < 2 || len(reach) > maxStates {
			continue
		}
		score := coneSize(m, f.StateNode)
		if score > bestScore {
			states := make([]uint64, 0, len(reach))
			for s := range reach { //detlint:allow sorted immediately below
				states = append(states, s)
			}
			sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
			bestNode, bestScore, bestStates = f.StateNode, score, states
		}
	}
	return bestNode, bestStates
}

// coneSize counts the combinational nodes downstream of a node.
func coneSize(m *rtl.Module, root rtl.NodeID) int {
	dep := make([]bool, len(m.Nodes))
	dep[root] = true
	count := 0
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Op {
		case rtl.OpConst, rtl.OpInput, rtl.OpReg:
			continue
		}
		for a := 0; a < int(n.NArgs); a++ {
			if dep[n.Args[a]] {
				dep[i] = true
				count++
				break
			}
		}
	}
	return count
}

// combNodes lists the module's combinational node IDs in SSA order,
// excluding skip (used for the unspecialized whole-module plan).
func combNodes(m *rtl.Module, skip []bool) []rtl.NodeID {
	var ids []rtl.NodeID
	for i := range m.Nodes {
		switch m.Nodes[i].Op {
		case rtl.OpConst, rtl.OpInput, rtl.OpReg:
			continue
		}
		if skip != nil && skip[i] {
			continue
		}
		ids = append(ids, rtl.NodeID(i))
	}
	return ids
}

func copyKnown(src map[int32]uint64) map[int32]uint64 {
	dst := make(map[int32]uint64, len(src))
	for k, v := range src { //detlint:allow value copy; iteration order immaterial
		dst[k] = v
	}
	return dst
}

// planOps partially evaluates the listed nodes (in the given SSA
// order) under the known-value map, appending to known as values are
// proven, and returns the residual instruction list.
func planOps(m *rtl.Module, ids []rtl.NodeID, known map[int32]uint64) []inst {
	out := make([]inst, 0, len(ids))
	for _, id := range ids {
		n := &m.Nodes[id]
		in := inst{
			kind: pGeneric,
			op:   n.Op,
			dst:  int32(id),
			a:    int32(n.Args[0]),
			b:    int32(n.Args[1]),
			c:    int32(n.Args[2]),
			mem:  n.Mem,
			mask: n.Mask(),
		}
		var argv [3]uint64
		argKnown := true
		for a := 0; a < int(n.NArgs); a++ {
			v, ok := known[int32(n.Args[a])]
			if !ok {
				argKnown = false
				break
			}
			argv[a] = v
		}
		switch {
		case argKnown && n.Op != rtl.OpMemRead:
			v := rtl.EvalNode(n, argv)
			known[int32(id)] = v
			in.kind, in.imm = pConst, v
		case n.Op == rtl.OpMux:
			if sel, ok := known[in.a]; ok {
				src := in.b
				if sel == 0 {
					src = in.c
				}
				if v, ok := known[src]; ok {
					v &= in.mask
					known[int32(id)] = v
					in.kind, in.imm = pConst, v
				} else {
					in.kind, in.a = pCopy, src
				}
			}
		case n.Op == rtl.OpShl || n.Op == rtl.OpShr:
			if sh, ok := known[in.b]; ok {
				if sh >= 64 {
					known[int32(id)] = 0
					in.kind, in.imm = pConst, 0
				} else if n.Op == rtl.OpShl {
					in.kind, in.imm = pShlImm, sh
				} else {
					in.kind, in.imm = pShrImm, sh
				}
			}
		case n.Op == rtl.OpAnd || n.Op == rtl.OpOr || n.Op == rtl.OpXor || n.Op == rtl.OpAdd:
			// One known operand can absorb the other (x & 0) or make the
			// node a copy of it (x & all-ones, x | 0, x ^ 0, x + 0); a
			// state-gated enable folds to zero in every other state.
			for _, kx := range [2][2]int32{{in.a, in.b}, {in.b, in.a}} {
				k, ok := known[kx[0]]
				if !ok {
					continue
				}
				xMask := m.Nodes[kx[1]].Mask()
				if n.Op == rtl.OpAnd && k == 0 {
					known[int32(id)] = 0
					in.kind, in.imm = pConst, 0
				} else if (n.Op == rtl.OpAnd && k&xMask == xMask) || (n.Op != rtl.OpAnd && k == 0) {
					in.kind, in.a = pCopy, kx[1]
				} else {
					continue
				}
				break
			}
		}
		out = append(out, in)
	}
	return out
}
