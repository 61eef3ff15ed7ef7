// Package analyze recovers control structure — finite state machines,
// latency counters, and wait states — from a lowered rtl netlist by
// purely structural static analysis.
//
// This is the Go counterpart of the paper's Yosys-based identification
// step (§3.3), which applies the FSM-extraction criteria of Shi et al.
// to synthesized RTL. No metadata flows from the construction of a
// module to its analysis: a register is an FSM because its next-state
// cone assigns constants selected by comparisons against the register
// itself, and a counter because its next-value cone contains a
// self-increment or self-decrement arm.
package analyze

import (
	"fmt"
	"sort"

	"repro/internal/rtl"
)

// maxLeaves bounds mux-tree enumeration; registers whose next trees are
// larger than this are left unclassified (conservative: fewer features,
// never wrong features).
const maxLeaves = 8192

// PathSel is one selector along a root-to-leaf path in a mux tree,
// with the polarity that path took (Neg means the selector was zero).
type PathSel struct {
	Node rtl.NodeID
	Neg  bool
}

// Transition is one recovered FSM transition.
type Transition struct {
	// From and To are state encodings. From == To marks an explicit or
	// implicit self-loop.
	From, To uint64
	// Guards is the mux path condition (conjunction) under which the
	// transition is taken, given the machine is in From. Empty means
	// unconditional.
	Guards []PathSel
}

// FSM is a register recognized as a state machine.
type FSM struct {
	// Reg indexes Module.Regs.
	Reg int
	// StateNode is the register's OpReg node; NextNode its next cone root.
	StateNode rtl.NodeID
	NextNode  rtl.NodeID
	// States lists the reachable state encodings in ascending order.
	States []uint64
	// Transitions lists recovered (From, To) arcs, including self-loops.
	Transitions []Transition
	// Name echoes the register's debug name for reporting only.
	Name string
}

// CounterDir distinguishes incrementing from decrementing counters.
type CounterDir int

// Counter directions.
const (
	Down CounterDir = -1
	Up   CounterDir = +1
)

// Load describes one initialization arm of a counter's next tree.
type Load struct {
	// Cond is the mux path condition under which the load happens.
	Cond []PathSel
	// Value is the node providing the loaded value (may be a constant).
	Value rtl.NodeID
}

// Counter is a register recognized as a latency counter.
type Counter struct {
	// Reg indexes Module.Regs.
	Reg int
	// Node is the register's OpReg node.
	Node rtl.NodeID
	// Dir is the counting direction.
	Dir CounterDir
	// Step is the constant increment/decrement magnitude.
	Step uint64
	// Loads lists the initialization arms.
	Loads []Load
	// Name echoes the register's debug name for reporting only.
	Name string
}

// WaitState is an FSM state whose only purpose is to wait for a counter
// to reach a limit: it has exactly one exit transition, guarded by a
// comparison between a detected counter and a limit, plus a self-loop.
// Wait states are the targets of the slicer's wait elision (§3.5).
type WaitState struct {
	// FSM indexes Analysis.FSMs; State is the waiting state's encoding.
	FSM   int
	State uint64
	// Exit is the state entered when the wait completes.
	Exit uint64
	// Guard is the comparison node controlling the exit, and GuardNeg
	// whether the exit is taken when the guard is zero.
	Guard    rtl.NodeID
	GuardNeg bool
	// Counter indexes Analysis.Counters.
	Counter int
	// Limit is the non-counter operand of the comparison (often const 0).
	Limit rtl.NodeID
}

// Analysis is the result of analyzing one module.
type Analysis struct {
	M          *rtl.Module
	FSMs       []FSM
	Counters   []Counter
	WaitStates []WaitState
	// counterOf maps an OpReg node to its Counters index (or absent).
	counterOf map[rtl.NodeID]int
}

// CounterByNode returns the Counters index for a register node, or -1.
func (a *Analysis) CounterByNode(id rtl.NodeID) int {
	if i, ok := a.counterOf[id]; ok {
		return i
	}
	return -1
}

// Analyze performs FSM, counter, and wait-state detection on a module.
func Analyze(m *rtl.Module) *Analysis {
	a := &Analysis{M: m, counterOf: make(map[rtl.NodeID]int)}
	for ri := range m.Regs {
		r := &m.Regs[ri]
		leaves, ok := muxLeaves(m, r.Next, nil, maxLeaves)
		if !ok {
			continue
		}
		if c, isCnt := classifyCounter(m, r, ri, leaves); isCnt {
			a.counterOf[r.Node] = len(a.Counters)
			a.Counters = append(a.Counters, c)
			continue
		}
		if f, isFSM := classifyFSM(m, r, ri, leaves); isFSM {
			a.FSMs = append(a.FSMs, f)
		}
	}
	a.findWaitStates()
	return a
}

// leaf is a mux-tree leaf with its root-to-leaf path condition.
type leaf struct {
	node rtl.NodeID
	path []PathSel
}

// muxLeaves enumerates the leaves of the mux tree rooted at id. A leaf
// is any node that is not an OpMux. The bool result is false if the
// enumeration exceeded the leaf budget.
func muxLeaves(m *rtl.Module, id rtl.NodeID, path []PathSel, budget int) ([]leaf, bool) {
	n := &m.Nodes[id]
	if n.Op != rtl.OpMux {
		p := make([]PathSel, len(path))
		copy(p, path)
		return []leaf{{node: id, path: p}}, true
	}
	if budget <= 0 {
		return nil, false
	}
	sel, tArm, fArm := n.Args[0], n.Args[1], n.Args[2]
	tLeaves, ok := muxLeaves(m, tArm, append(path, PathSel{Node: sel}), budget/2)
	if !ok {
		return nil, false
	}
	fLeaves, ok := muxLeaves(m, fArm, append(path, PathSel{Node: sel, Neg: true}), budget/2)
	if !ok {
		return nil, false
	}
	all := append(tLeaves, fLeaves...)
	if len(all) > budget {
		return nil, false
	}
	return all, true
}

// classifyCounter checks the counter criteria: at least one leaf is
// reg ± const with a nonzero constant step; remaining leaves are holds
// (the register itself) or loads (anything else). FSM-shaped registers
// never match because all their leaves are constants or self.
func classifyCounter(m *rtl.Module, r *rtl.Reg, ri int, leaves []leaf) (Counter, bool) {
	c := Counter{Reg: ri, Node: r.Node, Name: r.Name}
	foundStep := false
	for _, lf := range leaves {
		if lf.node == r.Node {
			continue // hold arm
		}
		if dir, step, ok := selfStep(m, lf.node, r.Node); ok {
			if foundStep && (dir != c.Dir || step != c.Step) {
				return Counter{}, false // inconsistent stepping: not a simple counter
			}
			c.Dir, c.Step = dir, step
			foundStep = true
			continue
		}
		c.Loads = append(c.Loads, Load{Cond: lf.path, Value: lf.node})
	}
	if !foundStep {
		return Counter{}, false
	}
	return c, true
}

// selfStep recognizes reg+k / reg-k leaves (either operand order for
// add). It returns the direction and constant step magnitude.
func selfStep(m *rtl.Module, id, regNode rtl.NodeID) (CounterDir, uint64, bool) {
	n := &m.Nodes[id]
	switch n.Op {
	case rtl.OpAdd:
		if n.Args[0] == regNode {
			if k, ok := m.EvalConst(n.Args[1]); ok && k != 0 {
				return Up, k, true
			}
		}
		if n.Args[1] == regNode {
			if k, ok := m.EvalConst(n.Args[0]); ok && k != 0 {
				return Up, k, true
			}
		}
	case rtl.OpSub:
		if n.Args[0] == regNode {
			if k, ok := m.EvalConst(n.Args[1]); ok && k != 0 {
				return Down, k, true
			}
		}
	}
	return 0, 0, false
}

// classifyFSM checks the FSM criteria of Shi et al. adapted to RT level:
// every next-tree leaf is a constant or the register itself, at least
// two distinct constants are assigned, and at least one selector in the
// tree compares the register against a constant.
func classifyFSM(m *rtl.Module, r *rtl.Reg, ri int, leaves []leaf) (FSM, bool) {
	stateSet := map[uint64]bool{r.Init: true}
	selfCompare := false
	for _, lf := range leaves {
		if lf.node == r.Node {
			// self leaf: ok
		} else if v, ok := m.EvalConst(lf.node); ok {
			stateSet[v] = true
		} else {
			return FSM{}, false
		}
		for _, ps := range lf.path {
			if comparesRegToConst(m, ps.Node, r.Node) {
				selfCompare = true
			}
		}
	}
	if len(stateSet) < 2 || !selfCompare {
		return FSM{}, false
	}
	f := FSM{Reg: ri, StateNode: r.Node, NextNode: r.Next, Name: r.Name}
	for s := range stateSet { //detlint:allow sorted immediately below
		f.States = append(f.States, s)
	}
	sort.Slice(f.States, func(i, j int) bool { return f.States[i] < f.States[j] })
	recoverTransitions(m, &f)
	return f, true
}

// comparesRegToConst reports whether node is Eq/Ne/Lt/Le with one
// operand being exactly the register node and the other a constant.
func comparesRegToConst(m *rtl.Module, id, regNode rtl.NodeID) bool {
	n := &m.Nodes[id]
	switch n.Op {
	case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe:
		if n.Args[0] == regNode {
			_, ok := m.EvalConst(n.Args[1])
			return ok
		}
		if n.Args[1] == regNode {
			_, ok := m.EvalConst(n.Args[0])
			return ok
		}
	}
	return false
}

// recoverTransitions rebuilds the transition table by partially
// evaluating the next tree once per state: selectors whose cones depend
// only on the state register and constants evaluate concretely, all
// others split the walk into both polarities.
func recoverTransitions(m *rtl.Module, f *FSM) {
	for _, s := range f.States {
		pe := &partialEval{m: m, regNode: f.StateNode, regVal: s, memo: map[rtl.NodeID]peVal{}}
		walkTransitions(m, pe, f, s, f.NextNode, nil)
	}
	// Deduplicate (From,To) pairs, keeping the first guard set seen.
	seen := map[[2]uint64]bool{}
	out := f.Transitions[:0]
	for _, tr := range f.Transitions {
		k := [2]uint64{tr.From, tr.To}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, tr)
	}
	f.Transitions = out
}

func walkTransitions(m *rtl.Module, pe *partialEval, f *FSM, from uint64, id rtl.NodeID, path []PathSel) {
	n := &m.Nodes[id]
	if n.Op != rtl.OpMux {
		var to uint64
		if id == f.StateNode {
			to = from
		} else if v, ok := pe.eval(id); ok {
			to = v
		} else if v, ok := m.EvalConst(id); ok {
			to = v
		} else {
			// Data-dependent leaf in an FSM tree cannot happen given
			// classifyFSM's leaf check, but guard against it anyway.
			return
		}
		g := make([]PathSel, len(path))
		copy(g, path)
		f.Transitions = append(f.Transitions, Transition{From: from, To: to, Guards: g})
		return
	}
	sel := n.Args[0]
	if v, ok := pe.eval(sel); ok {
		if v != 0 {
			walkTransitions(m, pe, f, from, n.Args[1], path)
		} else {
			walkTransitions(m, pe, f, from, n.Args[2], path)
		}
		return
	}
	if len(path) > 24 {
		return // pathological depth; give up on this subtree
	}
	// Peel state-resolved conjuncts/disjuncts off the selector so the
	// recorded guard is the residual data condition. Case-statement
	// lowering produces selectors like (state==S && !prev) && (cnt==0);
	// with the state pinned the residual is the bare counter compare,
	// which is what wait-state detection needs.
	residual, neg, constVal, isConst := peelSel(m, pe, sel, false)
	if isConst {
		if constVal != 0 {
			walkTransitions(m, pe, f, from, n.Args[1], path)
		} else {
			walkTransitions(m, pe, f, from, n.Args[2], path)
		}
		return
	}
	walkTransitions(m, pe, f, from, n.Args[1], append(path, PathSel{Node: residual, Neg: neg}))
	walkTransitions(m, pe, f, from, n.Args[2], append(path, PathSel{Node: residual, Neg: !neg}))
}

// peelSel strips parts of a 1-bit selector that partial evaluation
// resolves: And/Or arms that are known, and 1-bit negations. It returns
// either a constant (isConst=true) or the residual node with its
// polarity (neg=true means the original selector is the residual's
// negation).
func peelSel(m *rtl.Module, pe *partialEval, id rtl.NodeID, neg bool) (rtl.NodeID, bool, uint64, bool) {
	for {
		if v, ok := pe.eval(id); ok {
			if neg {
				if v == 0 {
					v = 1
				} else {
					v = 0
				}
			}
			return id, neg, v, true
		}
		n := &m.Nodes[id]
		if (n.Op == rtl.OpAnd || n.Op == rtl.OpOr) && n.Width != 1 {
			// Bitwise peeling is only logical peeling at width 1.
			return id, neg, 0, false
		}
		switch n.Op {
		case rtl.OpAnd:
			if v, ok := pe.eval(n.Args[0]); ok {
				if v == 0 {
					return id, neg, boolVal(neg), true
				}
				id = n.Args[1]
				continue
			}
			if v, ok := pe.eval(n.Args[1]); ok {
				if v == 0 {
					return id, neg, boolVal(neg), true
				}
				id = n.Args[0]
				continue
			}
		case rtl.OpOr:
			if v, ok := pe.eval(n.Args[0]); ok {
				if v != 0 {
					return id, neg, boolVal(!neg), true
				}
				id = n.Args[1]
				continue
			}
			if v, ok := pe.eval(n.Args[1]); ok {
				if v != 0 {
					return id, neg, boolVal(!neg), true
				}
				id = n.Args[0]
				continue
			}
		case rtl.OpNot:
			if n.Width == 1 {
				neg = !neg
				id = n.Args[0]
				continue
			}
		case rtl.OpNe, rtl.OpEq:
			// Ne(x, 0) on a 1-bit x is x; Eq(x, 0) is !x. These appear
			// when a frontend normalizes conditions with a != 0 wrapper.
			if other, ok := zeroComparand(m, n); ok && m.Nodes[other].Width == 1 {
				if n.Op == rtl.OpEq {
					neg = !neg
				}
				id = other
				continue
			}
		}
		return id, neg, 0, false
	}
}

// zeroComparand returns the non-constant operand of cmp(x, 0)/cmp(0, x).
func zeroComparand(m *rtl.Module, n *rtl.Node) (rtl.NodeID, bool) {
	if v, ok := m.EvalConst(n.Args[1]); ok && v == 0 {
		return n.Args[0], true
	}
	if v, ok := m.EvalConst(n.Args[0]); ok && v == 0 {
		return n.Args[1], true
	}
	return 0, false
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type peVal struct {
	v     uint64
	known bool
}

// partialEval evaluates combinational expressions with one register
// pinned to a value; everything else (inputs, memories, other registers)
// is unknown.
type partialEval struct {
	m       *rtl.Module
	regNode rtl.NodeID
	regVal  uint64
	memo    map[rtl.NodeID]peVal
}

func (p *partialEval) eval(id rtl.NodeID) (uint64, bool) {
	if r, ok := p.memo[id]; ok {
		return r.v, r.known
	}
	v, known := p.evalUncached(id)
	p.memo[id] = peVal{v, known}
	return v, known
}

func (p *partialEval) evalUncached(id rtl.NodeID) (uint64, bool) {
	m := p.m
	n := &m.Nodes[id]
	switch n.Op {
	case rtl.OpConst:
		return n.Const & n.Mask(), true
	case rtl.OpReg:
		if id == p.regNode {
			return p.regVal & n.Mask(), true
		}
		return 0, false
	case rtl.OpInput, rtl.OpMemRead:
		return 0, false
	case rtl.OpMux:
		sv, sk := p.eval(n.Args[0])
		if !sk {
			// If both arms agree and are known, the mux is known anyway.
			av, ak := p.eval(n.Args[1])
			bv, bk := p.eval(n.Args[2])
			if ak && bk && av == bv {
				return av & n.Mask(), true
			}
			return 0, false
		}
		if sv != 0 {
			return p.eval(n.Args[1])
		}
		return p.eval(n.Args[2])
	}
	var vals [3]uint64
	for i := 0; i < int(n.NArgs); i++ {
		v, ok := p.eval(n.Args[i])
		if !ok {
			return 0, false
		}
		vals[i] = v
	}
	return evalOpShim(n, vals), true
}

// evalOpShim re-dispatches to the rtl package's operation semantics via
// a tiny local copy kept in sync by TestEvalShimMatchesSim.
func evalOpShim(n *rtl.Node, v [3]uint64) uint64 {
	var r uint64
	switch n.Op {
	case rtl.OpAdd:
		r = v[0] + v[1]
	case rtl.OpSub:
		r = v[0] - v[1]
	case rtl.OpMul:
		r = v[0] * v[1]
	case rtl.OpAnd:
		r = v[0] & v[1]
	case rtl.OpOr:
		r = v[0] | v[1]
	case rtl.OpXor:
		r = v[0] ^ v[1]
	case rtl.OpNot:
		r = ^v[0]
	case rtl.OpShl:
		if v[1] >= 64 {
			r = 0
		} else {
			r = v[0] << v[1]
		}
	case rtl.OpShr:
		if v[1] >= 64 {
			r = 0
		} else {
			r = v[0] >> v[1]
		}
	case rtl.OpEq:
		if v[0] == v[1] {
			r = 1
		}
	case rtl.OpNe:
		if v[0] != v[1] {
			r = 1
		}
	case rtl.OpLt:
		if v[0] < v[1] {
			r = 1
		}
	case rtl.OpLe:
		if v[0] <= v[1] {
			r = 1
		}
	default:
		panic(fmt.Sprintf("analyze: evalOpShim on %s", n.Op))
	}
	return r & n.Mask()
}

// findWaitStates scans recovered FSMs for the wait idiom: a state with a
// self-loop and exactly one exit whose guard is a comparison between a
// detected counter and a limit.
func (a *Analysis) findWaitStates() {
	for fi := range a.FSMs {
		f := &a.FSMs[fi]
		byFrom := map[uint64][]Transition{}
		for _, tr := range f.Transitions {
			byFrom[tr.From] = append(byFrom[tr.From], tr)
		}
		for _, s := range f.States {
			trs := byFrom[s]
			var exits []Transition
			hasSelf := false
			for _, tr := range trs {
				if tr.To == s {
					hasSelf = true
				} else {
					exits = append(exits, tr)
				}
			}
			if !hasSelf || len(exits) == 0 {
				continue
			}
			// Every exit must be gated by the same leading counter
			// comparison; exits may branch further on other conditions
			// (e.g. "last item?" deciding the next state), which is
			// fine — elision only removes the waiting, not the branch.
			g := exits[0].Guards
			if len(g) == 0 {
				continue
			}
			lead := g[0]
			ci, limit := a.counterCompare(lead.Node)
			if ci < 0 {
				continue
			}
			shared := true
			for _, ex := range exits[1:] {
				if len(ex.Guards) == 0 || ex.Guards[0] != lead {
					shared = false
					break
				}
			}
			if !shared {
				continue
			}
			a.WaitStates = append(a.WaitStates, WaitState{
				FSM:      fi,
				State:    s,
				Exit:     exits[0].To,
				Guard:    lead.Node,
				GuardNeg: lead.Neg,
				Counter:  ci,
				Limit:    limit,
			})
		}
	}
}

// counterCompare recognizes cmp(counter, limit) or cmp(limit, counter)
// and returns the counter index and the limit node, or (-1, 0).
func (a *Analysis) counterCompare(id rtl.NodeID) (int, rtl.NodeID) {
	n := &a.M.Nodes[id]
	switch n.Op {
	case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe:
	default:
		return -1, 0
	}
	if ci := a.CounterByNode(n.Args[0]); ci >= 0 {
		return ci, n.Args[1]
	}
	if ci := a.CounterByNode(n.Args[1]); ci >= 0 {
		return ci, n.Args[0]
	}
	return -1, 0
}

// Cone returns the set of nodes in the backward combinational-and-
// sequential cone of the given roots: following node arguments, and for
// registers their next expressions, and for memory reads the write
// ports of the same memory. The result maps node ID to true.
func Cone(m *rtl.Module, roots []rtl.NodeID) map[rtl.NodeID]bool {
	live := make(map[rtl.NodeID]bool)
	var stack []rtl.NodeID
	push := func(id rtl.NodeID) {
		if !live[id] {
			live[id] = true
			stack = append(stack, id)
		}
	}
	memLive := make(map[int32]bool)
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.Nodes[id]
		for i := 0; i < int(n.NArgs); i++ {
			push(n.Args[i])
		}
		if n.Op == rtl.OpReg {
			if ri := m.RegIndex(id); ri >= 0 {
				push(m.Regs[ri].Next)
			}
		}
		if n.Op == rtl.OpMemRead && !memLive[n.Mem] {
			memLive[n.Mem] = true
			for _, w := range m.Writes {
				if w.Mem == n.Mem {
					push(w.Addr)
					push(w.Data)
					push(w.En)
				}
			}
		}
	}
	return live
}
