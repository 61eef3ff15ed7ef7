package analyze

import "repro/internal/rtl"

// This file holds the exported structural queries that downstream
// passes — the slicer's wait handling and the lint rules of package
// lint — ask of a completed analysis: FSM state reachability, wait-like
// states not covered by any counter, and forward value-flow (consumer)
// tracking for the slice-safety obligation.

// ReachableStates returns the set of states of FSM fi reachable from
// its reset state by following the recovered transition table. Guards
// are ignored (a guarded arc is assumed takeable), so the result is an
// over-approximation of dynamic reachability — exactly what a lint rule
// wants: a state outside this set can never be entered.
func (a *Analysis) ReachableStates(fi int) map[uint64]bool {
	f := &a.FSMs[fi]
	init := a.M.Regs[f.Reg].Init
	reach := map[uint64]bool{init: true}
	work := []uint64{init}
	byFrom := map[uint64][]uint64{}
	for _, tr := range f.Transitions {
		byFrom[tr.From] = append(byFrom[tr.From], tr.To)
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, to := range byFrom[s] {
			if !reach[to] {
				reach[to] = true
				work = append(work, to)
			}
		}
	}
	return reach
}

// DataWait is an FSM state shaped like a wait state — a self-loop with
// exactly one exit under a single guard — whose guard is NOT a
// comparison against a detected counter. No AIV/APV feature captures
// the time spent in such a state, so its input-dependent latency is
// invisible to the prediction model (the paper's Figure 10 djpeg
// residual error). The slicer's ApproximateDataWaits option elides
// these guards, trading that unmodeled latency for slice speed.
type DataWait struct {
	// FSM indexes Analysis.FSMs; State is the waiting state's encoding.
	FSM   int
	State uint64
	// Guard is the exit condition node; Neg is its polarity (true means
	// the exit is taken when Guard is zero).
	Guard rtl.NodeID
	Neg   bool
}

// DataWaits finds the wait-shaped states whose exit guard is not a
// counter comparison. States already matched by counter wait-state
// detection are excluded.
func (a *Analysis) DataWaits() []DataWait {
	counterWaits := map[rtl.NodeID]bool{}
	for _, ws := range a.WaitStates {
		counterWaits[ws.Guard] = true
	}
	var out []DataWait
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
			if !hasSelf || len(exits) != 1 || len(exits[0].Guards) != 1 {
				continue
			}
			g := exits[0].Guards[0]
			if counterWaits[g.Node] {
				continue
			}
			out = append(out, DataWait{FSM: fi, State: s, Guard: g.Node, Neg: g.Neg})
		}
	}
	return out
}

// Escape describes where a node's value flows: the registers (by Regs
// index) whose next value depends on it, the write ports (by Writes
// index) with a dependent operand, and whether the done signal depends
// on it. The source node's own register — when the source is an OpReg
// node — is not reported: a register feeding its own update is how
// every counter works, not an escape.
type Escape struct {
	Regs   []int
	Writes []int
	Done   bool
}

// Empty reports whether the value escapes nowhere.
func (e Escape) Empty() bool { return len(e.Regs) == 0 && len(e.Writes) == 0 && !e.Done }

// Escapes computes the forward value flow of src through the netlist:
// every node whose value depends on src — through combinational
// arguments and across register boundaries — is tainted, and the
// tainted sinks are collected. cut, when non-nil, names nodes that
// block propagation (the slicer's elided wait guards: they become
// constants in the slice, so nothing flows through them there).
//
// This is the consumer query behind the slice-safety obligation: wait
// elision is sound only if the awaited counter's value escapes nowhere
// once the elided guards are cut.
func Escapes(m *rtl.Module, src rtl.NodeID, cut map[rtl.NodeID]bool) Escape {
	uses := m.Uses()
	tainted := make(map[rtl.NodeID]bool, 16)
	var stack []rtl.NodeID
	push := func(id rtl.NodeID) {
		if cut[id] || tainted[id] {
			return
		}
		tainted[id] = true
		stack = append(stack, id)
	}
	push(src)
	srcReg := m.RegIndex(src)
	var esc Escape
	seenReg := map[int]bool{}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range uses[id] {
			push(u)
		}
		// Cross register boundaries: a tainted next expression taints the
		// register's state node on the following cycle.
		for ri := range m.Regs {
			r := &m.Regs[ri]
			if r.Next != id || seenReg[ri] {
				continue
			}
			seenReg[ri] = true
			if ri != srcReg {
				esc.Regs = append(esc.Regs, ri)
			}
			push(r.Node)
		}
	}
	for wi, w := range m.Writes {
		if tainted[w.Addr] || tainted[w.Data] || tainted[w.En] {
			esc.Writes = append(esc.Writes, wi)
		}
	}
	if tainted[m.Done] {
		esc.Done = true
	}
	return esc
}

// TaintedFrom returns the full forward taint set of src under the same
// propagation rules as Escapes (combinational uses plus register
// crossings, stopping at cut nodes). Exposed for passes that need to
// intersect the flow with a cone rather than just read the sinks.
func TaintedFrom(m *rtl.Module, src rtl.NodeID, cut map[rtl.NodeID]bool) map[rtl.NodeID]bool {
	uses := m.Uses()
	nextOf := map[rtl.NodeID][]rtl.NodeID{}
	for ri := range m.Regs {
		r := &m.Regs[ri]
		nextOf[r.Next] = append(nextOf[r.Next], r.Node)
	}
	tainted := make(map[rtl.NodeID]bool, 16)
	var stack []rtl.NodeID
	push := func(id rtl.NodeID) {
		if cut[id] || tainted[id] {
			return
		}
		tainted[id] = true
		stack = append(stack, id)
	}
	push(src)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range uses[id] {
			push(u)
		}
		for _, rn := range nextOf[id] {
			push(rn)
		}
	}
	return tainted
}

// ConeWithCuts is Cone with substitution awareness: traversal does not
// descend through nodes in cut, mirroring how the slicer's guard
// substitution prevents elided logic from being pulled into the slice.
func ConeWithCuts(m *rtl.Module, roots []rtl.NodeID, cut map[rtl.NodeID]bool) map[rtl.NodeID]bool {
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
		if cut[id] {
			continue // elided: becomes a constant, cone stops here
		}
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
