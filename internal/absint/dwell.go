package absint

// dwell.go derives the exact dwell of counter waits, the states a
// hardware slice elides (slice.Options.ElideWaits): with every visit's
// length known in closed form, the full design's ticks are the slice's
// plus each elided wait's extra cycles times its entry count. It reuses
// the per-state pinned evaluation of bounds.go: the wait's arcs and its
// counter's conduct are read with the FSM pinned to the wait, and the
// value the counter enters with is read with the FSM pinned to each
// source state and the transition into the wait taken.

import (
	"fmt"

	"repro/internal/analyze"
	"repro/internal/rtl"
)

// WaitDwell is the closed-form dwell of one counter wait state. Every
// entry into the state loads its down-counter with one constant c, the
// counter steps down by s on every cycle the state waits, and the wait
// ends on the cycle its counter equals the constant limit L, with c ≥ L
// and s dividing c − L. So each visit lasts (c−L)/s + 1 cycles, while a
// slice that elides the wait leaves it after one.
type WaitDwell struct {
	// FSM indexes the structural analysis' FSMs; State is the wait
	// state's encoding.
	FSM   int
	State uint64
	// Sources lists the reachable states with a transition into State,
	// ascending.
	Sources []uint64
	// Extra is the cycles each visit spends in State beyond its first:
	// (c−L)/s.
	Extra uint64
}

// WaitDwells returns the closed-form dwell of every wait state of sa,
// aligned with sa.WaitStates, or an error naming the first wait that
// has none. av must be the abstract interpretation of sa.M.
func WaitDwells(av *Analysis, sa *analyze.Analysis) ([]WaitDwell, error) {
	sts := map[int]*stateAnalysis{}
	out := make([]WaitDwell, 0, len(sa.WaitStates))
	for _, ws := range sa.WaitStates {
		st := sts[ws.FSM]
		if st == nil {
			st = newStateAnalysis(av, sa, ws.FSM)
			sts[ws.FSM] = st
		}
		d, err := st.waitDwell(ws)
		if err != nil {
			return nil, fmt.Errorf("absint: wait state %d of %s: %w", ws.State, st.f.Name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// waitDwell checks one wait against the WaitDwell conditions.
func (st *stateAnalysis) waitDwell(ws analyze.WaitState) (WaitDwell, error) {
	m := st.av.M
	c := &st.sa.Counters[ws.Counter]
	k := ws.State
	out := WaitDwell{FSM: ws.FSM, State: k}
	g := &m.Nodes[ws.Guard]
	exitOnEq := (g.Op == rtl.OpEq && !ws.GuardNeg) || (g.Op == rtl.OpNe && ws.GuardNeg)
	if !exitOnEq {
		return out, fmt.Errorf("the wait does not end on %s == limit", c.Name)
	}
	if c.Dir != analyze.Down {
		return out, fmt.Errorf("counter %s does not count down", c.Name)
	}
	mask := rtl.WidthMask(m.Nodes[c.Node].Width)
	step := c.Step & mask
	if step == 0 {
		return out, fmt.Errorf("counter %s steps by zero", c.Name)
	}
	limit, ok := m.EvalConst(ws.Limit)
	if !ok {
		return out, fmt.Errorf("the limit of counter %s is not a constant", c.Name)
	}
	limit &= mask
	if !st.reachSet[k] {
		return out, nil // never entered: no visit to count
	}
	if m.Regs[st.f.Reg].Init == k {
		return out, fmt.Errorf("the FSM starts in the wait, so no transition counts its first visit")
	}
	if st.opaque[k] {
		return out, fmt.Errorf("next-state tree too large to analyze")
	}

	// The state stays exactly while the guard holds back its exit, and
	// the counter steps on every cycle it stays.
	vals := st.pinned(k)
	for _, a := range st.arcs[k] {
		stay := !a.unknown && a.to == k
		if a.unknown || !pathImplies(m, vals, a.path, ws.Guard, ws.GuardNeg != stay) {
			return out, fmt.Errorf("an arc out of the wait does not follow its guard")
		}
	}
	exit := &exitCtx{state: k, node: ws.Guard, neg: ws.GuardNeg}
	if steps, holds, other := st.counterConduct(k, ws.Counter, exit); !steps || holds || other {
		return out, fmt.Errorf("counter %s can hold or reload while the state waits", c.Name)
	}

	// Every entry loads one constant.
	var entry uint64
	entered := false
	for _, src := range st.reach {
		if src == k {
			continue
		}
		if st.opaque[src] {
			return out, fmt.Errorf("state %d may enter the wait through a tree too large to analyze", src)
		}
		into := false
		for _, a := range st.arcs[src] {
			if a.unknown {
				return out, fmt.Errorf("state %d has a transition to an unknown state", src)
			}
			if a.to != k {
				continue
			}
			v, ok := st.entryValue(src, c, a.path)
			if !ok {
				return out, fmt.Errorf("counter %s is not loaded with a constant on the transition %d->%d", c.Name, src, k)
			}
			if entered && v != entry {
				return out, fmt.Errorf("counter %s enters the wait holding %d or %d", c.Name, entry, v)
			}
			entry, entered, into = v, true, true
		}
		if into {
			out.Sources = append(out.Sources, src)
		}
	}
	if !entered {
		return out, nil
	}
	if entry < limit || (entry-limit)%step != 0 {
		return out, fmt.Errorf("counter %s enters at %d and cannot step by %d onto its limit %d", c.Name, entry, step, limit)
	}
	out.Extra = (entry - limit) / step
	return out, nil
}

// entryValue returns the constant counter c holds on the cycle after the
// FSM leaves src along the arc whose residual condition is arc: the
// counter's next tree is walked with the FSM pinned to src, leaves whose
// path contradicts the arc are dropped, and every remaining leaf must be
// the same constant.
func (st *stateAnalysis) entryValue(src uint64, c *analyze.Counter, arc []analyze.PathSel) (uint64, bool) {
	m := st.av.M
	vals := st.pinned(src)
	leaves, ok := walkPinned(m, vals, m.Regs[c.Reg].Next, nil, walkBudget)
	if !ok {
		return 0, false
	}
	mask := rtl.WidthMask(m.Nodes[c.Node].Width)
	var v uint64
	found := false
	for _, lf := range leaves {
		if contradicts(m, vals, arc, lf.path) {
			continue
		}
		cv, isConst := vals[lf.node].Const()
		if !isConst || (found && cv&mask != v) {
			return 0, false
		}
		v, found = cv&mask, true
	}
	return v, found
}

// contradicts reports whether the conjunction arc provably excludes the
// conjunction path: some conjunct of arc implies that a conjunct of path
// is false.
func contradicts(m *rtl.Module, vals []Value, arc, path []analyze.PathSel) bool {
	for _, ps := range path {
		if pathImplies(m, vals, arc, ps.Node, !ps.Neg) {
			return true
		}
	}
	return false
}
