package codegen

import (
	"fmt"
	"strings"

	"repro/internal/rtl"
)

// EmitFunc renders the plan as the source of one Go function with the
// rtl.NativeStep signature:
//
//	func <name>(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool)
//
// The function runs whole jobs. Registers and the inputs it reads live
// in locals across cycles. The cycle loop dispatches one switch over
// the state register's local, and each arm evaluates only the
// instructions its done test, memory writes and register latch need
// (the plan's hot lists), with every intermediate in an SSA local and
// folded constants printed as literals; nothing is stored into vals.
// The cycle that will return — the last one limit allows, or the one
// whose done test is high — leaves the loop before its writes and
// latch, writes the registers back, and runs again as the full cycle
// body: every node's value is stored into vals, then the writes commit
// and the registers latch through vals. So vals and the memories are
// bit-exact with the interpreter whenever the function returns.
//
// The output is plain unformatted Go; cmd/rtlgen runs the assembled
// file through go/format before writing it.
func EmitFunc(p *Plan, name string) string {
	e := &emitter{p: p, m: p.m, used: map[int32]bool{}}
	return e.run(name)
}

type emitter struct {
	p *Plan
	m *rtl.Module
	b strings.Builder
	// used marks register and input locals some emitted code reads.
	used map[int32]bool
	// brk records whether any arm emitted break loop.
	brk bool
}

func (e *emitter) pf(format string, args ...any) {
	fmt.Fprintf(&e.b, format, args...)
}

func (e *emitter) run(name string) string {
	p, m := e.p, e.m
	// Scope knowledge: OpConst node values hold everywhere (preloaded at
	// Reset, and printed as literals at use sites), extended by each
	// instruction list's own folded constants.
	prefixKnown := map[int32]uint64{}
	for i := range m.Nodes {
		if n := &m.Nodes[i]; n.Op == rtl.OpConst {
			prefixKnown[int32(i)] = n.Const & n.Mask()
		}
	}
	for k, v := range knownIn(p.prefix) { //detlint:allow scratch map, never ranged for output
		prefixKnown[k] = v
	}
	armKnown := func(insts []inst, ai int) map[int32]uint64 {
		known := knownIn(insts)
		for k, v := range prefixKnown { //detlint:allow scratch map, never ranged for output
			known[k] = v
		}
		if ai >= 0 {
			known[p.stateNode] = p.stateVals[ai]
		}
		return known
	}
	// Registers and inputs are read through locals loaded before the
	// loop; the header declares those some code reads.
	state := map[int32]bool{}
	for i := range m.Nodes {
		switch m.Nodes[i].Op {
		case rtl.OpReg, rtl.OpInput:
			state[int32(i)] = true
		}
	}

	// The cycle loop: hot instructions only, no stores to vals.
	hotDefined := extend(state, p.hotPrefix)
	e.emitInsts(p.hotPrefix, prefixKnown, hotDefined, false)
	if p.stateNode >= 0 {
		e.pf("switch v%d {\n", p.stateNode)
		e.used[p.stateNode] = true
		for ai, sv := range p.stateVals {
			e.pf("case %#x:\n", sv)
			e.emitHotArm(p.hotArms[ai], armKnown(p.arms[ai], ai), hotDefined)
		}
		e.pf("default:\n")
		e.emitHotArm(p.hotGeneric, armKnown(p.generic, -1), hotDefined)
		e.pf("}\n")
	} else {
		e.emitHotArm(nil, prefixKnown, hotDefined)
	}
	loop := e.b.String()
	e.b.Reset()

	// The returning cycle in full, through vals.
	for i := range m.Regs {
		id := int32(m.Regs[i].Node)
		e.pf("vals[%d] = v%d\n", id, id)
		e.used[id] = true
	}
	fnDefined := extend(state, p.prefix)
	e.emitInsts(p.prefix, prefixKnown, fnDefined, true)
	if p.stateNode >= 0 {
		e.pf("switch v%d {\n", p.stateNode)
		for ai, sv := range p.stateVals {
			e.pf("case %#x:\n", sv)
			e.emitInsts(p.arms[ai], armKnown(p.arms[ai], ai), extend(fnDefined, p.arms[ai]), true)
		}
		e.pf("default:\n")
		e.emitInsts(p.generic, armKnown(p.generic, -1), extend(fnDefined, p.generic), true)
		e.pf("}\n")
	}
	e.pf("done := vals[%d] != 0\n", m.Done)
	for i := range m.Writes {
		w := &m.Writes[i]
		e.pf("if vals[%d] != 0 {\n", w.En)
		e.pf("if addr := vals[%d]; addr < uint64(len(m%d)) {\n", w.Addr, w.Mem)
		e.pf("m%d[addr] = vals[%d]\n", w.Mem, w.Data)
		e.pf("}\n}\n")
	}
	// Registers latch simultaneously: all next values are read into
	// locals before any register's vals entry is overwritten.
	for i := range m.Regs {
		r := &m.Regs[i]
		e.pf("l%d := vals[%d]%s\n", i, r.Next, maskSuffix(m.Nodes[r.Node].Mask()))
	}
	for i := range m.Regs {
		e.pf("vals[%d] = l%d\n", m.Regs[i].Node, i)
	}
	e.pf("return cycles + 1, done\n}\n")
	final := e.b.String()

	e.b.Reset()
	e.pf("func %s(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {\n", name)
	if n := len(m.Nodes); n > 0 {
		e.pf("_ = vals[%d]\n", n-1)
	}
	for _, mi := range e.usedMems() {
		e.pf("m%d := mems[%d]\n", mi, mi)
	}
	for i := range m.Nodes {
		if e.used[int32(i)] {
			e.pf("v%d := vals[%d]\n", i, i)
		}
	}
	e.pf("var cycles uint64\n")
	if e.brk {
		e.pf("loop:\n")
	}
	e.pf("for ; cycles+1 < limit; cycles++ {\n%s}\n%s", loop, final)
	return e.b.String()
}

// emitHotArm renders the rest of one arm of the cycle loop: its hot
// instructions, then the done test (leaving the loop so the cycle runs
// again in full), the memory writes and the register latch, all
// reading locals and literals.
func (e *emitter) emitHotArm(insts []inst, known map[int32]uint64, defined map[int32]bool) {
	m := e.m
	defined = extend(defined, insts)
	e.emitInsts(insts, known, defined, false)
	r := func(id rtl.NodeID) string { return e.hotRef(int32(id), known, defined) }
	if alwaysDone(m, known) {
		// Done in every cycle of this state: the loop never commits it.
		e.pf("break loop\n")
		e.brk = true
		return
	}
	if _, ok := known[int32(m.Done)]; !ok {
		e.pf("if %s != 0 {\nbreak loop\n}\n", r(m.Done))
		e.brk = true
	}
	for i := range m.Writes {
		w := &m.Writes[i]
		en, enKnown := known[int32(w.En)]
		if enKnown && en == 0 {
			continue
		}
		if !enKnown {
			e.pf("if %s != 0 {\n", r(w.En))
		}
		e.pf("if addr := uint64(%s); addr < uint64(len(m%d)) {\nm%d[addr] = %s\n}\n",
			r(w.Addr), w.Mem, w.Mem, r(w.Data))
		if !enKnown {
			e.pf("}\n")
		}
	}
	// Registers latch simultaneously: next values that are not literals
	// go to temporaries before any register local is overwritten.
	for i := range m.Regs {
		rg := &m.Regs[i]
		if _, lit := known[int32(rg.Next)]; lit || rg.Next == rg.Node {
			continue
		}
		mask := m.Nodes[rg.Node].Mask()
		msk := maskSuffix(mask)
		if bound(int32(rg.Next), m, known)&^mask == 0 {
			msk = ""
		}
		e.pf("n%d := %s%s\n", i, r(rg.Next), msk)
	}
	for i := range m.Regs {
		rg := &m.Regs[i]
		if v, lit := known[int32(rg.Next)]; lit {
			e.pf("v%d = %#x\n", rg.Node, v&m.Nodes[rg.Node].Mask())
		} else if rg.Next != rg.Node {
			e.pf("v%d = n%d\n", rg.Node, i)
		}
	}
}

// hotRef renders a read inside the cycle loop, where vals is stale: the
// node must be a literal in scope or have a local. A miss is a demand
// bug, caught at generation time.
func (e *emitter) hotRef(id int32, known map[int32]uint64, defined map[int32]bool) string {
	if _, ok := known[id]; !ok && !defined[id] {
		panic(fmt.Sprintf("codegen: cycle loop reads node %d with no local", id))
	}
	return e.ref(id, known, defined)
}

// usedMems lists memory indices touched by read or write ports, in
// index order.
func (e *emitter) usedMems() []int32 {
	used := make([]bool, len(e.m.Mems))
	mark := func(insts []inst) {
		for i := range insts {
			if insts[i].kind == pGeneric && insts[i].op == rtl.OpMemRead {
				used[insts[i].mem] = true
			}
		}
	}
	mark(e.p.prefix)
	for _, arm := range e.p.arms {
		mark(arm)
	}
	mark(e.p.generic)
	for i := range e.m.Writes {
		used[e.m.Writes[i].Mem] = true
	}
	var out []int32
	for i, u := range used {
		if u {
			out = append(out, int32(i))
		}
	}
	return out
}

// knownIn collects the literal results proven within an instruction
// list (its pConst entries), used to print consumers as literals.
func knownIn(insts []inst) map[int32]uint64 {
	known := map[int32]uint64{}
	for i := range insts {
		if insts[i].kind == pConst {
			known[insts[i].dst] = insts[i].imm
		}
	}
	return known
}

// extend returns a copy of the defined set plus the locals the
// instruction list itself introduces (its residual instructions), so
// consumers within the list's scope read those locals.
func extend(defined map[int32]bool, insts []inst) map[int32]bool {
	d := make(map[int32]bool, len(defined)+len(insts))
	for k, v := range defined { //detlint:allow scratch map, never ranged for output
		d[k] = v
	}
	for i := range insts {
		if insts[i].kind != pConst {
			d[insts[i].dst] = true
		}
	}
	return d
}

// ref renders a read of node id: a literal when known in scope, the SSA
// local when one exists, else the backing array. It records which
// register and input locals are read, so only those are declared.
func (e *emitter) ref(id int32, known map[int32]uint64, defined map[int32]bool) string {
	if v, ok := known[id]; ok {
		return fmt.Sprintf("%#x", v)
	}
	if defined[id] {
		switch e.m.Nodes[id].Op {
		case rtl.OpReg, rtl.OpInput:
			e.used[id] = true
		}
		return fmt.Sprintf("v%d", id)
	}
	return fmt.Sprintf("vals[%d]", id)
}

// maskSuffix renders "& mask", or nothing for full-width values.
func maskSuffix(mask uint64) string {
	if mask == ^uint64(0) {
		return ""
	}
	return fmt.Sprintf(" & %#x", mask)
}

// bound returns a mask covering every value a node reference can hold:
// a literal's exact bits, otherwise the node's width mask (all engines
// store width-truncated values).
func bound(id int32, m *rtl.Module, known map[int32]uint64) uint64 {
	if v, ok := known[id]; ok {
		return v
	}
	return m.Nodes[id].Mask()
}

// emitInsts renders one instruction list. known maps nodes to literal
// values in this scope; defined holds every node with a visible local
// (including this list's own, precomputed by the caller). With store
// set every result is also stored into vals; without it (the cycle
// loop) folded constants emit nothing and reads must hit locals.
func (e *emitter) emitInsts(insts []inst, known map[int32]uint64, defined map[int32]bool, store bool) {
	m := e.m
	r := func(id int32) string { return e.ref(id, known, defined) }
	if !store {
		r = func(id int32) string { return e.hotRef(id, known, defined) }
	}
	for i := range insts {
		in := &insts[i]
		d := in.dst
		switch in.kind {
		case pConst:
			if store {
				e.pf("vals[%d] = %#x\n", d, in.imm)
			}
			continue
		case pCopy:
			msk := maskSuffix(in.mask)
			if bound(in.a, m, known)&^in.mask == 0 {
				msk = ""
			}
			e.pf("v%d := %s%s\n", d, r(in.a), msk)
		case pShlImm:
			e.pf("v%d := (%s << %d)%s\n", d, r(in.a), in.imm, maskSuffix(in.mask))
		case pShrImm:
			msk := maskSuffix(in.mask)
			if bound(in.a, m, known)>>in.imm&^in.mask == 0 {
				msk = ""
			}
			e.pf("v%d := (%s >> %d)%s\n", d, r(in.a), in.imm, msk)
		default:
			e.emitGeneric(in, r, known)
		}
		if store {
			e.pf("vals[%d] = v%d\n", d, d)
		}
	}
}

// emitGeneric renders a pGeneric instruction as the statements defining
// local v<dst> (the caller appends any vals store).
func (e *emitter) emitGeneric(in *inst, r func(int32) string, known map[int32]uint64) {
	m := e.m
	d := in.dst
	msk := maskSuffix(in.mask)
	ab := bound(in.a, m, known)
	var bb uint64
	if m.Nodes[d].NArgs > 1 {
		bb = bound(in.b, m, known)
	}
	switch in.op {
	case rtl.OpAdd:
		e.pf("v%d := (%s + %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpSub:
		e.pf("v%d := (%s - %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpMul:
		e.pf("v%d := (%s * %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpAnd:
		if ab&bb&^in.mask == 0 {
			msk = ""
		}
		e.pf("v%d := %s & %s%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpOr:
		if (ab|bb)&^in.mask == 0 {
			msk = ""
		}
		e.pf("v%d := (%s | %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpXor:
		if (ab|bb)&^in.mask == 0 {
			msk = ""
		}
		e.pf("v%d := (%s ^ %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpNot:
		e.pf("v%d := ^%s%s\n", d, r(in.a), msk)
	case rtl.OpShl:
		e.pf("var v%d uint64\n", d)
		e.pf("if sh := %s; sh < 64 {\nv%d = (%s << sh)%s\n}\n", r(in.b), d, r(in.a), msk)
	case rtl.OpShr:
		e.pf("var v%d uint64\n", d)
		e.pf("if sh := %s; sh < 64 {\nv%d = (%s >> sh)%s\n}\n", r(in.b), d, r(in.a), msk)
	case rtl.OpEq:
		e.pf("var v%d uint64\nif %s == %s {\nv%d = 1\n}\n", d, r(in.a), r(in.b), d)
	case rtl.OpNe:
		e.pf("var v%d uint64\nif %s != %s {\nv%d = 1\n}\n", d, r(in.a), r(in.b), d)
	case rtl.OpLt:
		e.pf("var v%d uint64\nif %s < %s {\nv%d = 1\n}\n", d, r(in.a), r(in.b), d)
	case rtl.OpLe:
		e.pf("var v%d uint64\nif %s <= %s {\nv%d = 1\n}\n", d, r(in.a), r(in.b), d)
	case rtl.OpMux:
		cb := bound(in.c, m, known)
		bmsk, cmsk := msk, msk
		if bb&^in.mask == 0 {
			bmsk = ""
		}
		if cb&^in.mask == 0 {
			cmsk = ""
		}
		e.pf("var v%d uint64\n", d)
		e.pf("if %s != 0 {\nv%d = %s%s\n} else {\nv%d = %s%s\n}\n",
			r(in.a), d, r(in.b), bmsk, d, r(in.c), cmsk)
	case rtl.OpMemRead:
		e.pf("var v%d uint64\n", d)
		// The uint64 conversion keeps a folded-literal address from
		// typing the local as int; it is a no-op for value reads.
		e.pf("if addr := uint64(%s); addr < uint64(len(m%d)) {\nv%d = m%d[addr]%s\n}\n",
			r(in.a), in.mem, d, in.mem, msk)
	default:
		panic(fmt.Sprintf("codegen: cannot emit op %v", in.op))
	}
}
