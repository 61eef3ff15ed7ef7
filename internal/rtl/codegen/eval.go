package codegen

import "repro/internal/rtl"

// The evaluator dispatches one switch per instruction: a generic
// instruction on its rtl.Op, the plan's residue forms on the codes
// after the last Op.
const (
	xConst = rtl.OpMemRead + 1 + iota
	xCopy
	xShlImm
	xShrImm
)

// op is one evaluator instruction; dst/a/b/c index the value array.
type op struct {
	code    rtl.Op
	mem     int32
	dst     int32
	a, b, c int32
	mask    uint64
	imm     uint64
}

// port is a memory write port with its operands resolved.
type port struct{ en, addr, data, mem int32 }

// evalArm is the evaluator's form of one arm (the default arm last; an
// unspecialized plan has one): the prefix and the arm's suffix in one
// list, in full for the cycle a call returns on and hot for the cycle
// loop, plus the arm's commit tables. The hot list reads a copy's
// source instead of the copy whenever the copy cannot change the
// value, and drops the copies and constants nothing then reads; the
// commit tables read through the same aliases.
type evalArm struct {
	full, hot []op
	done      int32
	writes    []port
	next      []int32 // per register
}

// lowerArm builds one arm's evaluator form from the plan's full and
// hot instruction lists and the scope's literal knowledge.
func (p *Plan) lowerArm(full, hot []inst, known map[int32]uint64) evalArm {
	m := p.m
	alias := map[int32]int32{}
	read := make([]bool, len(m.Nodes))
	res := func(id int32) int32 {
		if src, ok := alias[id]; ok {
			id = src
		}
		read[id] = true
		return id
	}
	a := evalArm{full: lower(m, full, func(id int32) int32 { return id }, nil)}
	hotOps := lower(m, hot, res, alias)
	a.done = res(int32(m.Done))
	for i := range m.Writes {
		w := &m.Writes[i]
		if en, ok := known[int32(w.En)]; ok && en == 0 {
			continue
		}
		a.writes = append(a.writes, port{res(int32(w.En)), res(int32(w.Addr)), res(int32(w.Data)), w.Mem})
	}
	for i := range m.Regs {
		a.next = append(a.next, res(int32(m.Regs[i].Next)))
	}
	for _, o := range hotOps {
		if o.code != xConst || read[o.dst] {
			a.hot = append(a.hot, o)
		}
	}
	return a
}

// lower translates instructions into evaluator ops, reading every
// operand through res. With alias set, a copy whose source fits its
// mask emits nothing and is recorded in alias instead.
func lower(m *rtl.Module, insts []inst, res func(int32) int32, alias map[int32]int32) []op {
	out := make([]op, 0, len(insts))
	for _, in := range insts {
		o := op{code: in.op, dst: in.dst, mem: in.mem, mask: in.mask, imm: in.imm}
		switch in.kind {
		case pConst:
			o.code = xConst
		case pCopy:
			if alias != nil && m.Nodes[in.a].Mask()&^in.mask == 0 {
				alias[in.dst] = res(in.a)
				continue
			}
			o.code, o.a = xCopy, res(in.a)
		case pShlImm:
			o.code, o.a = xShlImm, res(in.a)
		case pShrImm:
			o.code, o.a = xShrImm, res(in.a)
		default:
			args := in.args(m)
			for i, dst := range []*int32{&o.a, &o.b, &o.c}[:len(args)] {
				*dst = res(args[i])
			}
		}
		out = append(out, o)
	}
	return out
}

// Step runs the plan directly — the interpretive backend over the same
// specialized instruction lists the emitter turns into Go source. Its
// signature matches rtl.NativeStep: it is the rtl engine's fallback
// for netlists without a generated simulator (registered by package
// native), and rtl.NewNativeSim(m, plan.Step) yields a simulator the
// differential tests run against the interpreter on arbitrary
// modules, exercising the partial evaluation, FSM-state dispatch and
// per-state demand without the Go toolchain.
//
// It mirrors the emitted control flow cycle for cycle: a cycle that is
// not the last allowed by limit runs only the hot list, and only if
// its done test is low does it commit; otherwise the cycle is
// re-evaluated in full, so every node is exact on return, and then
// commits. Values of nodes outside the hot lists go stale in between.
// The latch scratch is allocated per call rather than captured,
// keeping the step pure over (vals, mems) as the NativeStep contract
// requires.
func (p *Plan) Step(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	latch := make([]uint64, len(p.regNode))
	for cycles := uint64(1); ; cycles++ {
		a := p.arm(vals)
		if cycles < limit {
			run(a.hot, vals, mems)
			if vals[a.done] == 0 {
				p.commit(a, vals, mems, latch)
				continue
			}
		}
		run(a.full, vals, mems)
		done := vals[a.done] != 0
		p.commit(a, vals, mems, latch)
		return cycles, done
	}
}

// arm selects the arm for the latched state, or the default arm.
func (p *Plan) arm(vals []uint64) *evalArm {
	if p.stateNode >= 0 {
		s := vals[p.stateNode]
		for i, sv := range p.stateVals {
			if sv == s {
				return &p.eval[i]
			}
		}
	}
	return &p.eval[len(p.eval)-1]
}

// commit runs the cycle's memory writes, then latches every register
// simultaneously through the latch scratch.
func (p *Plan) commit(a *evalArm, vals []uint64, mems [][]uint64, latch []uint64) {
	for _, w := range a.writes {
		if vals[w.en] != 0 {
			data := mems[w.mem]
			if addr := vals[w.addr]; addr < uint64(len(data)) {
				data[addr] = vals[w.data]
			}
		}
	}
	for i, nx := range a.next {
		latch[i] = vals[nx] & p.regMask[i]
	}
	for i, nd := range p.regNode {
		vals[nd] = latch[i]
	}
}

// b2u converts a comparison result to its 1-bit value.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func run(ops []op, vals []uint64, mems [][]uint64) {
	for i := range ops {
		o := &ops[i]
		var v uint64
		switch o.code {
		case xConst:
			v = o.imm
		case xCopy:
			v = vals[o.a] & o.mask
		case xShlImm:
			v = (vals[o.a] << o.imm) & o.mask
		case xShrImm:
			v = (vals[o.a] >> o.imm) & o.mask
		case rtl.OpMemRead:
			if data, addr := mems[o.mem], vals[o.a]; addr < uint64(len(data)) {
				v = data[addr] & o.mask
			}
		case rtl.OpMux:
			if vals[o.a] != 0 {
				v = vals[o.b] & o.mask
			} else {
				v = vals[o.c] & o.mask
			}
		case rtl.OpNot:
			v = ^vals[o.a] & o.mask
		case rtl.OpAdd:
			v = (vals[o.a] + vals[o.b]) & o.mask
		case rtl.OpSub:
			v = (vals[o.a] - vals[o.b]) & o.mask
		case rtl.OpMul:
			v = (vals[o.a] * vals[o.b]) & o.mask
		case rtl.OpAnd:
			v = vals[o.a] & vals[o.b] & o.mask
		case rtl.OpOr:
			v = (vals[o.a] | vals[o.b]) & o.mask
		case rtl.OpXor:
			v = (vals[o.a] ^ vals[o.b]) & o.mask
		case rtl.OpShl:
			if sh := vals[o.b]; sh < 64 {
				v = (vals[o.a] << sh) & o.mask
			}
		case rtl.OpShr:
			if sh := vals[o.b]; sh < 64 {
				v = (vals[o.a] >> sh) & o.mask
			}
		case rtl.OpEq:
			v = b2u(vals[o.a] == vals[o.b])
		case rtl.OpNe:
			v = b2u(vals[o.a] != vals[o.b])
		case rtl.OpLt:
			v = b2u(vals[o.a] < vals[o.b])
		case rtl.OpLe:
			v = b2u(vals[o.a] <= vals[o.b])
		}
		vals[o.dst] = v
	}
}
