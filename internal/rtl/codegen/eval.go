package codegen

import "repro/internal/rtl"

// Step runs the plan directly — the interpretive backend over the same
// specialized instruction lists the emitter turns into Go source. Its
// signature matches rtl.NativeStep, so rtl.NewNativeSim(m, plan.Step)
// yields a simulator the differential tests can run against the other
// engines on arbitrary modules, exercising the partial evaluation,
// FSM-state dispatch and per-state demand without the Go toolchain.
//
// It mirrors the emitted control flow cycle for cycle: a cycle that is
// not the last allowed by limit runs only the hot lists, and only if
// its done test is low does it commit; otherwise the cycle is
// re-evaluated in full, so every node is exact on return, and then
// commits. Values of nodes outside the hot lists go stale in between.
// The latch scratch is allocated per call rather than captured,
// keeping the step pure over (vals, mems) as the NativeStep contract
// requires.
func (p *Plan) Step(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	m := p.m
	latch := make([]uint64, len(m.Regs))
	for cycles := uint64(1); ; cycles++ {
		if cycles < limit {
			runInsts(p.hotPrefix, vals, mems)
			if p.stateNode >= 0 {
				runInsts(p.pick(p.hotArms, p.hotGeneric, vals), vals, mems)
			}
			if vals[m.Done] == 0 {
				p.commit(vals, mems, latch)
				continue
			}
		}
		runInsts(p.prefix, vals, mems)
		if p.stateNode >= 0 {
			runInsts(p.pick(p.arms, p.generic, vals), vals, mems)
		}
		done := vals[m.Done] != 0
		p.commit(vals, mems, latch)
		return cycles, done
	}
}

// pick selects the arm for the latched state, or the default arm.
func (p *Plan) pick(arms [][]inst, generic []inst, vals []uint64) []inst {
	if ai, ok := p.armOf[vals[p.stateNode]]; ok {
		return arms[ai]
	}
	return generic
}

// commit runs the cycle's memory writes, then latches every register
// simultaneously through the latch scratch.
func (p *Plan) commit(vals []uint64, mems [][]uint64, latch []uint64) {
	m := p.m
	for i := range m.Writes {
		w := &m.Writes[i]
		if vals[w.En] != 0 {
			data := mems[w.Mem]
			if addr := vals[w.Addr]; addr < uint64(len(data)) {
				data[addr] = vals[w.Data]
			}
		}
	}
	for i := range m.Regs {
		r := &m.Regs[i]
		latch[i] = vals[r.Next] & m.Nodes[r.Node].Mask()
	}
	for i := range m.Regs {
		vals[m.Regs[i].Node] = latch[i]
	}
}

func runInsts(insts []inst, vals []uint64, mems [][]uint64) {
	for i := range insts {
		in := &insts[i]
		switch in.kind {
		case pConst:
			vals[in.dst] = in.imm
		case pCopy:
			vals[in.dst] = vals[in.a] & in.mask
		case pShlImm:
			vals[in.dst] = (vals[in.a] << in.imm) & in.mask
		case pShrImm:
			vals[in.dst] = (vals[in.a] >> in.imm) & in.mask
		default:
			switch in.op {
			case rtl.OpMemRead:
				data := mems[in.mem]
				if addr := vals[in.a]; addr < uint64(len(data)) {
					vals[in.dst] = data[addr] & in.mask
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpMux:
				if vals[in.a] != 0 {
					vals[in.dst] = vals[in.b] & in.mask
				} else {
					vals[in.dst] = vals[in.c] & in.mask
				}
			case rtl.OpAdd:
				vals[in.dst] = (vals[in.a] + vals[in.b]) & in.mask
			case rtl.OpSub:
				vals[in.dst] = (vals[in.a] - vals[in.b]) & in.mask
			case rtl.OpMul:
				vals[in.dst] = (vals[in.a] * vals[in.b]) & in.mask
			case rtl.OpAnd:
				vals[in.dst] = vals[in.a] & vals[in.b] & in.mask
			case rtl.OpOr:
				vals[in.dst] = (vals[in.a] | vals[in.b]) & in.mask
			case rtl.OpXor:
				vals[in.dst] = (vals[in.a] ^ vals[in.b]) & in.mask
			case rtl.OpNot:
				vals[in.dst] = ^vals[in.a] & in.mask
			case rtl.OpShl:
				if sh := vals[in.b]; sh < 64 {
					vals[in.dst] = (vals[in.a] << sh) & in.mask
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpShr:
				if sh := vals[in.b]; sh < 64 {
					vals[in.dst] = (vals[in.a] >> sh) & in.mask
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpEq:
				if vals[in.a] == vals[in.b] {
					vals[in.dst] = 1
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpNe:
				if vals[in.a] != vals[in.b] {
					vals[in.dst] = 1
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpLt:
				if vals[in.a] < vals[in.b] {
					vals[in.dst] = 1
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpLe:
				if vals[in.a] <= vals[in.b] {
					vals[in.dst] = 1
				} else {
					vals[in.dst] = 0
				}
			}
		}
	}
}
