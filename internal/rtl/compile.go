package rtl

// compile.go lowers a validated Module into a flat, specialized
// instruction stream — the same move Verilator makes when it compiles a
// netlist instead of interpreting it. The interpreter (NewInterpSim)
// walks the Node table every cycle, re-deriving masks, dispatching on
// the generic Op enum, and skipping over constants, inputs and register
// nodes that need no work; the compiled Program pays those costs once:
//
//   - constants are preloaded into the value array at Reset and never
//     revisited; inputs are written directly by SetInput; register nodes
//     are handled by the latch phase — none of the three occupies an
//     instruction slot,
//   - every instruction carries its precomputed width mask and unboxed
//     int32 operand indices,
//   - operations with one constant operand are specialized into
//     immediate forms (the constant value is inlined into the
//     instruction),
//   - the dominant two-node patterns are fused into super-ops that cost
//     one dispatch: compare-with-const feeding a mux select, and
//     add/sub feeding an AND-with-const mask.
//
// Fused instructions still store every constituent node's value, so
// Value, VCD dumping, and toggle counting observe results bit-identical
// to the interpreter. Equivalence is enforced by differential tests
// (compile_test.go) on random netlists and on the full benchmark suite.

// iop is the specialized opcode of one compiled instruction.
type iop uint8

const (
	iAdd iop = iota
	iAddImm
	iSub
	iSubImmR // vals[a] - imm
	iSubImmL // imm - vals[a]
	iMul
	iMulImm
	iAnd
	iAndImm // imm pre-masked: vals[a] & imm needs no further masking
	iOr
	iOrImm
	iXor
	iXorImm
	iNot
	iShl
	iShlImm
	iShr
	iShrImm
	iZero // constant-folded shift overflow: result is always 0
	iEq
	iEqImm
	iNe
	iNeImm
	iLt
	iLtImmR // vals[a] < imm
	iLtImmL // imm < vals[a]
	iLe
	iLeImmR
	iLeImmL
	iMux
	iMemRead
	// Fused super-ops. dst2 receives the head node's value, dst the
	// tail's; the head value is stored before the tail's operands are
	// read, so self-referential tails stay correct.
	iEqImmMux  // t = vals[a]==imm; dst2=t; dst = t ? vals[b] : vals[c]
	iNeImmMux  // t = vals[a]!=imm; dst2=t; dst = t ? vals[b] : vals[c]
	iAddAndImm // t = (vals[a]+vals[b])&mask; dst2=t; dst = t & imm
	iSubAndImm // t = (vals[a]-vals[b])&mask; dst2=t; dst = t & imm
)

// instr is one compiled operation. The layout keeps the hot fields in
// one cache line: indices are unboxed int32s into the value array, and
// mask/imm are precomputed so the execution loop does no derivation.
type instr struct {
	op      iop
	mem     int32
	dst     int32
	dst2    int32
	a, b, c int32
	mask    uint64
	imm     uint64
}

// Program is a Module compiled for execution. It is immutable after
// Compile and safe to share between any number of Sims (Sim.Clone and
// the parallel job runners in package core rely on this).
type Program struct {
	m    *Module
	code []instr
	done int32
	// Const preload table applied by Reset.
	constIdx []int32
	constVal []uint64
	// Register latch tables (node index, next index, width mask, init).
	regNode []int32
	regNext []int32
	regMask []uint64
	// Memory write ports, unboxed.
	wEn, wAddr, wData, wMem []int32
}

// Module returns the module this program was compiled from.
func (p *Program) Module() *Module { return p.m }

// Instructions returns the number of compiled instructions (for
// reporting; always at most the number of combinational nodes).
func (p *Program) Instructions() int { return len(p.code) }

// constOperand reports whether exactly one argument of a two-argument
// node is a constant, returning its masked value, the other argument,
// and which side the constant was on (0 = Args[0]).
func constOperand(m *Module, id NodeID) (cv uint64, other NodeID, side int, ok bool) {
	n := &m.Nodes[id]
	if n.NArgs != 2 {
		return 0, 0, 0, false
	}
	a, b := &m.Nodes[n.Args[0]], &m.Nodes[n.Args[1]]
	switch {
	case a.Op == OpConst && b.Op != OpConst:
		return a.Const & a.Mask(), n.Args[1], 0, true
	case b.Op == OpConst && a.Op != OpConst:
		return b.Const & b.Mask(), n.Args[0], 1, true
	}
	return 0, 0, 0, false
}

// Compile lowers a validated module into an executable Program. The
// module must not be mutated afterwards while the program is in use.
func Compile(m *Module) *Program {
	p := &Program{m: m, done: int32(m.Done)}

	// Combinational use counts gate fusion: a head node may only be
	// folded into its consumer when that consumer is its sole
	// combinational use (register nexts, write ports and Done read the
	// value array after the instruction loop, so the fused store still
	// serves them).
	combUses := make([]int32, len(m.Nodes))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		for a := 0; a < int(n.NArgs); a++ {
			combUses[n.Args[a]]++
		}
	}

	// Pass 1: plan fusions (tail node -> head node).
	fusedHead := make([]bool, len(m.Nodes))
	plan := make(map[NodeID]NodeID)
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Op {
		case OpMux:
			sel := n.Args[0]
			sn := &m.Nodes[sel]
			if (sn.Op == OpEq || sn.Op == OpNe) && combUses[sel] == 1 && !fusedHead[sel] {
				if _, _, _, ok := constOperand(m, sel); ok {
					fusedHead[sel] = true
					plan[NodeID(i)] = sel
				}
			}
		case OpAnd:
			if _, other, _, ok := constOperand(m, NodeID(i)); ok {
				on := &m.Nodes[other]
				if (on.Op == OpAdd || on.Op == OpSub) && combUses[other] == 1 && !fusedHead[other] {
					fusedHead[other] = true
					plan[NodeID(i)] = other
				}
			}
		}
	}

	// Pass 2: emit instructions in SSA order.
	p.code = make([]instr, 0, len(m.Nodes))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Op {
		case OpConst:
			p.constIdx = append(p.constIdx, int32(i))
			p.constVal = append(p.constVal, n.Const&n.Mask())
			continue
		case OpInput, OpReg:
			continue
		}
		if fusedHead[i] {
			continue // emitted as part of its consumer
		}
		in := instr{
			dst:  int32(i),
			dst2: -1,
			a:    int32(n.Args[0]),
			b:    int32(n.Args[1]),
			c:    int32(n.Args[2]),
			mem:  n.Mem,
			mask: n.Mask(),
		}
		if head, ok := plan[NodeID(i)]; ok {
			hn := &m.Nodes[head]
			switch n.Op {
			case OpMux:
				cv, other, _, _ := constOperand(m, head)
				in.a = int32(other)
				in.imm = cv
				in.dst2 = int32(head)
				if hn.Op == OpEq {
					in.op = iEqImmMux
				} else {
					in.op = iNeImmMux
				}
			case OpAnd:
				cv, _, _, _ := constOperand(m, NodeID(i))
				in.imm = cv & in.mask
				in.a = int32(hn.Args[0])
				in.b = int32(hn.Args[1])
				in.dst2 = int32(head)
				in.mask = hn.Mask()
				if hn.Op == OpAdd {
					in.op = iAddAndImm
				} else {
					in.op = iSubAndImm
				}
			}
			p.code = append(p.code, in)
			continue
		}
		cv, other, side, imm := constOperand(m, NodeID(i))
		switch n.Op {
		case OpAdd:
			in.op = iAdd
			if imm {
				in.op, in.a, in.imm = iAddImm, int32(other), cv
			}
		case OpSub:
			in.op = iSub
			if imm && side == 1 {
				in.op, in.a, in.imm = iSubImmR, int32(other), cv
			} else if imm {
				in.op, in.a, in.imm = iSubImmL, int32(other), cv
			}
		case OpMul:
			in.op = iMul
			if imm {
				in.op, in.a, in.imm = iMulImm, int32(other), cv
			}
		case OpAnd:
			in.op = iAnd
			if imm {
				// Fold the result mask into the immediate.
				in.op, in.a, in.imm = iAndImm, int32(other), cv&in.mask
			}
		case OpOr:
			in.op = iOr
			if imm {
				in.op, in.a, in.imm = iOrImm, int32(other), cv
			}
		case OpXor:
			in.op = iXor
			if imm {
				in.op, in.a, in.imm = iXorImm, int32(other), cv
			}
		case OpNot:
			in.op = iNot
		case OpShl:
			in.op = iShl
			if imm && side == 1 {
				if cv >= 64 {
					in.op = iZero
				} else {
					in.op, in.imm = iShlImm, cv
				}
			}
		case OpShr:
			in.op = iShr
			if imm && side == 1 {
				if cv >= 64 {
					in.op = iZero
				} else {
					in.op, in.imm = iShrImm, cv
				}
			}
		case OpEq:
			in.op = iEq
			if imm {
				in.op, in.a, in.imm = iEqImm, int32(other), cv
			}
		case OpNe:
			in.op = iNe
			if imm {
				in.op, in.a, in.imm = iNeImm, int32(other), cv
			}
		case OpLt:
			in.op = iLt
			if imm && side == 1 {
				in.op, in.a, in.imm = iLtImmR, int32(other), cv
			} else if imm {
				in.op, in.a, in.imm = iLtImmL, int32(other), cv
			}
		case OpLe:
			in.op = iLe
			if imm && side == 1 {
				in.op, in.a, in.imm = iLeImmR, int32(other), cv
			} else if imm {
				in.op, in.a, in.imm = iLeImmL, int32(other), cv
			}
		case OpMux:
			in.op = iMux
		case OpMemRead:
			in.op = iMemRead
		}
		p.code = append(p.code, in)
	}

	// Register latch tables.
	p.regNode = make([]int32, len(m.Regs))
	p.regNext = make([]int32, len(m.Regs))
	p.regMask = make([]uint64, len(m.Regs))
	for i := range m.Regs {
		r := &m.Regs[i]
		p.regNode[i] = int32(r.Node)
		p.regNext[i] = int32(r.Next)
		p.regMask[i] = m.Nodes[r.Node].Mask()
	}

	// Write ports, unboxed.
	p.wEn = make([]int32, len(m.Writes))
	p.wAddr = make([]int32, len(m.Writes))
	p.wData = make([]int32, len(m.Writes))
	p.wMem = make([]int32, len(m.Writes))
	for i := range m.Writes {
		w := &m.Writes[i]
		p.wEn[i] = int32(w.En)
		p.wAddr[i] = int32(w.Addr)
		p.wData[i] = int32(w.Data)
		p.wMem[i] = w.Mem
	}
	return p
}

// stepCompiled executes one cycle of the compiled program. It mirrors
// the interpreter's four phases exactly; see Sim.Step for the contract.
func (s *Sim) stepCompiled() bool {
	p := s.prog
	vals := s.vals
	mems := s.mems
	code := p.code
	for i := range code {
		in := &code[i]
		switch in.op {
		case iAdd:
			vals[in.dst] = (vals[in.a] + vals[in.b]) & in.mask
		case iAddImm:
			vals[in.dst] = (vals[in.a] + in.imm) & in.mask
		case iSub:
			vals[in.dst] = (vals[in.a] - vals[in.b]) & in.mask
		case iSubImmR:
			vals[in.dst] = (vals[in.a] - in.imm) & in.mask
		case iSubImmL:
			vals[in.dst] = (in.imm - vals[in.a]) & in.mask
		case iMul:
			vals[in.dst] = (vals[in.a] * vals[in.b]) & in.mask
		case iMulImm:
			vals[in.dst] = (vals[in.a] * in.imm) & in.mask
		case iAnd:
			vals[in.dst] = vals[in.a] & vals[in.b] & in.mask
		case iAndImm:
			vals[in.dst] = vals[in.a] & in.imm
		case iOr:
			vals[in.dst] = (vals[in.a] | vals[in.b]) & in.mask
		case iOrImm:
			vals[in.dst] = (vals[in.a] | in.imm) & in.mask
		case iXor:
			vals[in.dst] = (vals[in.a] ^ vals[in.b]) & in.mask
		case iXorImm:
			vals[in.dst] = (vals[in.a] ^ in.imm) & in.mask
		case iNot:
			vals[in.dst] = ^vals[in.a] & in.mask
		case iShl:
			if sh := vals[in.b]; sh < 64 {
				vals[in.dst] = (vals[in.a] << sh) & in.mask
			} else {
				vals[in.dst] = 0
			}
		case iShlImm:
			vals[in.dst] = (vals[in.a] << in.imm) & in.mask
		case iShr:
			if sh := vals[in.b]; sh < 64 {
				vals[in.dst] = (vals[in.a] >> sh) & in.mask
			} else {
				vals[in.dst] = 0
			}
		case iShrImm:
			vals[in.dst] = (vals[in.a] >> in.imm) & in.mask
		case iZero:
			vals[in.dst] = 0
		case iEq:
			if vals[in.a] == vals[in.b] {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iEqImm:
			if vals[in.a] == in.imm {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iNe:
			if vals[in.a] != vals[in.b] {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iNeImm:
			if vals[in.a] != in.imm {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iLt:
			if vals[in.a] < vals[in.b] {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iLtImmR:
			if vals[in.a] < in.imm {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iLtImmL:
			if in.imm < vals[in.a] {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iLe:
			if vals[in.a] <= vals[in.b] {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iLeImmR:
			if vals[in.a] <= in.imm {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iLeImmL:
			if in.imm <= vals[in.a] {
				vals[in.dst] = 1
			} else {
				vals[in.dst] = 0
			}
		case iMux:
			if vals[in.a] != 0 {
				vals[in.dst] = vals[in.b] & in.mask
			} else {
				vals[in.dst] = vals[in.c] & in.mask
			}
		case iMemRead:
			data := mems[in.mem]
			if addr := vals[in.a]; addr < uint64(len(data)) {
				vals[in.dst] = data[addr] & in.mask
			} else {
				vals[in.dst] = 0
			}
		case iEqImmMux:
			var t uint64
			if vals[in.a] == in.imm {
				t = 1
			}
			vals[in.dst2] = t
			if t != 0 {
				vals[in.dst] = vals[in.b] & in.mask
			} else {
				vals[in.dst] = vals[in.c] & in.mask
			}
		case iNeImmMux:
			var t uint64
			if vals[in.a] != in.imm {
				t = 1
			}
			vals[in.dst2] = t
			if t != 0 {
				vals[in.dst] = vals[in.b] & in.mask
			} else {
				vals[in.dst] = vals[in.c] & in.mask
			}
		case iAddAndImm:
			t := (vals[in.a] + vals[in.b]) & in.mask
			vals[in.dst2] = t
			vals[in.dst] = t & in.imm
		case iSubAndImm:
			t := (vals[in.a] - vals[in.b]) & in.mask
			vals[in.dst2] = t
			vals[in.dst] = t & in.imm
		}
	}
	done := vals[p.done] != 0
	for i, en := range p.wEn {
		if vals[en] != 0 {
			data := mems[p.wMem[i]]
			if addr := vals[p.wAddr[i]]; addr < uint64(len(data)) {
				data[addr] = vals[p.wData[i]]
			}
		}
	}
	latch := s.latch
	for i, nx := range p.regNext {
		latch[i] = vals[nx] & p.regMask[i]
	}
	for i, nd := range p.regNode {
		vals[nd] = latch[i]
	}
	if s.countToggles {
		s.countActivity()
	}
	s.cycles++
	return done
}
