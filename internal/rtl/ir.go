// Package rtl provides a register-transfer-level intermediate
// representation (IR) for hardware accelerators, together with a
// cycle-accurate simulator.
//
// The IR plays the role that Yosys RTLIL plays in the paper "Execution
// Time Prediction for Energy-Efficient Hardware Accelerators" (MICRO
// 2015): accelerators are lowered to a flat netlist of combinational
// expression nodes, registers, and memories, and all downstream analyses
// (FSM detection, counter detection, feature instrumentation, hardware
// slicing) operate on that netlist structurally. Nothing in the IR tags
// a register as "an FSM" or "a counter"; those classifications are
// recovered by static analysis in package analyze.
//
// A netlist is a Module. Combinational logic is a DAG of Nodes in SSA
// form: every Node's arguments have smaller IDs than the Node itself,
// with registers (OpReg) acting as the only cycle breakers. Values are
// unsigned integers truncated to the node's bit width.
package rtl

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a node within a Module. IDs are dense and start at 0.
type NodeID int32

// InvalidNode is the zero-like sentinel for "no node".
const InvalidNode NodeID = -1

// Op enumerates the combinational and state-holding operations of the IR.
type Op uint8

// The operation set is deliberately small: it is the least vocabulary in
// which realistic accelerator control and datapath logic can be lowered
// while keeping structural analyses tractable.
const (
	// OpConst is a literal. Const holds the value.
	OpConst Op = iota
	// OpInput is a module input port, driven by the testbench each cycle.
	OpInput
	// OpReg is the current value of a register. The register's next-value
	// expression and initial value live in the Module's Regs table.
	OpReg
	// Arithmetic. All operations are unsigned modulo 2^Width.
	OpAdd
	OpSub
	OpMul
	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr
	// Comparisons produce 0 or 1 in a 1-bit result.
	OpEq
	OpNe
	OpLt // unsigned <
	OpLe // unsigned <=
	// OpMux selects Args[1] when Args[0] is nonzero, else Args[2].
	OpMux
	// OpMemRead reads Mem at address Args[0] (combinational read port).
	OpMemRead
)

var opNames = [...]string{
	OpConst:   "const",
	OpInput:   "input",
	OpReg:     "reg",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpNot:     "not",
	OpShl:     "shl",
	OpShr:     "shr",
	OpEq:      "eq",
	OpNe:      "ne",
	OpLt:      "lt",
	OpLe:      "le",
	OpMux:     "mux",
	OpMemRead: "memread",
}

// String returns the lower-case mnemonic for the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumArgs returns the number of arguments the operation requires, or -1
// if the operation is variadic (none currently are).
func (o Op) NumArgs() int {
	switch o {
	case OpConst, OpInput, OpReg:
		return 0
	case OpNot:
		return 1
	case OpMux:
		return 3
	case OpMemRead:
		return 1
	default:
		return 2
	}
}

// Node is one vertex of the combinational netlist.
type Node struct {
	// Op is the operation computed by the node.
	Op Op
	// Width is the bit width of the result, 1..64. Results are truncated
	// to Width bits after every evaluation.
	Width uint8
	// Args are the operand node IDs. Their length matches Op.NumArgs.
	Args [3]NodeID
	// NArgs is the number of valid entries in Args.
	NArgs uint8
	// Const holds the literal value for OpConst.
	Const uint64
	// Mem indexes Module.Mems for OpMemRead.
	Mem int32
	// Src is 1 + the node's index into Module.Srcs, or 0 when the node
	// has no recorded source provenance. Frontends (the Verilog
	// elaborator) stamp nodes with the source line they were lowered
	// from so lint diagnostics can point back at HDL source.
	Src int32
	// Name is an optional debug name; analyses must not depend on it.
	Name string
}

// SrcLoc is a source provenance record: the HDL file (or module) and
// line a node was lowered from.
type SrcLoc struct {
	File string
	Line int
}

// String renders the location as file:line.
func (s SrcLoc) String() string { return fmt.Sprintf("%s:%d", s.File, s.Line) }

// Mask returns the bit mask corresponding to the node's width.
func (n *Node) Mask() uint64 { return WidthMask(n.Width) }

// WidthMask returns a mask with the low w bits set (w in 1..64).
func WidthMask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Reg describes one register (state element). Registers latch their Next
// value at the end of every cycle and expose the current value through
// an OpReg node.
type Reg struct {
	// Node is the OpReg node carrying the register's current value.
	Node NodeID
	// Next is the combinational next-value expression.
	Next NodeID
	// Init is the reset value.
	Init uint64
	// Name is an optional debug name; analyses must not depend on it.
	Name string
}

// Mem is a word-addressed memory (scratchpad). The testbench loads Data
// before a job starts; MemWrite ports may update it during execution.
type Mem struct {
	// Name identifies the memory for job encoding ("in", "out", ...).
	Name string
	// Words is the addressable size. Reads beyond Words return 0.
	Words int
	// Data is the backing store, resized to Words at simulation start.
	Data []uint64
	// ROM marks read-only memories (lookup tables baked into the design,
	// e.g. an S-box). ROM contents count toward area, not scratchpad.
	ROM bool
}

// MemWrite is a synchronous memory write port: when En evaluates nonzero
// at the end of a cycle, Data is stored at Addr.
type MemWrite struct {
	Mem  int32
	Addr NodeID
	Data NodeID
	En   NodeID
}

// Module is a complete netlist: a DAG of nodes plus register, memory and
// write-port tables. The simulator (Sim) executes it cycle by cycle.
type Module struct {
	// Name identifies the design in reports.
	Name string
	// Nodes is the SSA node table. For every non-register node, all
	// arguments have strictly smaller IDs.
	Nodes []Node
	// Regs lists the state elements.
	Regs []Reg
	// Mems lists the memories.
	Mems []*Mem
	// Writes lists synchronous memory write ports.
	Writes []MemWrite
	// Done is a 1-bit signal; the simulator stops after the cycle in
	// which Done evaluates nonzero.
	Done NodeID
	// Srcs is the source-provenance table referenced by Node.Src.
	// Empty for modules built directly against the IR.
	Srcs []SrcLoc
	// regOf maps an OpReg node back to its Regs index; built lazily.
	regOf map[NodeID]int
}

// SrcOf returns the source location a node was lowered from, if any.
func (m *Module) SrcOf(id NodeID) (SrcLoc, bool) {
	if id < 0 || int(id) >= len(m.Nodes) {
		return SrcLoc{}, false
	}
	s := m.Nodes[id].Src
	if s <= 0 || int(s) > len(m.Srcs) {
		return SrcLoc{}, false
	}
	return m.Srcs[s-1], true
}

// NumNodes returns the number of nodes in the netlist.
func (m *Module) NumNodes() int { return len(m.Nodes) }

// RegIndex returns the Regs index for an OpReg node, or -1.
func (m *Module) RegIndex(id NodeID) int {
	if m.regOf == nil {
		m.regOf = make(map[NodeID]int, len(m.Regs))
		for i := range m.Regs {
			m.regOf[m.Regs[i].Node] = i
		}
	}
	if i, ok := m.regOf[id]; ok {
		return i
	}
	return -1
}

// MemByName returns the memory with the given name, or nil.
func (m *Module) MemByName(name string) *Mem {
	for _, mem := range m.Mems {
		if mem.Name == name {
			return mem
		}
	}
	return nil
}

// CheckLoad reports why words of job data cannot be loaded into the
// named memory, or nil if they can: the checks Sim.LoadMem makes before
// it copies. A caller simulating a slice of m uses it to reject a job
// exactly when a simulator of m would, even for memories the slice
// dropped.
func (m *Module) CheckLoad(name string, words int) error {
	mem := m.MemByName(name)
	switch {
	case mem == nil:
		return fmt.Errorf("rtl: module %s has no memory %q", m.Name, name)
	case mem.ROM:
		return fmt.Errorf("rtl: memory %q is a ROM", name)
	case words > mem.Words:
		return fmt.Errorf("rtl: %d words exceed memory %q size %d", words, name, mem.Words)
	}
	return nil
}

// invalidateCaches drops lazily built lookup tables after a mutation.
func (m *Module) invalidateCaches() { m.regOf = nil }

// Validate checks the structural invariants the simulator and the
// analyses rely on: argument counts per op, SSA ordering (arguments
// precede uses except through registers), width bounds, register and
// memory table consistency, and a reachable Done signal.
func (m *Module) Validate() error {
	if m.Done < 0 || int(m.Done) >= len(m.Nodes) {
		return fmt.Errorf("rtl: module %s: done signal %d out of range", m.Name, m.Done)
	}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.Width == 0 || n.Width > 64 {
			return fmt.Errorf("rtl: module %s: node %d (%s) has width %d", m.Name, i, n.Op, n.Width)
		}
		want := n.Op.NumArgs()
		if int(n.NArgs) != want {
			return fmt.Errorf("rtl: module %s: node %d (%s) has %d args, want %d", m.Name, i, n.Op, n.NArgs, want)
		}
		for a := 0; a < int(n.NArgs); a++ {
			arg := n.Args[a]
			if arg < 0 || int(arg) >= len(m.Nodes) {
				return fmt.Errorf("rtl: module %s: node %d (%s) arg %d out of range", m.Name, i, n.Op, a)
			}
			if arg >= NodeID(i) && n.Op != OpReg {
				return fmt.Errorf("rtl: module %s: node %d (%s) uses later node %d (not SSA)", m.Name, i, n.Op, arg)
			}
		}
		if n.Op == OpMemRead {
			if n.Mem < 0 || int(n.Mem) >= len(m.Mems) {
				return fmt.Errorf("rtl: module %s: node %d reads invalid mem %d", m.Name, i, n.Mem)
			}
		}
	}
	seen := make(map[NodeID]bool, len(m.Regs))
	for i := range m.Regs {
		r := &m.Regs[i]
		if r.Node < 0 || int(r.Node) >= len(m.Nodes) || m.Nodes[r.Node].Op != OpReg {
			return fmt.Errorf("rtl: module %s: reg %d (%s) has invalid state node", m.Name, i, r.Name)
		}
		if r.Next < 0 || int(r.Next) >= len(m.Nodes) {
			return fmt.Errorf("rtl: module %s: reg %d (%s) has invalid next node", m.Name, i, r.Name)
		}
		if seen[r.Node] {
			return fmt.Errorf("rtl: module %s: reg node %d bound twice", m.Name, r.Node)
		}
		seen[r.Node] = true
		if init, mask := r.Init, m.Nodes[r.Node].Mask(); init&^mask != 0 {
			return fmt.Errorf("rtl: module %s: reg %d (%s) init %d exceeds width", m.Name, i, r.Name, init)
		}
	}
	for i := range m.Nodes {
		if m.Nodes[i].Op == OpReg && !seen[NodeID(i)] {
			return fmt.Errorf("rtl: module %s: OpReg node %d has no Regs entry", m.Name, i)
		}
	}
	for i, w := range m.Writes {
		if w.Mem < 0 || int(w.Mem) >= len(m.Mems) {
			return fmt.Errorf("rtl: module %s: write port %d targets invalid mem", m.Name, i)
		}
		if m.Mems[w.Mem].ROM {
			return fmt.Errorf("rtl: module %s: write port %d targets ROM %s", m.Name, i, m.Mems[w.Mem].Name)
		}
		for _, id := range [...]NodeID{w.Addr, w.Data, w.En} {
			if id < 0 || int(id) >= len(m.Nodes) {
				return fmt.Errorf("rtl: module %s: write port %d has invalid node", m.Name, i)
			}
		}
	}
	for _, mem := range m.Mems {
		if mem.Words <= 0 {
			return fmt.Errorf("rtl: module %s: mem %s has non-positive size", m.Name, mem.Name)
		}
	}
	return nil
}

// Uses returns, for each node, the list of nodes that consume it as an
// argument. Register next expressions and memory write ports are
// reported separately by callers that need them.
func (m *Module) Uses() [][]NodeID {
	uses := make([][]NodeID, len(m.Nodes))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		for a := 0; a < int(n.NArgs); a++ {
			uses[n.Args[a]] = append(uses[n.Args[a]], NodeID(i))
		}
	}
	return uses
}

// EvalConst evaluates a node if its value is a compile-time constant
// (OpConst, or operations over constants). It returns (value, true) on
// success. It does not fold through registers, inputs, or memories.
func (m *Module) EvalConst(id NodeID) (uint64, bool) {
	n := &m.Nodes[id]
	switch n.Op {
	case OpConst:
		return n.Const & n.Mask(), true
	case OpInput, OpReg, OpMemRead:
		return 0, false
	}
	var vals [3]uint64
	for a := 0; a < int(n.NArgs); a++ {
		v, ok := m.EvalConst(n.Args[a])
		if !ok {
			return 0, false
		}
		vals[a] = v
	}
	return evalOp(n, vals), true
}

// EvalNode applies a combinational node's operation to
// already-evaluated argument values, truncating to the node's width —
// the single-node semantics every engine implements. Exported for the
// codegen translator (internal/rtl/codegen), whose constant folding
// must agree with the engines bit for bit. Panics on non-combinational
// ops (OpConst, OpInput, OpReg, OpMemRead).
func EvalNode(n *Node, v [3]uint64) uint64 { return evalOp(n, v) }

// evalOp applies a combinational operation to already-evaluated args.
func evalOp(n *Node, v [3]uint64) uint64 {
	var r uint64
	switch n.Op {
	case OpAdd:
		r = v[0] + v[1]
	case OpSub:
		r = v[0] - v[1]
	case OpMul:
		r = v[0] * v[1]
	case OpAnd:
		r = v[0] & v[1]
	case OpOr:
		r = v[0] | v[1]
	case OpXor:
		r = v[0] ^ v[1]
	case OpNot:
		r = ^v[0]
	case OpShl:
		if v[1] >= 64 {
			r = 0
		} else {
			r = v[0] << v[1]
		}
	case OpShr:
		if v[1] >= 64 {
			r = 0
		} else {
			r = v[0] >> v[1]
		}
	case OpEq:
		if v[0] == v[1] {
			r = 1
		}
	case OpNe:
		if v[0] != v[1] {
			r = 1
		}
	case OpLt:
		if v[0] < v[1] {
			r = 1
		}
	case OpLe:
		if v[0] <= v[1] {
			r = 1
		}
	case OpMux:
		if v[0] != 0 {
			r = v[1]
		} else {
			r = v[2]
		}
	default:
		panic(fmt.Sprintf("rtl: evalOp on %s", n.Op))
	}
	return r & n.Mask()
}

// WidthFor returns the minimum width able to represent v (at least 1).
func WidthFor(v uint64) uint8 {
	if v == 0 {
		return 1
	}
	return uint8(bits.Len64(v))
}
