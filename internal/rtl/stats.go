package rtl

// Area modeling. The paper obtains area from a Synopsys place-and-route
// flow with a TSMC 65 nm library; our substitute assigns each netlist
// element a gate-equivalent cost and scales by a per-design calibration
// constant (µm² per gate equivalent). Ratios between a slice and its
// parent design — the quantities the evaluation actually reports — are
// independent of the calibration constant.

// GateCost returns the gate-equivalent cost of one node at its width.
// Costs are rough standard-cell weights: a register bit costs more than
// a 2-input gate; multipliers grow quadratically with width; memories
// are costed separately by MemGates.
func GateCost(n *Node) float64 {
	w := float64(n.Width)
	switch n.Op {
	case OpConst, OpInput:
		return 0
	case OpReg:
		return 6 * w // DFF ≈ 6 gate equivalents per bit
	case OpAdd, OpSub:
		return 3 * w // ripple adder cell per bit
	case OpMul:
		return 1.2 * w * w // array multiplier
	case OpAnd, OpOr, OpXor:
		return 1 * w
	case OpNot:
		return 0.5 * w
	case OpShl, OpShr:
		return 2 * w // barrel shifter stage proxy
	case OpEq, OpNe:
		return 1.5 * w
	case OpLt, OpLe:
		return 2 * w
	case OpMux:
		return 1.5 * w
	case OpMemRead:
		return 2 * w // read port mux/drivers
	default:
		return w
	}
}

// MemGates returns the gate-equivalent cost of a memory array. SRAM
// bits are denser than logic; ROMs denser still.
func MemGates(m *Mem) float64 {
	bits := float64(m.Words) * 32 // cost by word count at a nominal 32-bit word
	if m.ROM {
		return 0.3 * bits
	}
	return 1.0 * bits
}

// AreaStats summarizes the sizes of a module.
type AreaStats struct {
	// LogicGates is the gate-equivalent count of combinational logic.
	LogicGates float64
	// RegGates is the gate-equivalent count of sequential elements.
	RegGates float64
	// ROMGates is the gate-equivalent count of read-only tables, which
	// synthesize to combinational logic on an ASIC (S-boxes, constant
	// tables).
	ROMGates float64
	// MemGates is the gate-equivalent count of RAM arrays.
	MemGates float64
	// Nodes and Regs are raw element counts.
	Nodes int
	Regs  int
}

// Total returns the total gate-equivalent count.
func (a AreaStats) Total() float64 {
	return a.LogicGates + a.RegGates + a.ROMGates + a.MemGates
}

// Stats computes the area statistics of a module.
func Stats(m *Module) AreaStats {
	var st AreaStats
	st.Nodes = len(m.Nodes)
	st.Regs = len(m.Regs)
	for i := range m.Nodes {
		n := &m.Nodes[i]
		c := GateCost(n)
		if n.Op == OpReg {
			st.RegGates += c
		} else {
			st.LogicGates += c
		}
	}
	for _, mem := range m.Mems {
		if mem.ROM {
			st.ROMGates += MemGates(mem)
		} else {
			st.MemGates += MemGates(mem)
		}
	}
	return st
}

// LogicArea returns the synthesized-logic gate count (combinational
// logic, registers, and ROM tables). RAM scratchpads are excluded: they
// are shared with the predictor slice in the paper's system model
// (time-multiplexed access, Figure 5), so slice-vs-full area ratios
// must not double-count them.
func (a AreaStats) LogicArea() float64 { return a.LogicGates + a.RegGates + a.ROMGates }

// CombNodes counts the nodes an engine evaluates each cycle: every node
// that is not a constant, an input or a register.
func CombNodes(m *Module) int {
	n := 0
	for i := range m.Nodes {
		switch m.Nodes[i].Op {
		case OpConst, OpInput, OpReg:
		default:
			n++
		}
	}
	return n
}
