package verilog

import (
	"fmt"
	"strings"

	"repro/internal/rtl"
)

// Emit renders an rtl.Module as synthesizable Verilog: one wire per
// combinational node, registers updated in a single always block,
// memories as reg arrays with write ports, ROM contents in an initial
// block. The output parses back through this package's frontend, which
// the round-trip tests rely on; it is also how generated hardware
// slices leave the flow for a real synthesis tool.
func Emit(m *rtl.Module) string {
	var sb strings.Builder
	e := &emitter{m: m, sb: &sb}
	e.emit()
	return sb.String()
}

type emitter struct {
	m  *rtl.Module
	sb *strings.Builder
	// names maps node IDs to Verilog identifiers.
	names []string
}

func sanitize(s string) string {
	var out []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if isIdentPart(c) && c != '$' {
			out = append(out, c)
		} else {
			out = append(out, '_')
		}
	}
	if len(out) == 0 || isDigit(out[0]) {
		out = append([]byte{'s'}, out...)
	}
	return string(out)
}

func (e *emitter) emit() {
	m := e.m
	e.names = make([]string, len(m.Nodes))

	// Port list: clk, inputs, done. A module with no register and no
	// memory write has no always block to clock, and a clk it declared
	// would parse back as a real input.
	sequential := len(m.Regs) > 0 || len(m.Writes) > 0
	var ports []string
	if sequential {
		ports = append(ports, "input clk")
	}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.Op != rtl.OpInput {
			continue
		}
		name := fmt.Sprintf("in%d_%s", i, sanitize(n.Name))
		e.names[i] = name
		ports = append(ports, fmt.Sprintf("input [%d:0] %s", n.Width-1, name))
	}
	ports = append(ports, "output done")
	fmt.Fprintf(e.sb, "module %s(%s);\n", sanitize(m.Name), strings.Join(ports, ", "))

	// Registers.
	for ri := range m.Regs {
		r := &m.Regs[ri]
		name := fmt.Sprintf("r%d_%s", ri, sanitize(r.Name))
		e.names[r.Node] = name
		w := m.Nodes[r.Node].Width
		fmt.Fprintf(e.sb, "  reg [%d:0] %s = %d'd%d;\n", w-1, name, w, r.Init)
	}

	// Memories keep their original (sanitized) names so job images load
	// by the same scratchpad names after a parse round trip.
	memNames := make([]string, len(m.Mems))
	seen := map[string]bool{}
	for mi, mem := range m.Mems {
		name := sanitize(mem.Name)
		if seen[name] {
			name = fmt.Sprintf("%s_%d", name, mi)
		}
		seen[name] = true
		memNames[mi] = name
		fmt.Fprintf(e.sb, "  reg [63:0] %s [0:%d];\n", name, mem.Words-1)
	}

	// Combinational nodes in SSA order.
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Op {
		case rtl.OpInput, rtl.OpReg:
			continue
		case rtl.OpConst:
			e.names[i] = fmt.Sprintf("%d'd%d", n.Width, n.Const)
			continue
		}
		name := fmt.Sprintf("n%d", i)
		e.names[i] = name
		fmt.Fprintf(e.sb, "  wire [%d:0] %s = %s;\n", n.Width-1, name, e.expr(i, memNames))
	}

	// ROM contents.
	hasROM := false
	for _, mem := range m.Mems {
		if mem.ROM && len(mem.Data) > 0 {
			hasROM = true
		}
	}
	if hasROM {
		fmt.Fprintf(e.sb, "  initial begin\n")
		for mi, mem := range m.Mems {
			if !mem.ROM {
				continue
			}
			for a, v := range mem.Data {
				fmt.Fprintf(e.sb, "    %s[%d] = 64'd%d;\n", memNames[mi], a, v)
			}
		}
		fmt.Fprintf(e.sb, "  end\n")
	}

	// Sequential logic.
	if sequential {
		fmt.Fprintf(e.sb, "  always @(posedge clk) begin\n")
		for ri := range m.Regs {
			r := &m.Regs[ri]
			fmt.Fprintf(e.sb, "    %s <= %s;\n", e.names[r.Node], e.names[r.Next])
		}
		for _, w := range m.Writes {
			fmt.Fprintf(e.sb, "    if (%s) %s[%s] <= %s;\n",
				e.names[w.En], memNames[w.Mem], e.names[w.Addr], e.names[w.Data])
		}
		fmt.Fprintf(e.sb, "  end\n")
	}

	// A one-bit done is assigned as it is, which the parser binds as it
	// is (see bindOutputs); a wider one is compared with zero.
	if m.Nodes[m.Done].Width == 1 {
		fmt.Fprintf(e.sb, "  assign done = %s;\n", e.names[m.Done])
	} else {
		fmt.Fprintf(e.sb, "  assign done = %s != 1'd0;\n", e.names[m.Done])
	}
	fmt.Fprintf(e.sb, "endmodule\n")
}

// binaryOps spells each two-operand rtl op in Verilog.
var binaryOps = map[rtl.Op]string{
	rtl.OpAdd: "+", rtl.OpSub: "-", rtl.OpMul: "*",
	rtl.OpAnd: "&", rtl.OpOr: "|", rtl.OpXor: "^",
	rtl.OpShl: "<<", rtl.OpShr: ">>",
	rtl.OpEq: "==", rtl.OpNe: "!=", rtl.OpLt: "<", rtl.OpLe: "<=",
}

// expr renders one combinational node's defining expression. Each wire
// is declared at its node's width and holds one operator, so the
// frontend's context sizing (see ParseAndElaborate) widens the operands
// exactly as the rtl op does: emit → parse is a behavioural round trip
// with no explicit zero-extension.
func (e *emitter) expr(i int, memNames []string) string {
	n := &e.m.Nodes[i]
	a := func(k int) string { return e.names[n.Args[k]] }
	if op, ok := binaryOps[n.Op]; ok {
		return fmt.Sprintf("%s %s %s", a(0), op, a(1))
	}
	switch n.Op {
	case rtl.OpNot:
		return "~" + a(0)
	case rtl.OpMux:
		return fmt.Sprintf("%s ? %s : %s", a(0), a(1), a(2))
	case rtl.OpMemRead:
		return fmt.Sprintf("%s[%s]", memNames[n.Mem], a(0))
	}
	return "0"
}
