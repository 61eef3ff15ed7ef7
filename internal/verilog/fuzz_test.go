package verilog

import (
	"fmt"
	"testing"

	"repro/internal/rtl"
)

// fuzzSeedSources are valid and near-valid inputs covering the grammar:
// declarations, always blocks, case, instances, and the constructs the
// emitter produces — plus malformed fragments to push the parser down
// its error paths.
var fuzzSeedSources = []string{
	"",
	"module m; endmodule",
	"module m(input clk, input [7:0] a, output [7:0] q);\n" +
		"  reg [7:0] q;\n  always @(posedge clk) q <= a + 8'd1;\nendmodule\n",
	"module m(input clk, input [3:0] s, output reg [3:0] q);\n" +
		"  always @(posedge clk) begin\n" +
		"    case (s)\n      4'd0: q <= 4'd1;\n      default: q <= s;\n    endcase\n  end\nendmodule\n",
	"module m(input [7:0] a, input [7:0] b, output [8:0] s);\n" +
		"  assign s = {1'b0, a} + {1'b0, b};\nendmodule\n",
	"module m(input c, input [7:0] a, output [7:0] q);\n" +
		"  assign q = c ? ~a : (a << 2) | {4{c}};\nendmodule\n",
	"module top(input clk, output [7:0] q);\n" +
		"  wire [7:0] w;\n  sub u0(.clk(clk), .q(w));\n  assign q = w;\nendmodule\n" +
		"module sub(input clk, output reg [7:0] q);\n  always @(posedge clk) q <= q + 8'd1;\nendmodule\n",
	"module m #(parameter W = 8)(input [W-1:0] a, output [W-1:0] q);\n  assign q = a;\nendmodule\n",
	"module m(input clk); initial $display(\"x\"); endmodule",
	"module m(input [63:0] a, output o); assign o = ^a; endmodule",
	// Malformed fragments.
	"module",
	"module m(input [7:0] a; endmodule",
	"module m; assign = 1; endmodule",
	"module m; wire [999999999999:0] w; endmodule",
	"module m; always @(posedge) endmodule",
	"16'hzzzz",
	// Elaborating designs (a done output), so the seed corpus reaches the
	// simulation property: carries into comparisons and a case subject,
	// truncating and widening assignments, memories, a ROM and a child.
	"module c(input clk, input [7:0] a, input [7:0] b, input [8:0] c9, output done);\n" +
		"  reg [0:0] eq = 0;\n  reg [0:0] lt = 0;\n  reg [1:0] k = 0;\n  reg [3:0] lo = 0;\n  reg [15:0] wide = 0;\n" +
		"  always @(posedge clk) begin\n" +
		"    eq <= (a + b) == c9;\n    lt <= (a + b) < c9;\n    lo <= a - b;\n    wide <= ~a + (b << 4);\n" +
		"    case (a + b)\n      9'd400: k <= 2'd1;\n      9'd300, 9'd44: k <= 2'd2;\n      default: k <= 2'd3;\n    endcase\n" +
		"  end\n  assign done = (a >= b) && !(|c9);\nendmodule\n",
	"module r(input clk, input [5:0] x, output done);\n" +
		"  reg [7:0] lut [0:3];\n  reg [11:0] buf2 [0:7];\n  reg [2:0] i = 0;\n  reg [11:0] acc = 1;\n" +
		"  initial begin\n    lut[0] = 8'd3;\n    lut[1] = 8'd250;\n  end\n" +
		"  wire [11:0] mix = {x[3:0], lut[i[1:0]]} ^ {2{x}};\n" +
		"  always @(posedge clk) begin\n    i <= i + 1;\n    acc <= (acc > mix) ? acc - mix : -acc;\n" +
		"    if (x[0] || &i) buf2[i] <= acc * x;\n  end\n" +
		"  assign done = i == 3'd7;\nendmodule\n",
	"module sub(input clk, input [3:0] d, output reg [4:0] q);\n" +
		"  always @(posedge clk) q <= q + d;\nendmodule\n" +
		"module top(input clk, input [3:0] d, output done);\n" +
		"  wire [4:0] q;\n  sub u0(.clk(clk), .d(d + 4'd9), .q(q));\n  assign done = q > 5'd30;\nendmodule\n",
}

// FuzzVerilogParse asserts the parser's containment properties: no
// input may panic it, and any source that survives ParseAndElaborate
// must round-trip — the emitted netlist re-parses, and the re-parsed
// module simulates exactly like the one elaborated from the source.
func FuzzVerilogParse(f *testing.F) {
	for _, src := range fuzzSeedSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			t.Skip("bound parse cost")
		}
		// Property 1: never panic, whatever the bytes.
		mods, err := ParseFile(src)
		if err != nil {
			return
		}
		for _, mod := range mods {
			if mod.Name == "" {
				t.Errorf("accepted module with empty name")
			}
		}
		// Property 2: sources that elaborate emit re-parseable Verilog.
		m, err := ParseAndElaborate(src)
		if err != nil {
			return
		}
		out := Emit(m)
		m2, err := ParseAndElaborate(out)
		if err != nil {
			t.Fatalf("emitted netlist does not re-parse: %v\n--- source\n%s\n--- emitted\n%s",
				err, clip(src), clip(out))
		}
		// Property 3: the re-parsed module behaves like the source.
		if msg := simDiff(m, m2); msg != "" {
			t.Fatalf("%s\n--- source\n%s\n--- emitted\n%s", msg, clip(src), clip(out))
		}
	})
}

// simDiff steps m and its emit → parse round trip m2 on the interpreter
// for a fixed number of cycles, driving every input with the same fixed
// values, and describes the first register, memory word or done signal
// that differs ("" if none does).
func simDiff(m, m2 *rtl.Module) string {
	const cycles = 12
	s1, s2 := rtl.NewInterpSim(m), rtl.NewInterpSim(m2)
	// The emitter names input node id in<id>_<name>.
	byName := map[string]rtl.NodeID{}
	for i := range m2.Nodes {
		if m2.Nodes[i].Op == rtl.OpInput {
			byName[m2.Nodes[i].Name] = rtl.NodeID(i)
		}
	}
	type port struct{ id, id2 rtl.NodeID }
	var ins []port
	for i := range m.Nodes {
		if m.Nodes[i].Op == rtl.OpInput {
			id2, ok := byName[fmt.Sprintf("in%d_%s", i, sanitize(m.Nodes[i].Name))]
			if !ok {
				return fmt.Sprintf("input %s lost in the round trip", m.Nodes[i].Name)
			}
			ins = append(ins, port{rtl.NodeID(i), id2})
		}
	}
	if len(m2.Regs) != len(m.Regs) || len(m2.Mems) != len(m.Mems) {
		return fmt.Sprintf("round trip has %d regs and %d memories, want %d and %d",
			len(m2.Regs), len(m2.Mems), len(m.Regs), len(m.Mems))
	}
	for c := 0; c < cycles; c++ {
		for k, p := range ins {
			v := uint64(c*len(ins)+k+1) * 0x9E3779B97F4A7C15
			s1.SetInput(p.id, v)
			s2.SetInput(p.id2, v)
		}
		if d1, d2 := s1.Step(), s2.Step(); d1 != d2 {
			return fmt.Sprintf("cycle %d: done %v vs %v", c, d1, d2)
		}
		for ri := range m.Regs {
			if v1, v2 := s1.RegValue(ri), s2.RegValue(ri); v1 != v2 {
				return fmt.Sprintf("cycle %d: reg %s = %d vs %d", c, m.Regs[ri].Name, v1, v2)
			}
		}
		for mi, mem := range m.Mems {
			w1, w2 := s1.Mem(mem.Name), s2.Mem(m2.Mems[mi].Name)
			for a := range w1 {
				if w1[a] != w2[a] {
					return fmt.Sprintf("cycle %d: %s[%d] = %d vs %d", c, mem.Name, a, w1[a], w2[a])
				}
			}
		}
	}
	return ""
}

func clip(s string) string {
	const max = 2000
	if len(s) <= max {
		return s
	}
	return s[:max] + "\n... (truncated)"
}
