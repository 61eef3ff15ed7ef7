package verilog

import (
	"testing"

	"repro/internal/rtl"
)

// evalModule elaborates src, drives the named inputs, steps once, and
// returns the named register's value.
func evalOnce(t *testing.T, src string, inputs map[string]uint64, reg string) uint64 {
	t.Helper()
	m, err := ParseAndElaborate(src)
	if err != nil {
		t.Fatal(err)
	}
	s := rtl.NewSim(m)
	for i := range m.Nodes {
		if m.Nodes[i].Op == rtl.OpInput {
			if v, ok := inputs[m.Nodes[i].Name]; ok {
				s.SetInput(rtl.NodeID(i), v)
			}
		}
	}
	s.Step()
	for ri := range m.Regs {
		if m.Regs[ri].Name == reg {
			return s.RegValue(ri)
		}
	}
	t.Fatalf("register %s not found", reg)
	return 0
}

func TestExpressionSemantics(t *testing.T) {
	src := `
module expr(input clk, input [7:0] a, input [7:0] b, output done);
  reg [7:0] sum = 0;
  reg [7:0] diff = 0;
  reg [15:0] prod = 0;
  reg [0:0] lt = 0;
  reg [7:0] sel = 0;
  reg [0:0] logic_and = 0;
  reg [0:0] carry = 0;
  wire [7:0] masked = a & 8'h0f;
  always @(posedge clk) begin
    sum <= a + b;
    diff <= a - b;
    prod <= a * b;
    lt <= a < b;
    sel <= (a > b) ? a : b;
    logic_and <= (a != 0) && (b != 0);
    carry <= (a + b) > 9'd255;
  end
  assign done = masked == 0;
endmodule
`
	cases := []struct {
		a, b uint64
	}{{3, 5}, {200, 100}, {255, 255}, {0, 7}}
	for _, c := range cases {
		in := map[string]uint64{"a": c.a, "b": c.b}
		if got := evalOnce(t, src, in, "sum"); got != (c.a+c.b)&0xff {
			t.Errorf("sum(%d,%d) = %d", c.a, c.b, got)
		}
		if got := evalOnce(t, src, in, "diff"); got != (c.a-c.b)&0xff {
			t.Errorf("diff(%d,%d) = %d", c.a, c.b, got)
		}
		if got := evalOnce(t, src, in, "prod"); got != (c.a*c.b)&0xffff {
			t.Errorf("prod(%d,%d) = %d", c.a, c.b, got)
		}
		wantLT := uint64(0)
		if c.a < c.b {
			wantLT = 1
		}
		if got := evalOnce(t, src, in, "lt"); got != wantLT {
			t.Errorf("lt(%d,%d) = %d", c.a, c.b, got)
		}
		wantSel := c.b
		if c.a > c.b {
			wantSel = c.a
		}
		if got := evalOnce(t, src, in, "sel"); got != wantSel {
			t.Errorf("sel(%d,%d) = %d", c.a, c.b, got)
		}
		wantAnd := uint64(0)
		if c.a != 0 && c.b != 0 {
			wantAnd = 1
		}
		if got := evalOnce(t, src, in, "logic_and"); got != wantAnd {
			t.Errorf("and(%d,%d) = %d", c.a, c.b, got)
		}
		// A comparison sizes a + b to its 9-bit operand: the carry counts.
		wantCarry := uint64(0)
		if c.a+c.b > 255 {
			wantCarry = 1
		}
		if got := evalOnce(t, src, in, "carry"); got != wantCarry {
			t.Errorf("carry(%d,%d) = %d, want %d", c.a, c.b, got, wantCarry)
		}
	}
}

func TestPartAndBitSelects(t *testing.T) {
	src := `
module sel(input clk, input [15:0] x, output done);
  reg [3:0] nib = 0;
  reg [0:0] bit5 = 0;
  always @(posedge clk) begin
    nib <= x[7:4];
    bit5 <= x[5];
  end
  assign done = nib == 0;
endmodule
`
	in := map[string]uint64{"x": 0xABCD}
	if got := evalOnce(t, src, in, "nib"); got != 0xC {
		t.Errorf("x[7:4] = %#x, want 0xc", got)
	}
	if got := evalOnce(t, src, in, "bit5"); got != (0xABCD>>5)&1 {
		t.Errorf("x[5] = %d", got)
	}
}

func TestCasePriorityAndDefault(t *testing.T) {
	src := `
module fsm(input clk, input [0:0] go, output done);
  reg [1:0] state = 0;
  always @(posedge clk) begin
    case (state)
      0: if (go) state <= 1;
      1: state <= 2;
      2, 3: state <= 0;
      default: state <= 0;
    endcase
  end
  assign done = state == 2;
endmodule
`
	m, err := ParseAndElaborate(src)
	if err != nil {
		t.Fatal(err)
	}
	s := rtl.NewSim(m)
	var goID rtl.NodeID = -1
	for i := range m.Nodes {
		if m.Nodes[i].Op == rtl.OpInput {
			goID = rtl.NodeID(i)
		}
	}
	// Hold in state 0 without go, then walk 0→1→2→0.
	s.Step()
	if s.RegValue(0) != 0 {
		t.Fatalf("state moved without go: %d", s.RegValue(0))
	}
	s.SetInput(goID, 1)
	s.Step()
	s.SetInput(goID, 0)
	want := []uint64{1, 2, 0, 0}
	for i, w := range want {
		if got := s.RegValue(0); got != w {
			t.Fatalf("step %d: state=%d want %d", i, got, w)
		}
		s.Step()
	}
}

// TestCaseSubjectWidth checks that a case subject is sized to its
// widest label: a + b keeps its carry against a 9-bit label.
func TestCaseSubjectWidth(t *testing.T) {
	src := `
module cw(input clk, input [7:0] a, input [7:0] b, output done);
  reg [1:0] hit = 0;
  always @(posedge clk) begin
    case (a + b)
      9'd300: hit <= 2'd1;
      9'd44: hit <= 2'd2;
      default: hit <= 2'd3;
    endcase
  end
  assign done = hit == 0;
endmodule
`
	cases := []struct{ a, b, want uint64 }{{200, 100, 1}, {20, 24, 2}, {1, 2, 3}}
	for _, c := range cases {
		if got := evalOnce(t, src, map[string]uint64{"a": c.a, "b": c.b}, "hit"); got != c.want {
			t.Errorf("case (%d + %d): hit = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSequentialOverride(t *testing.T) {
	// Within a block the last assignment wins (non-blocking semantics).
	src := `
module ov(input clk, input [0:0] c, output done);
  reg [7:0] r = 0;
  always @(posedge clk) begin
    r <= 8'd1;
    if (c) r <= 8'd2;
  end
  assign done = r == 0;
endmodule
`
	if got := evalOnce(t, src, map[string]uint64{"c": 0}, "r"); got != 1 {
		t.Errorf("r = %d, want 1", got)
	}
	if got := evalOnce(t, src, map[string]uint64{"c": 1}, "r"); got != 2 {
		t.Errorf("r = %d, want 2", got)
	}
}

func TestMemoriesAndInitialROM(t *testing.T) {
	src := `
module memy(input clk, output done);
  reg [7:0] buf2 [0:7];
  reg [7:0] lut [0:3];
  reg [3:0] i = 0;
  reg [15:0] acc = 0;
  initial begin
    lut[0] = 8'd10;
    lut[1] = 8'd20;
    lut[2] = 8'd30;
    lut[3] = 8'd40;
  end
  always @(posedge clk) begin
    i <= i + 1;
    acc <= acc + lut[i[1:0]];
    buf2[i[2:0]] <= lut[i[1:0]];
  end
  assign done = i == 9;
endmodule
`
	m, err := ParseAndElaborate(src)
	if err != nil {
		t.Fatal(err)
	}
	s := rtl.NewSim(m)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	// The run ends on the tick where i == 9 (done is combinational), and
	// acc also latches during that tick, so it accumulates i = 0..9.
	var want uint64
	lut := []uint64{10, 20, 30, 40}
	for i := 0; i <= 9; i++ {
		want += lut[i%4]
	}
	var accIdx = -1
	for ri := range m.Regs {
		if m.Regs[ri].Name == "acc" {
			accIdx = ri
		}
	}
	if got := s.RegValue(accIdx); got != want {
		t.Errorf("acc = %d, want %d", got, want)
	}
	if b := s.Mem("buf2"); b[0] != 10 || b[4] != 10 || b[3] != 40 {
		t.Errorf("buf2 = %v", b)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"module m(input clk output done); endmodule",                                  // missing comma
		"module m(input clk, output done); wire w = ;",                                // bad expr
		"module m(input clk, output done); foo bar;",                                  // unknown item
		"module m(input clk, output done);",                                           // no endmodule
		"module m(input clk, output done); always @(negedge clk) begin end endmodule", // negedge
	}
	for i, src := range cases {
		if _, err := ParseAndElaborate(src); err == nil {
			t.Errorf("case %d: invalid source accepted", i)
		}
	}
}

func TestElaborateErrors(t *testing.T) {
	cases := []string{
		// No done output.
		"module m(input clk, input [0:0] a); endmodule",
		// Undriven wire used.
		"module m(input clk, output done); wire [7:0] w; assign done = w == 0; endmodule",
		// Combinational cycle.
		"module m(input clk, output done); wire [7:0] a = b + 8'd1; wire [7:0] b = a + 8'd1; assign done = a == 0; endmodule",
		// Assignment to non-register.
		"module m(input clk, input [7:0] x, output done); always @(posedge clk) x <= 8'd0; assign done = 1'd1; endmodule",
		// Register initial value wider than the register.
		"module m(input clk, output done); reg [0:0] r = 10; assign done = r == 0; endmodule",
		// Register and memory redeclared.
		"module m(input clk, output done); reg [3:0] r = 0; reg [3:0] r = 1; assign done = r == 0; endmodule",
		"module m(input clk, output done); reg [3:0] k [0:3]; reg [3:0] k [0:3]; assign done = 1'd1; endmodule",
	}
	for i, src := range cases {
		if _, err := ParseAndElaborate(src); err == nil {
			t.Errorf("case %d: invalid module accepted", i)
		}
	}
}

func TestConcatReplicationReduction(t *testing.T) {
	src := `
module crr(input clk, input [3:0] a, input [3:0] b, output done);
  reg [7:0] cat = 0;
  reg [11:0] rep = 0;
  reg [0:0] orr = 0;
  reg [0:0] andr = 0;
  reg [0:0] xorr = 0;
  always @(posedge clk) begin
    cat <= {a, b};
    rep <= {3{a}};
    orr <= |a;
    andr <= &a;
    xorr <= ^a;
  end
  assign done = cat == 0;
endmodule
`
	cases := []struct{ a, b uint64 }{{0xA, 0x3}, {0, 0xF}, {0xF, 0}, {0x5, 0x5}}
	for _, c := range cases {
		in := map[string]uint64{"a": c.a, "b": c.b}
		if got := evalOnce(t, src, in, "cat"); got != c.a<<4|c.b {
			t.Errorf("{a,b} with a=%x b=%x = %x", c.a, c.b, got)
		}
		if got := evalOnce(t, src, in, "rep"); got != c.a<<8|c.a<<4|c.a {
			t.Errorf("{3{a}} with a=%x = %x", c.a, got)
		}
		wantOr, wantAnd, wantXor := uint64(0), uint64(0), uint64(0)
		if c.a != 0 {
			wantOr = 1
		}
		if c.a == 0xF {
			wantAnd = 1
		}
		for v := c.a; v != 0; v >>= 1 {
			wantXor ^= v & 1
		}
		if got := evalOnce(t, src, in, "orr"); got != wantOr {
			t.Errorf("|%x = %d", c.a, got)
		}
		if got := evalOnce(t, src, in, "andr"); got != wantAnd {
			t.Errorf("&%x = %d", c.a, got)
		}
		if got := evalOnce(t, src, in, "xorr"); got != wantXor {
			t.Errorf("^%x = %d, want %d", c.a, got, wantXor)
		}
	}
}
