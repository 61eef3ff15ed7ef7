package rtl

import (
	"testing"
	"testing/quick"
)

func TestWidthMask(t *testing.T) {
	cases := []struct {
		w    uint8
		want uint64
	}{
		{1, 1},
		{2, 3},
		{8, 0xff},
		{16, 0xffff},
		{32, 0xffffffff},
		{63, (uint64(1) << 63) - 1},
		{64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := WidthMask(c.w); got != c.want {
			t.Errorf("WidthMask(%d) = %#x, want %#x", c.w, got, c.want)
		}
	}
}

func TestWidthFor(t *testing.T) {
	cases := []struct {
		v    uint64
		want uint8
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := WidthFor(c.v); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestOpNumArgs(t *testing.T) {
	for op := OpConst; op <= OpMemRead; op++ {
		n := op.NumArgs()
		if n < 0 || n > 3 {
			t.Errorf("op %s reports %d args", op, n)
		}
	}
	if OpMux.NumArgs() != 3 {
		t.Errorf("mux args = %d", OpMux.NumArgs())
	}
	if OpNot.NumArgs() != 1 {
		t.Errorf("not args = %d", OpNot.NumArgs())
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpMux.String() != "mux" {
		t.Errorf("op names wrong: %s %s", OpAdd, OpMux)
	}
	if s := Op(200).String(); s == "" {
		t.Error("unknown op produced empty string")
	}
}

// buildArith constructs a module computing a small arithmetic circuit so
// value semantics can be spot-checked against Go's integer arithmetic.
func buildArith(t *testing.T) (*Module, NodeID, NodeID, NodeID) {
	t.Helper()
	b := NewBuilder("arith")
	x := b.Input("x", 16)
	y := b.Input("y", 16)
	sum := x.Add(y)
	diff := x.Sub(y)
	prod := x.Mul(y, 32)
	done := b.Const(1, 1)
	b.SetDone(done)
	// Keep results referenced via registers so nothing is dead.
	rs := b.Reg("rs", 16, 0)
	b.SetNext(rs, sum)
	rd := b.Reg("rd", 16, 0)
	b.SetNext(rd, diff)
	rp := b.Reg("rp", 32, 0)
	b.SetNext(rp, prod)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m, x.ID(), y.ID(), sum.ID()
}

func TestSimArithmetic(t *testing.T) {
	m, xid, yid, _ := buildArith(t)
	s := NewSim(m)
	f := func(x, y uint16) bool {
		s.Reset()
		s.SetInput(xid, uint64(x))
		s.SetInput(yid, uint64(y))
		s.Step()
		okSum := s.RegValue(0) == uint64(x+y)
		okDiff := s.RegValue(1) == uint64(x-y)
		okProd := s.RegValue(2) == (uint64(x)*uint64(y))&0xffffffff
		return okSum && okDiff && okProd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimComparisons(t *testing.T) {
	b := NewBuilder("cmp")
	x := b.Input("x", 8)
	y := b.Input("y", 8)
	outs := []Signal{x.Eq(y), x.Ne(y), x.Lt(y), x.Le(y), x.Gt(y), x.Ge(y)}
	for i, o := range outs {
		r := b.Reg("r", 1, 0)
		b.SetNext(r, o)
		_ = i
	}
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	s := NewSim(m)
	f := func(x8, y8 uint8) bool {
		s.Reset()
		s.SetInput(m.Nodes[0].Args[0], 0) // no-op; inputs found below
		// Inputs are nodes 0 and 1 by construction order.
		s.SetInput(0, uint64(x8))
		s.SetInput(1, uint64(y8))
		s.Step()
		want := []bool{x8 == y8, x8 != y8, x8 < y8, x8 <= y8, x8 > y8, x8 >= y8}
		for i, w := range want {
			got := s.RegValue(i) != 0
			if got != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimShiftLogic(t *testing.T) {
	b := NewBuilder("shift")
	x := b.Input("x", 32)
	k := b.Input("k", 6)
	regs := []Signal{
		x.Shl(k), x.Shr(k), x.Not(), x.And(x.Not()), x.Or(x.Not()), x.Xor(x),
	}
	for _, o := range regs {
		r := b.Reg("r", o.Width(), 0)
		b.SetNext(r, o)
	}
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	s := NewSim(m)
	f := func(x32 uint32, k6 uint8) bool {
		k6 &= 63
		s.Reset()
		s.SetInput(0, uint64(x32))
		s.SetInput(1, uint64(k6))
		s.Step()
		mask := uint64(0xffffffff)
		want := []uint64{
			(uint64(x32) << k6) & mask,
			uint64(x32) >> k6,
			^uint64(x32) & mask,
			uint64(x32) & ^uint64(x32) & mask,
			(uint64(x32) | (^uint64(x32) & mask)) & mask,
			0,
		}
		for i, w := range want {
			if s.RegValue(i) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegisterLatchesAtCycleEnd(t *testing.T) {
	// A two-stage pipeline must delay by exactly two cycles.
	b := NewBuilder("pipe")
	x := b.Input("x", 8)
	s1 := b.Reg("s1", 8, 0)
	b.SetNext(s1, x)
	s2 := b.Reg("s2", 8, 0)
	b.SetNext(s2, s1.Signal)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	sim := NewSim(m)
	sim.SetInput(x.ID(), 42)
	sim.Step()
	if sim.RegValue(1) != 0 {
		t.Fatalf("s2 after 1 cycle = %d, want 0", sim.RegValue(1))
	}
	sim.Step()
	if sim.RegValue(1) != 42 {
		t.Fatalf("s2 after 2 cycles = %d, want 42", sim.RegValue(1))
	}
}

func TestMemoryReadWrite(t *testing.T) {
	b := NewBuilder("mem")
	mem := b.Memory("buf", 16)
	addr := b.Reg("addr", 4, 0)
	b.SetNext(addr, addr.Inc())
	data := b.Read(mem, addr.Signal, 32)
	_ = b.Accum("acc", 32, b.Const(1, 1), data)
	// Write addr*2 back to a second memory.
	out := b.Memory("out", 16)
	b.Write(out, addr.Signal, data.ShlK(1), b.Const(1, 1))
	done := addr.EqK(15)
	b.SetDone(done)
	m := b.MustBuild()
	s := NewSim(m)
	in := make([]uint64, 16)
	var want uint64
	for i := range in {
		in[i] = uint64(i * 3)
		want += in[i]
	}
	if err := s.LoadMem("buf", in); err != nil {
		t.Fatal(err)
	}
	cycles, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 16 {
		t.Errorf("cycles = %d, want 16", cycles)
	}
	if got := s.RegValue(int(1)); got != want {
		t.Errorf("acc = %d, want %d", got, want)
	}
	outData := s.Mem("out")
	for i := 0; i < 16; i++ {
		if outData[i] != in[i]*2 {
			t.Errorf("out[%d] = %d, want %d", i, outData[i], in[i]*2)
		}
	}
}

// TestLoadMemZeroesTail: a shorter image loaded over a longer one, with
// no Reset in between, must leave the words past its end zero.
func TestLoadMemZeroesTail(t *testing.T) {
	b := NewBuilder("load")
	mem := b.Memory("buf", 16)
	addr := b.Reg("addr", 4, 0)
	b.SetNext(addr, addr.Inc())
	b.SetDone(b.Read(mem, addr.Signal, 32).EqK(0))
	s := NewSim(b.MustBuild())
	long := make([]uint64, 16)
	for i := range long {
		long[i] = uint64(i + 1)
	}
	if err := s.LoadMem("buf", long); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadMem("buf", []uint64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 16)
	copy(want, []uint64{7, 8, 9})
	for i, w := range s.Mem("buf") {
		if w != want[i] {
			t.Fatalf("buf[%d] = %d after loading a shorter image, want %d", i, w, want[i])
		}
	}
}

func TestROMRead(t *testing.T) {
	b := NewBuilder("rom")
	rom := b.ROM("sbox", []uint64{7, 11, 13, 17})
	a := b.Input("a", 2)
	v := b.Read(rom, a, 8)
	r := b.Reg("r", 8, 0)
	b.SetNext(r, v)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	s := NewSim(m)
	for i, want := range []uint64{7, 11, 13, 17} {
		s.SetInput(a.ID(), uint64(i))
		s.Step()
		if got := s.RegValue(0); got != want {
			t.Errorf("rom[%d] = %d, want %d", i, got, want)
		}
	}
	// ROM contents must survive Reset.
	s.Reset()
	s.SetInput(a.ID(), 3)
	s.Step()
	if got := s.RegValue(0); got != 17 {
		t.Errorf("rom[3] after reset = %d, want 17", got)
	}
}

func TestOutOfRangeMemAccess(t *testing.T) {
	b := NewBuilder("oob")
	mem := b.Memory("buf", 4)
	a := b.Input("a", 8)
	v := b.Read(mem, a, 32)
	r := b.Reg("r", 32, 5)
	b.SetNext(r, v)
	b.Write(mem, a, b.Const(9, 32), b.Const(1, 1))
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	s := NewSim(m)
	s.SetInput(a.ID(), 200) // out of range: read 0, write dropped
	s.Step()
	if got := s.RegValue(0); got != 0 {
		t.Errorf("oob read = %d, want 0", got)
	}
	for i, w := range s.Mem("buf") {
		if w != 0 {
			t.Errorf("buf[%d] = %d after oob write, want 0", i, w)
		}
	}
}

func TestRunHitsLimit(t *testing.T) {
	b := NewBuilder("forever")
	b.SetDone(b.Const(0, 1))
	m := b.MustBuild()
	s := NewSim(m)
	if _, err := s.Run(10); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}

func TestResetRestoresState(t *testing.T) {
	b := NewBuilder("reset")
	c := b.Reg("c", 8, 3)
	b.SetNext(c, c.Inc())
	b.SetDone(c.EqK(10))
	m := b.MustBuild()
	s := NewSim(m)
	n1, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	n2, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Errorf("run lengths differ after reset: %d vs %d", n1, n2)
	}
	if s.Cycles() != n2 {
		t.Errorf("Cycles() = %d, want %d", s.Cycles(), n2)
	}
}

func TestSimDeterminism(t *testing.T) {
	m, xid, yid, _ := buildArith(t)
	s1 := NewSim(m)
	s2 := NewSim(m)
	for _, s := range []*Sim{s1, s2} {
		s.SetInput(xid, 1234)
		s.SetInput(yid, 567)
		s.Step()
		s.Step()
	}
	for i := 0; i < 3; i++ {
		if s1.RegValue(i) != s2.RegValue(i) {
			t.Errorf("reg %d differs between identical runs", i)
		}
	}
}

func TestValidateCatchesBadModules(t *testing.T) {
	// Non-SSA argument ordering.
	m := &Module{
		Name: "bad",
		Nodes: []Node{
			{Op: OpAdd, Width: 8, Args: [3]NodeID{1, 1}, NArgs: 2},
			{Op: OpConst, Width: 8, Const: 1},
		},
		Done: 1,
	}
	if err := m.Validate(); err == nil {
		t.Error("forward reference not caught")
	}
	// Register without table entry.
	m2 := &Module{
		Name:  "bad2",
		Nodes: []Node{{Op: OpReg, Width: 8}, {Op: OpConst, Width: 1, Const: 1}},
		Done:  1,
	}
	if err := m2.Validate(); err == nil {
		t.Error("orphan reg not caught")
	}
	// Done out of range.
	m3 := &Module{Name: "bad3", Nodes: []Node{{Op: OpConst, Width: 1}}, Done: 5}
	if err := m3.Validate(); err == nil {
		t.Error("bad done not caught")
	}
	// Init exceeding width.
	b := NewBuilder("w")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized init not caught by builder")
			}
		}()
		b.Reg("r", 4, 300)
	}()
}

func TestEvalConst(t *testing.T) {
	b := NewBuilder("k")
	x := b.Const(20, 8)
	y := b.Const(3, 8)
	e := x.Mul(y, 8).Add(b.Const(1, 8))
	inp := b.Input("i", 8)
	dyn := e.Add(inp)
	r := b.Reg("r", 8, 0)
	b.SetNext(r, dyn)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	if v, ok := m.EvalConst(e.ID()); !ok || v != 61 {
		t.Errorf("EvalConst = %d,%v want 61,true", v, ok)
	}
	if _, ok := m.EvalConst(dyn.ID()); ok {
		t.Error("EvalConst folded through an input")
	}
}

func TestConstDeduplication(t *testing.T) {
	b := NewBuilder("dedup")
	a := b.Const(5, 8)
	c := b.Const(5, 8)
	if a.ID() != c.ID() {
		t.Error("identical constants not shared")
	}
	d := b.Const(5, 16)
	if d.ID() == a.ID() {
		t.Error("constants of different widths shared")
	}
}

func TestBitsAndTrunc(t *testing.T) {
	b := NewBuilder("bits")
	x := b.Input("x", 32)
	lo := x.Bits(0, 8)
	mid := x.Bits(8, 4)
	r1 := b.Reg("r1", 8, 0)
	b.SetNext(r1, lo)
	r2 := b.Reg("r2", 4, 0)
	b.SetNext(r2, mid)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	s := NewSim(m)
	s.SetInput(x.ID(), 0xABCD12)
	s.Step()
	if got := s.RegValue(0); got != 0x12 {
		t.Errorf("bits(0,8) = %#x, want 0x12", got)
	}
	if got := s.RegValue(1); got != 0xD {
		t.Errorf("bits(8,4) = %#x, want 0xd", got)
	}
}

func TestFSMBuilderLowering(t *testing.T) {
	// 3-state machine: 0 -> 1 on go, 1 -> 2 always, 2 -> 0 always.
	b := NewBuilder("fsm")
	gosig := b.Input("go", 1)
	f := b.FSM("ctrl", 3)
	f.When(0, gosig, 1)
	f.Always(1, 2)
	f.Always(2, 0)
	st := f.Build()
	b.SetDone(b.Const(0, 1))
	done := b.Const(1, 1)
	_ = done
	b.SetDone(b.Const(0, 1))
	m := b.MustBuild()
	s := NewSim(m)
	// Without go, stay at 0.
	s.Step()
	if got := s.Value(st.ID()); got != 0 {
		t.Fatalf("state after idle = %d, want 0", got)
	}
	s.SetInput(gosig.ID(), 1)
	s.Step()
	if got := s.Value(st.ID()); got != 1 {
		t.Fatalf("state = %d, want 1", got)
	}
	s.SetInput(gosig.ID(), 0)
	s.Step()
	if got := s.Value(st.ID()); got != 2 {
		t.Fatalf("state = %d, want 2", got)
	}
	s.Step()
	if got := s.Value(st.ID()); got != 0 {
		t.Fatalf("state = %d, want 0", got)
	}
}

func TestFSMFirstMatchingTransitionWins(t *testing.T) {
	b := NewBuilder("fsmprio")
	a := b.Input("a", 1)
	c := b.Input("c", 1)
	f := b.FSM("ctrl", 4)
	f.When(0, a, 1)
	f.When(0, c, 2)
	f.Always(0, 3)
	st := f.Build()
	b.SetDone(b.Const(0, 1))
	m := b.MustBuild()
	s := NewSim(m)
	s.SetInput(a.ID(), 1)
	s.SetInput(c.ID(), 1)
	s.Step()
	if got := s.Value(st.ID()); got != 1 {
		t.Fatalf("priority broken: state = %d, want 1", got)
	}
	s.Reset()
	s.SetInput(a.ID(), 0)
	s.SetInput(c.ID(), 1)
	s.Step()
	if got := s.Value(st.ID()); got != 2 {
		t.Fatalf("state = %d, want 2", got)
	}
	s.Reset()
	s.Step()
	if got := s.Value(st.ID()); got != 3 {
		t.Fatalf("default transition: state = %d, want 3", got)
	}
}

func TestFSMBuilderRejectsBadTables(t *testing.T) {
	b := NewBuilder("badfsm")
	f := b.FSM("ctrl", 2)
	f.Always(0, 1)
	f.When(0, b.Const(1, 1), 0) // after unconditional: invalid
	f.Build()
	b.SetDone(b.Const(0, 1))
	if _, err := b.Build(); err == nil {
		t.Error("transition after unconditional not rejected")
	}
	b2 := NewBuilder("badfsm2")
	f2 := b2.FSM("ctrl", 2)
	f2.Always(0, 7) // out of range
	f2.Build()
	b2.SetDone(b2.Const(0, 1))
	if _, err := b2.Build(); err == nil {
		t.Error("out-of-range state not rejected")
	}
}

func TestDownCounter(t *testing.T) {
	b := NewBuilder("dc")
	load := b.Input("load", 1)
	val := b.Input("val", 8)
	c := b.DownCounter("c", 8, load, val)
	b.SetDone(b.Const(0, 1))
	m := b.MustBuild()
	s := NewSim(m)
	s.SetInput(load.ID(), 1)
	s.SetInput(val.ID(), 3)
	s.Step()
	s.SetInput(load.ID(), 0)
	want := []uint64{3, 2, 1, 0, 0}
	for i, w := range want {
		if got := s.Value(c.ID()); got != w {
			t.Fatalf("step %d: counter = %d, want %d", i, got, w)
		}
		s.Step()
	}
}

func TestUpCounter(t *testing.T) {
	b := NewBuilder("uc")
	clr := b.Input("clr", 1)
	en := b.Input("en", 1)
	c := b.UpCounter("c", 8, clr, en)
	b.SetDone(b.Const(0, 1))
	m := b.MustBuild()
	s := NewSim(m)
	s.SetInput(en.ID(), 1)
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if got := s.Value(c.ID()); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	s.SetInput(clr.ID(), 1)
	s.Step()
	if got := s.Value(c.ID()); got != 0 {
		t.Fatalf("after clear = %d, want 0", got)
	}
}

func TestAreaStats(t *testing.T) {
	b := NewBuilder("area")
	x := b.Input("x", 16)
	y := b.Input("y", 16)
	p := x.Mul(y, 32)
	r := b.Reg("r", 32, 0)
	b.SetNext(r, p)
	b.Memory("buf", 64)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	st := Stats(m)
	if st.LogicGates <= 0 || st.RegGates <= 0 || st.MemGates <= 0 {
		t.Errorf("stats not positive: %+v", st)
	}
	if st.Total() != st.LogicGates+st.RegGates+st.MemGates {
		t.Error("Total mismatch")
	}
	if st.LogicArea() != st.LogicGates+st.RegGates {
		t.Error("LogicArea mismatch")
	}
	// A multiplier should dominate this tiny design's logic.
	if st.LogicGates < 1.2*32*32*0.9 {
		t.Errorf("multiplier cost missing: %f", st.LogicGates)
	}
}

func TestUsesTable(t *testing.T) {
	b := NewBuilder("uses")
	x := b.Input("x", 8)
	yda := x.Add(x)
	r := b.Reg("r", 8, 0)
	b.SetNext(r, yda)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	uses := m.Uses()
	if len(uses[x.ID()]) != 2 {
		t.Errorf("x used %d times, want 2 (both add args)", len(uses[x.ID()]))
	}
}

func TestRegIndex(t *testing.T) {
	b := NewBuilder("ri")
	r0 := b.Reg("a", 8, 0)
	r1 := b.Reg("b", 8, 0)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	if m.RegIndex(r0.ID()) != 0 || m.RegIndex(r1.ID()) != 1 {
		t.Error("RegIndex wrong")
	}
	if m.RegIndex(m.Done) != -1 {
		t.Error("RegIndex of non-reg should be -1")
	}
}
