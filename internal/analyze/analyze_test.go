package analyze

import (
	"math/rand"
	"testing"

	"repro/internal/rtl"
	"repro/internal/testdesigns"
)

func findFSMByReg(t *testing.T, a *Analysis, node rtl.NodeID) *FSM {
	t.Helper()
	for i := range a.FSMs {
		if a.FSMs[i].StateNode == node {
			return &a.FSMs[i]
		}
	}
	t.Fatalf("no FSM detected for node %d", node)
	return nil
}

func TestDetectToyFSM(t *testing.T) {
	toy := testdesigns.Toy()
	a := Analyze(toy.M)
	f := findFSMByReg(t, a, toy.State)
	if len(f.States) != 7 {
		t.Errorf("states = %v, want 7 states", f.States)
	}
	want := map[[2]uint64]bool{
		{0, 1}: true, {1, 2}: true,
		{2, 3}: true, {2, 4}: true,
		{3, 5}: true, {3, 3}: true,
		{4, 5}: true, {4, 4}: true,
		{5, 6}: true, {5, 1}: true,
		{6, 6}: true,
	}
	got := map[[2]uint64]bool{}
	for _, tr := range f.Transitions {
		got[[2]uint64{tr.From, tr.To}] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing transition %d->%d", k[0], k[1])
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("spurious transition %d->%d", k[0], k[1])
		}
	}
}

func TestDetectToyCounters(t *testing.T) {
	toy := testdesigns.Toy()
	a := Analyze(toy.M)
	fast := a.CounterByNode(toy.FastCnt)
	slow := a.CounterByNode(toy.SlowCnt)
	if fast < 0 || slow < 0 {
		t.Fatalf("counters not detected: fast=%d slow=%d", fast, slow)
	}
	for _, ci := range []int{fast, slow} {
		c := &a.Counters[ci]
		if c.Dir != Down || c.Step != 1 {
			t.Errorf("counter %s: dir=%d step=%d, want down/1", c.Name, c.Dir, c.Step)
		}
		if len(c.Loads) != 1 {
			t.Errorf("counter %s: %d loads, want 1", c.Name, len(c.Loads))
		}
	}
	// The slow counter's load value must not be constant (it comes from
	// the item's latency field); the fast one's must be the constant 3.
	if v, ok := toy.M.EvalConst(a.Counters[fast].Loads[0].Value); !ok || v != 3 {
		t.Errorf("fast load value = %d,%v want 3,const", v, ok)
	}
	if _, ok := toy.M.EvalConst(a.Counters[slow].Loads[0].Value); ok {
		t.Error("slow load value unexpectedly constant")
	}
}

func TestDetectToyWaitStates(t *testing.T) {
	toy := testdesigns.Toy()
	a := Analyze(toy.M)
	if len(a.WaitStates) != 2 {
		t.Fatalf("wait states = %d, want 2 (fast and slow)", len(a.WaitStates))
	}
	seen := map[uint64]bool{}
	for _, ws := range a.WaitStates {
		seen[ws.State] = true
		if ws.Exit != testdesigns.ToyWriteback {
			t.Errorf("wait state %d exits to %d, want %d", ws.State, ws.Exit, testdesigns.ToyWriteback)
		}
		if ws.Counter < 0 || ws.Counter >= len(a.Counters) {
			t.Errorf("wait state %d has bad counter index %d", ws.State, ws.Counter)
		}
		if v, ok := toy.M.EvalConst(ws.Limit); !ok || v != 0 {
			t.Errorf("wait state %d limit = %d,%v, want const 0", ws.State, v, ok)
		}
	}
	if !seen[testdesigns.ToyFast] || !seen[testdesigns.ToySlow] {
		t.Errorf("wait states %v, want FAST and SLOW", seen)
	}
}

func TestDetectHandLoweredFSM(t *testing.T) {
	m, st := testdesigns.HandFSM()
	a := Analyze(m)
	f := findFSMByReg(t, a, st)
	if len(f.States) != 2 {
		t.Errorf("states = %v, want [0 1]", f.States)
	}
	got := map[[2]uint64]bool{}
	for _, tr := range f.Transitions {
		got[[2]uint64{tr.From, tr.To}] = true
	}
	for _, k := range [][2]uint64{{0, 1}, {0, 0}, {1, 0}, {1, 1}} {
		if !got[k] {
			t.Errorf("missing transition %d->%d", k[0], k[1])
		}
	}
}

func TestAccumulatorNotClassified(t *testing.T) {
	b := rtl.NewBuilder("acc")
	en := b.Input("en", 1)
	v := b.Input("v", 16)
	a := b.Accum("acc", 32, en, v)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	an := Analyze(m)
	if an.CounterByNode(a.ID()) >= 0 {
		t.Error("accumulator classified as counter")
	}
	if len(an.FSMs) != 0 {
		t.Error("accumulator classified as FSM")
	}
}

func TestFreeRunningCounterHasNoLoads(t *testing.T) {
	b := rtl.NewBuilder("addr")
	c := b.Reg("addr", 8, 0)
	b.SetNext(c, c.Inc())
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	a := Analyze(m)
	ci := a.CounterByNode(c.ID())
	if ci < 0 {
		t.Fatal("address stepper not detected as counter")
	}
	if got := a.Counters[ci]; got.Dir != Up || got.Step != 1 || len(got.Loads) != 0 {
		t.Errorf("addr counter = %+v", got)
	}
}

func TestUpCounterDetection(t *testing.T) {
	b := rtl.NewBuilder("up")
	clr := b.Input("clr", 1)
	en := b.Input("en", 1)
	c := b.UpCounter("c", 8, clr, en)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	a := Analyze(m)
	ci := a.CounterByNode(c.ID())
	if ci < 0 {
		t.Fatal("up counter not detected")
	}
	got := a.Counters[ci]
	if got.Dir != Up || got.Step != 1 {
		t.Errorf("dir=%d step=%d, want up/1", got.Dir, got.Step)
	}
	if len(got.Loads) != 1 {
		t.Fatalf("loads = %d, want 1 (the clear arm)", len(got.Loads))
	}
	if v, ok := m.EvalConst(got.Loads[0].Value); !ok || v != 0 {
		t.Errorf("clear load value = %d,%v, want 0", v, ok)
	}
}

func TestStrideCounter(t *testing.T) {
	b := rtl.NewBuilder("stride")
	c := b.Reg("c", 16, 0)
	b.SetNext(c, c.AddW(b.Const(4, 16), 16))
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	a := Analyze(m)
	ci := a.CounterByNode(c.ID())
	if ci < 0 {
		t.Fatal("stride counter not detected")
	}
	if got := a.Counters[ci]; got.Step != 4 || got.Dir != Up {
		t.Errorf("stride counter = %+v, want up/4", got)
	}
}

func TestPlainRegisterUnclassified(t *testing.T) {
	b := rtl.NewBuilder("plain")
	x := b.Input("x", 8)
	r := b.Reg("r", 8, 0)
	b.SetNext(r, x)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	a := Analyze(m)
	if len(a.FSMs) != 0 || len(a.Counters) != 0 {
		t.Errorf("plain register classified: fsms=%d counters=%d", len(a.FSMs), len(a.Counters))
	}
}

func TestTwoConstMuxWithoutSelfCompareNotFSM(t *testing.T) {
	// A register toggled by an external condition assigns two constants
	// but never inspects itself: not an FSM under the Shi et al. rule.
	b := rtl.NewBuilder("noself")
	sel := b.Input("sel", 1)
	r := b.Reg("r", 2, 0)
	b.SetNext(r, sel.Mux(b.Const(1, 2), b.Const(2, 2)))
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	a := Analyze(m)
	if len(a.FSMs) != 0 {
		t.Error("register without self-comparison classified as FSM")
	}
}

func TestPartialEvalMatchesSimulation(t *testing.T) {
	// For the hand FSM, partial evaluation with the state pinned must
	// agree with actual simulation on the next-state value.
	m, st := testdesigns.HandFSM()
	ri := m.RegIndex(st)
	next := m.Regs[ri].Next
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		goV := uint64(rng.Intn(2))
		stopV := uint64(rng.Intn(2))
		s := rtl.NewSim(m)
		s.SetInput(0, goV)
		s.SetInput(1, stopV)
		// One step from the reset state (0).
		s.Step()
		got := s.Value(st)
		pe := &partialEval{m: m, regNode: st, regVal: 0, memo: map[rtl.NodeID]peVal{}}
		// The selector go/stop are unknown to partial eval, so the next
		// node itself is only known if both arms agree; spot-check the
		// machinery on the state-comparison selector instead.
		inS0 := rtl.NodeID(-1)
		for i := range m.Nodes {
			n := &m.Nodes[i]
			if n.Op == rtl.OpEq && (n.Args[0] == st || n.Args[1] == st) {
				inS0 = rtl.NodeID(i)
			}
		}
		if inS0 < 0 {
			t.Fatal("no state comparison found")
		}
		v, known := pe.eval(inS0)
		if !known || v != 1 {
			t.Fatalf("partial eval of st==0 with st=0: got %d,%v", v, known)
		}
		_ = got
		_ = next
	}
}

func TestConeContainsRegisterNextLogic(t *testing.T) {
	toy := testdesigns.Toy()
	m := toy.M
	cone := Cone(m, []rtl.NodeID{toy.SlowCnt})
	// The slow counter's cone must include the FSM state register (its
	// load condition depends on the state) and the input memory read.
	if !cone[toy.State] {
		t.Error("cone of slow counter missing FSM state")
	}
	foundMemRead := false
	for id := range cone {
		if m.Nodes[id].Op == rtl.OpMemRead {
			foundMemRead = true
		}
	}
	if !foundMemRead {
		t.Error("cone of slow counter missing input memory read")
	}
}

func TestConeExcludesUnrelatedLogic(t *testing.T) {
	b := rtl.NewBuilder("sep")
	x := b.Input("x", 8)
	y := b.Input("y", 8)
	rx := b.Reg("rx", 8, 0)
	b.SetNext(rx, x.Add(x).Trunc(8))
	ry := b.Reg("ry", 8, 0)
	b.SetNext(ry, y.Add(y).Trunc(8))
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	cone := Cone(m, []rtl.NodeID{rx.ID()})
	if cone[ry.ID()] {
		t.Error("cone of rx includes unrelated ry")
	}
	if !cone[x.ID()] {
		t.Error("cone of rx missing input x")
	}
	if cone[y.ID()] {
		t.Error("cone of rx includes unrelated input y")
	}
}

func TestConeFollowsMemoryWritePorts(t *testing.T) {
	// A register reading a memory must pull the memory's write-port
	// cones into its own cone (the written data affects future reads).
	b := rtl.NewBuilder("memcone")
	mem := b.Memory("buf", 8)
	wsrc := b.Input("wsrc", 8)
	b.Write(mem, b.Const(0, 3), wsrc, b.Const(1, 1))
	r := b.Reg("r", 8, 0)
	b.SetNext(r, b.Read(mem, b.Const(0, 3), 8))
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	cone := Cone(m, []rtl.NodeID{r.ID()})
	if !cone[wsrc.ID()] {
		t.Error("cone through memory misses write data source")
	}
}

func TestEvalShimMatchesSim(t *testing.T) {
	// The analyze package keeps a local copy of operation semantics for
	// partial evaluation; verify it agrees with the simulator on random
	// operand values for every binary op.
	ops := []rtl.Op{rtl.OpAdd, rtl.OpSub, rtl.OpMul, rtl.OpAnd, rtl.OpOr, rtl.OpXor,
		rtl.OpShl, rtl.OpShr, rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe}
	rng := rand.New(rand.NewSource(11))
	for _, op := range ops {
		b := rtl.NewBuilder("shim")
		x := b.Input("x", 16)
		y := b.Input("y", 16)
		n := rtl.Node{Op: op, Width: 16}
		n.Args[0], n.Args[1] = x.ID(), y.ID()
		n.NArgs = 2
		if op == rtl.OpEq || op == rtl.OpNe || op == rtl.OpLt || op == rtl.OpLe {
			n.Width = 1
		}
		// Append the raw node through a register so it is reachable.
		sig := b.AddRaw(n)
		r := b.Reg("r", n.Width, 0)
		b.SetNext(r, sig)
		b.SetDone(b.Const(1, 1))
		m := b.MustBuild()
		_ = r
		s := rtl.NewSim(m)
		for trial := 0; trial < 32; trial++ {
			xv := rng.Uint64() & 0xffff
			yv := rng.Uint64() & 0xffff
			s.Reset()
			s.SetInput(x.ID(), xv)
			s.SetInput(y.ID(), yv)
			s.Step()
			simV := s.RegValue(0)
			var args [3]uint64
			args[0], args[1] = xv, yv
			nn := m.Nodes[sig.ID()]
			shimV := evalOpShim(&nn, args)
			if simV != shimV {
				t.Errorf("%s(%d,%d): sim=%d shim=%d", op, xv, yv, simV, shimV)
			}
		}
	}
}
