package rtl_test

import (
	"math/rand"
	"testing"

	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/testdesigns"
)

// randModule hand-assembles a random but valid netlist exercising every
// op, both memory kinds, write ports, constants on either operand side,
// and common shapes (compare-with-const feeding a mux, add/sub feeding
// an AND mask, a mux on a constant selector). Nodes are built directly
// rather than through the Builder so hash-consing cannot collapse the
// patterns under test.
func randModule(rng *rand.Rand) *rtl.Module {
	m := &rtl.Module{Name: "rand"}
	add := func(n rtl.Node) rtl.NodeID {
		n.NArgs = uint8(n.Op.NumArgs())
		m.Nodes = append(m.Nodes, n)
		return rtl.NodeID(len(m.Nodes) - 1)
	}
	randWidth := func() uint8 { return uint8(1 + rng.Intn(64)) }
	addConst := func() rtl.NodeID {
		w := randWidth()
		return add(rtl.Node{Op: rtl.OpConst, Width: w, Const: rng.Uint64() & rtl.WidthMask(w)})
	}
	pick := func() rtl.NodeID { return rtl.NodeID(rng.Intn(len(m.Nodes))) }

	for i := 0; i < 4+rng.Intn(4); i++ {
		addConst()
	}
	var inputs []rtl.NodeID
	for i := 0; i < 1+rng.Intn(3); i++ {
		inputs = append(inputs, add(rtl.Node{Op: rtl.OpInput, Width: randWidth()}))
	}

	m.Mems = append(m.Mems, &rtl.Mem{Name: "in", Words: 16 + rng.Intn(17)})
	rom := make([]uint64, 8)
	for i := range rom {
		rom[i] = rng.Uint64()
	}
	m.Mems = append(m.Mems, &rtl.Mem{Name: "rom", Words: len(rom), Data: rom, ROM: true})

	for i := 0; i < 2+rng.Intn(4); i++ {
		w := randWidth()
		id := add(rtl.Node{Op: rtl.OpReg, Width: w})
		m.Regs = append(m.Regs, rtl.Reg{Node: id, Next: id, Init: rng.Uint64() & rtl.WidthMask(w)})
	}

	ops := []rtl.Op{
		rtl.OpAdd, rtl.OpSub, rtl.OpMul, rtl.OpAnd, rtl.OpOr, rtl.OpXor,
		rtl.OpNot, rtl.OpShl, rtl.OpShr, rtl.OpEq, rtl.OpNe, rtl.OpLt,
		rtl.OpLe, rtl.OpMux, rtl.OpMemRead,
	}
	for i := 0; i < 150; i++ {
		op := ops[rng.Intn(len(ops))]
		n := rtl.Node{Op: op, Width: randWidth()}
		for a := 0; a < op.NumArgs(); a++ {
			n.Args[a] = pick()
		}
		if op == rtl.OpMemRead {
			n.Mem = int32(rng.Intn(len(m.Mems)))
		}
		// Put a constant on a random side sometimes so the immediate
		// specializations get exercised on both operand orders.
		if op.NumArgs() == 2 && rng.Intn(3) == 0 {
			n.Args[rng.Intn(2)] = addConst()
		}
		add(n)

		switch rng.Intn(6) {
		case 0: // compare-with-const feeding a mux select
			cmp := rtl.OpEq
			if rng.Intn(2) == 0 {
				cmp = rtl.OpNe
			}
			e := add(rtl.Node{Op: cmp, Width: 1, Args: [3]rtl.NodeID{pick(), addConst()}})
			add(rtl.Node{Op: rtl.OpMux, Width: randWidth(), Args: [3]rtl.NodeID{e, pick(), pick()}})
		case 1: // add/sub feeding an AND-with-const mask
			ar := rtl.OpAdd
			if rng.Intn(2) == 0 {
				ar = rtl.OpSub
			}
			x := add(rtl.Node{Op: ar, Width: randWidth(), Args: [3]rtl.NodeID{pick(), pick()}})
			add(rtl.Node{Op: rtl.OpAnd, Width: randWidth(), Args: [3]rtl.NodeID{x, addConst()}})
		case 2: // a mux on a constant selector, which the plan folds to a
			// copy of one arm (a narrowing one when the mux is narrower)
			add(rtl.Node{Op: rtl.OpMux, Width: randWidth(), Args: [3]rtl.NodeID{addConst(), pick(), pick()}})
		}
	}

	for i := range m.Regs {
		m.Regs[i].Next = pick()
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		m.Writes = append(m.Writes, rtl.MemWrite{Mem: 0, Addr: pick(), Data: pick(), En: pick()})
	}
	m.Done = pick()
	_ = inputs
	return m
}

// inputsOf lists the module's OpInput nodes.
func inputsOf(m *rtl.Module) []rtl.NodeID {
	var ids []rtl.NodeID
	for i := range m.Nodes {
		if m.Nodes[i].Op == rtl.OpInput {
			ids = append(ids, rtl.NodeID(i))
		}
	}
	return ids
}

// engineSim pairs a Sim with its engine name for error messages.
type engineSim struct {
	name string
	s    *rtl.Sim
}

// engineSims instantiates the engines over one module, with the
// interpreter first — it is the reference the others are compared to.
// The plan leg runs a freshly built codegen plan (the native fallback,
// and the same specialized instruction lists cmd/rtlgen emits as Go
// source), so the partial evaluator and FSM-state dispatch face every
// random netlist here and in FuzzEngineDifferential.
func engineSims(m *rtl.Module) []engineSim {
	return []engineSim{
		{"interp", rtl.NewInterpSim(m)},
		{"plan", rtl.NewNativeSim(m, codegen.Build(m).Step)},
	}
}

// stepAll steps every sim one cycle, checks they agree on done, and
// compares every node value against the reference (sims[0]).
func stepAll(t *testing.T, m *rtl.Module, sims []engineSim, cycle int) bool {
	t.Helper()
	rd := sims[0].s.Step()
	for _, e := range sims[1:] {
		if ed := e.s.Step(); ed != rd {
			t.Fatalf("cycle %d: done %v (%s) != %v (%s)", cycle, ed, e.name, rd, sims[0].name)
		}
	}
	diffCompare(t, m, sims, cycle)
	return rd
}

// diffRunAll resets every sim, loads mem, drives inputs to the given
// constant values and runs them through Run for limit cycles (one call
// per job on the plan), then compares the final state: cycle count,
// every node value and every memory word.
func diffRunAll(t *testing.T, m *rtl.Module, sims []engineSim, mem string, load []uint64, ins []rtl.NodeID, inputs []uint64, limit uint64) {
	t.Helper()
	var ref uint64
	for i, e := range sims {
		e.s.Reset()
		if err := e.s.LoadMem(mem, load); err != nil {
			t.Fatal(err)
		}
		for k, id := range ins {
			e.s.SetInput(id, inputs[k])
		}
		c, _ := e.s.Run(limit)
		if i == 0 {
			ref = c
		} else if c != ref {
			t.Fatalf("Run(%d): %d cycles (%s) != %d (%s)", limit, c, e.name, ref, sims[0].name)
		}
	}
	diffCompare(t, m, sims, int(ref))
	diffFinish(t, m, sims)
}

// diffCompare fails on the first per-node or cycle-count divergence of
// any engine from the reference (sims[0]).
func diffCompare(t *testing.T, m *rtl.Module, sims []engineSim, cycle int) {
	t.Helper()
	ref := sims[0]
	for _, e := range sims[1:] {
		if e.s.Cycles() != ref.s.Cycles() {
			t.Fatalf("cycle %d: Cycles %d (%s) != %d (%s)", cycle, e.s.Cycles(), e.name, ref.s.Cycles(), ref.name)
		}
		for id := 0; id < m.NumNodes(); id++ {
			if ev, rv := e.s.Value(rtl.NodeID(id)), ref.s.Value(rtl.NodeID(id)); ev != rv {
				t.Fatalf("cycle %d: node %d (%s): %s %#x != %s %#x",
					cycle, id, m.Nodes[id].Op, e.name, ev, ref.name, rv)
			}
		}
	}
}

// diffFinish checks the end-of-run memory contents.
func diffFinish(t *testing.T, m *rtl.Module, sims []engineSim) {
	t.Helper()
	ref := sims[0]
	for _, e := range sims[1:] {
		for _, mem := range m.Mems {
			em, rm := e.s.Mem(mem.Name), ref.s.Mem(mem.Name)
			for a := range em {
				if em[a] != rm[a] {
					t.Fatalf("mem %s[%d]: %s %#x != %s %#x", mem.Name, a, e.name, em[a], ref.name, rm[a])
				}
			}
		}
	}
}

// TestEnginesMatchOnRandomNetlists is the differential property test:
// on random netlists, the plan must be cycle-exact with the
// interpreter — node values and Cycles on every cycle stepped one at a
// time under random stimulus, then node values, Cycles and memory
// contents after a Run under constant inputs.
func TestEnginesMatchOnRandomNetlists(t *testing.T) {
	rng := rand.New(rand.NewSource(1729))
	for trial := 0; trial < 40; trial++ {
		m := randModule(rng)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random module: %v", trial, err)
		}
		sims := engineSims(m)
		load := make([]uint64, m.Mems[0].Words)
		for i := range load {
			load[i] = rng.Uint64()
		}
		for _, e := range sims {
			if err := e.s.LoadMem("in", load); err != nil {
				t.Fatal(err)
			}
		}
		ins := inputsOf(m)
		inputs := make([]uint64, len(ins))
		for cycle := 0; cycle < 80; cycle++ {
			for k, id := range ins {
				inputs[k] = rng.Uint64()
				for _, e := range sims {
					e.s.SetInput(id, inputs[k])
				}
			}
			stepAll(t, m, sims, cycle)
		}
		diffFinish(t, m, sims)
		diffRunAll(t, m, sims, "in", load, ins, inputs, 80)
	}
}

// TestEnginesMatchOnToy runs the documented Toy design on every
// engine across a spread of jobs, stepping one cycle at a time with
// full-state agreement on every cycle, then through Run, checking the
// hand-computed cycle formula and the final state.
func TestEnginesMatchOnToy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	toy := testdesigns.Toy()
	sims := engineSims(toy.M)
	for trial := 0; trial < 10; trial++ {
		items := make([]uint64, 1+rng.Intn(40))
		for i := range items {
			items[i] = testdesigns.ToyItem(rng.Intn(2) == 0, uint8(rng.Intn(200)))
		}
		job := testdesigns.ToyJob(items)
		want := testdesigns.ToyCycles(items)
		for _, e := range sims {
			e.s.Reset()
			if err := e.s.LoadMem("in", job); err != nil {
				t.Fatal(err)
			}
		}
		for cycle := 1; !stepAll(t, toy.M, sims, cycle); cycle++ {
			if cycle > int(want) {
				t.Fatalf("trial %d: stepped past %d cycles without done", trial, want)
			}
		}
		if got := sims[0].s.Cycles(); got != want {
			t.Fatalf("trial %d: stepped %d cycles, want %d", trial, got, want)
		}
		diffFinish(t, toy.M, sims)
		for _, e := range sims {
			e.s.Reset()
			if err := e.s.LoadMem("in", job); err != nil {
				t.Fatal(err)
			}
			c, err := e.s.Run(1 << 20)
			if err != nil {
				t.Fatalf("trial %d: %s run error: %v", trial, e.name, err)
			}
			if c != want {
				t.Fatalf("trial %d: cycles %s=%d want=%d", trial, e.name, c, want)
			}
		}
		diffCompare(t, toy.M, sims, int(want))
		diffFinish(t, toy.M, sims)
	}
}

// TestEnginesMatchOnHandFSM covers the input-driven path: the
// hand-lowered FSM is stepped with random stimulus on every engine,
// then run under constant inputs.
func TestEnginesMatchOnHandFSM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, _ := testdesigns.HandFSM()
	sims := engineSims(m)
	ins := inputsOf(m)
	inputs := make([]uint64, len(ins))
	for cycle := 0; cycle < 200; cycle++ {
		for k, id := range ins {
			inputs[k] = rng.Uint64()
			for _, e := range sims {
				e.s.SetInput(id, inputs[k])
			}
		}
		stepAll(t, m, sims, cycle)
	}
	diffFinish(t, m, sims)
	for _, e := range sims {
		e.s.Reset()
		for k, id := range ins {
			e.s.SetInput(id, inputs[k])
		}
		e.s.Run(200)
	}
	diffCompare(t, m, sims, 200)
}

// TestCloneIsIndependent checks that a clone starts fresh, matches its
// parent's behaviour, and that parent and clone do not share writable
// memory — for every engine (the parallel job fan-out clones whatever
// engine the caller picked), including a native request that fell back
// to the plan.
func TestCloneIsIndependent(t *testing.T) {
	toy := testdesigns.Toy()
	items := []uint64{testdesigns.ToyItem(false, 0), testdesigns.ToyItem(true, 9)}
	job := testdesigns.ToyJob(items)

	for _, mk := range []struct {
		name string
		mk   func(*rtl.Module) *rtl.Sim
	}{
		{"plan", func(m *rtl.Module) *rtl.Sim { return rtl.NewSimEngine(m, rtl.EngineNative) }},
		{"interp", rtl.NewInterpSim},
		{"native", func(m *rtl.Module) *rtl.Sim { return rtl.NewNativeSim(m, codegen.Build(m).Step) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.mk(toy.M)
			c := s.Clone()
			if c.Engine() != s.Engine() || string(s.Engine()) != mk.name {
				t.Fatalf("clone engine %s, parent %s, want %s", c.Engine(), s.Engine(), mk.name)
			}
			if err := s.LoadMem("in", job); err != nil {
				t.Fatal(err)
			}
			if got := c.Mem("in")[0]; got != 0 {
				t.Fatalf("clone saw parent's LoadMem: in[0]=%d", got)
			}
			if err := c.LoadMem("in", job); err != nil {
				t.Fatal(err)
			}
			sc, err1 := s.Run(1 << 20)
			cc, err2 := c.Run(1 << 20)
			if err1 != nil || err2 != nil {
				t.Fatalf("run errors %v / %v", err1, err2)
			}
			if sc != cc || sc != testdesigns.ToyCycles(items) {
				t.Fatalf("cycles parent=%d clone=%d want=%d", sc, cc, testdesigns.ToyCycles(items))
			}
		})
	}
}
