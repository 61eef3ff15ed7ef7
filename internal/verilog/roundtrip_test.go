package verilog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rtl"
)

// randNetlist builds a random valid module exercising every IR op the
// emitter supports, with registers, a memory, and a terminating done.
func randNetlist(rng *rand.Rand, trial int) (*rtl.Module, []rtl.NodeID, []uint64) {
	b := rtl.NewBuilder(fmt.Sprintf("rt%d", trial))
	mem := b.Memory("data", 16)
	memImg := make([]uint64, 16)
	for i := range memImg {
		memImg[i] = rng.Uint64() >> (rng.Intn(48) + 1)
	}
	var inputs []rtl.NodeID
	var pool []rtl.Signal
	for i := 0; i < 3; i++ {
		in := b.Input(fmt.Sprintf("i%d", i), 1+uint8(rng.Intn(32)))
		inputs = append(inputs, in.ID())
		pool = append(pool, in)
	}
	addr := b.Reg("addr", 4, 0)
	b.SetNext(addr, addr.Inc())
	pool = append(pool, b.Read(mem, addr.Signal, 1+uint8(rng.Intn(40))))
	pool = append(pool, b.Const(uint64(rng.Intn(1<<20)), 1+uint8(rng.Intn(24))))
	pick := func() rtl.Signal { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 30; i++ {
		a, c := pick(), pick()
		var s rtl.Signal
		switch rng.Intn(13) {
		case 0:
			s = a.Add(c)
		case 1:
			s = a.Sub(c)
		case 2:
			s = a.Mul(c, 1+uint8(rng.Intn(48)))
		case 3:
			s = a.And(c)
		case 4:
			s = a.Or(c)
		case 5:
			s = a.Xor(c)
		case 6:
			s = a.Not()
		case 7:
			s = a.Shl(c.Trunc(5))
		case 8:
			s = a.Shr(c.Trunc(5))
		case 9:
			s = a.Eq(c)
		case 10:
			s = a.Lt(c)
		case 11:
			s = a.Le(c)
		default:
			s = pick().NonZero().Mux(a, c)
		}
		pool = append(pool, s)
	}
	for i := 0; i < 5; i++ {
		v := pick()
		init := uint64(rng.Intn(3)) & rtl.WidthMask(v.Width())
		r := b.Reg(fmt.Sprintf("rr%d", i), v.Width(), init)
		b.SetNext(r, v)
	}
	// Write something data-dependent back to memory.
	b.Write(mem, addr.Signal, pick().WidenTo(16).Trunc(16), addr.Signal.Bits(0, 1))
	cnt := b.Reg("cnt", 8, 0)
	b.SetNext(cnt, cnt.Inc())
	b.SetDone(cnt.EqK(24))
	return b.MustBuild(), inputs, memImg
}

// TestEmitParseRoundTripRandom is the backend's defining property: for
// random netlists over the full op set, Emit followed by Parse yields a
// module that is cycle-for-cycle equivalent on every register and
// memory under random stimulus.
func TestEmitParseRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 30; trial++ {
		m, inputs, memImg := randNetlist(rng, trial)
		src := Emit(m)
		m2, err := ParseAndElaborate(src)
		if err != nil {
			t.Fatalf("trial %d: re-parse: %v\n%s", trial, err, src)
		}
		s1, s2 := rtl.NewSim(m), rtl.NewSim(m2)
		if err := s1.LoadMem("data", memImg); err != nil {
			t.Fatal(err)
		}
		if err := s2.LoadMem("data", memImg); err != nil {
			t.Fatalf("trial %d: memory lost: %v", trial, err)
		}
		// Input mapping by name.
		byName := map[string]rtl.NodeID{}
		for i := range m2.Nodes {
			if m2.Nodes[i].Op == rtl.OpInput {
				byName[m2.Nodes[i].Name] = rtl.NodeID(i)
			}
		}
		for cycle := 0; cycle < 26; cycle++ {
			for _, id := range inputs {
				v := rng.Uint64()
				s1.SetInput(id, v)
				// The emitter names inputs in<id>_<origname>.
				name := fmt.Sprintf("in%d_%s", id, m.Nodes[id].Name)
				nid, ok := byName[name]
				if !ok {
					t.Fatalf("trial %d: input %s missing after round trip", trial, name)
				}
				s2.SetInput(nid, v)
			}
			d1 := s1.Step()
			d2 := s2.Step()
			if d1 != d2 {
				t.Fatalf("trial %d cycle %d: done diverged", trial, cycle)
			}
			for ri := range m.Regs {
				if s1.RegValue(ri) != s2.RegValue(ri) {
					t.Fatalf("trial %d cycle %d: reg %s: %d vs %d\n%s",
						trial, cycle, m.Regs[ri].Name, s1.RegValue(ri), s2.RegValue(ri), src)
				}
			}
		}
		d1 := s1.Mem("data")
		d2 := s2.Mem("data")
		for a := range d1 {
			if d1[a]&0xffff != d2[a]&0xffff {
				t.Fatalf("trial %d: mem[%d]: %d vs %d", trial, a, d1[a], d2[a])
			}
		}
	}
}

// TestRegisterFreeRoundTripIsFixedPoint: a module with no register and
// no memory write, whose done is one bit, comes back from an emit →
// parse round with the same combinational nodes, and emits the same
// bytes again: no clk is declared (it would come back as a real
// input) and done is bound without a second comparison with zero.
// Input and register names are prefixed again on every round, and a
// memory read narrower than a word comes back as a word read and a
// mask, so the byte check runs on modules without inputs whose reads
// are whole words.
func TestRegisterFreeRoundTripIsFixedPoint(t *testing.T) {
	build := func(name string, body func(b *rtl.Builder) rtl.Signal) *rtl.Module {
		b := rtl.NewBuilder(name)
		b.SetDone(body(b))
		return b.MustBuild()
	}
	cases := []struct {
		m         *rtl.Module
		sameBytes bool
	}{
		{build("const", func(b *rtl.Builder) rtl.Signal { return b.Const(1, 1) }), true},
		{build("rom", func(b *rtl.Builder) rtl.Signal {
			rom := b.ROM("k", []uint64{5, 9, 2, 7})
			sum := b.Read(rom, b.Const(1, 2), 64).Add(b.Read(rom, b.Const(3, 2), 64))
			return sum.Lt(b.Const(20, 64))
		}), true},
		{build("inputs", func(b *rtl.Builder) rtl.Signal {
			x, y := b.Input("x", 8), b.Input("y", 8)
			return x.Add(y).Eq(b.Const(12, 8)).Or(x.Lt(y))
		}), false},
	}
	for _, c := range cases {
		src := Emit(c.m)
		if strings.Contains(src, "clk") {
			t.Errorf("%s: a register-free module declares a clock:\n%s", c.m.Name, src)
		}
		m2, err := ParseAndElaborate(src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.m.Name, err, src)
		}
		if got, want := rtl.CombNodes(m2), rtl.CombNodes(c.m); got != want {
			t.Errorf("%s: %d comb nodes after a round, %d before\n%s", c.m.Name, got, want, src)
		}
		if got := countInputs(m2); got != countInputs(c.m) {
			t.Errorf("%s: %d inputs after a round, %d before", c.m.Name, got, countInputs(c.m))
		}
		if src2 := Emit(m2); c.sameBytes && src2 != src {
			t.Errorf("%s: second emit differs:\n%s\nfirst:\n%s", c.m.Name, src2, src)
		}
		if d1, d2 := rtl.NewSim(c.m).Step(), rtl.NewSim(m2).Step(); d1 != d2 {
			t.Errorf("%s: done %v before the round, %v after", c.m.Name, d1, d2)
		}
	}
}

func countInputs(m *rtl.Module) int {
	n := 0
	for i := range m.Nodes {
		if m.Nodes[i].Op == rtl.OpInput {
			n++
		}
	}
	return n
}
