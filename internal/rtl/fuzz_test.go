package rtl_test

import (
	"fmt"
	"testing"

	"repro/internal/absint"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
)

// byteFeed deterministically consumes fuzz input bytes, yielding zeros
// once exhausted so every byte string maps to exactly one netlist.
type byteFeed struct {
	data []byte
	i    int
}

func (f *byteFeed) next() byte {
	if f.i >= len(f.data) {
		return 0
	}
	b := f.data[f.i]
	f.i++
	return b
}

func (f *byteFeed) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(f.next())
	}
	return v
}

// fuzzModule interprets fuzz bytes as a small netlist over the full op
// set: a memory with a cycling read/write port, an input, a chain of
// byte-selected operations, byte-initialised registers, and a counter
// driving done. Construction goes through the Builder, so any byte
// string yields a valid module — the fuzzer explores netlist shapes,
// not builder misuse.
func fuzzModule(f *byteFeed) *rtl.Module {
	b := rtl.NewBuilder("fz")
	mem := b.Memory("m", 8)
	var pool []rtl.Signal
	in := b.Input("i0", 1+f.next()%48)
	pool = append(pool, in)
	addr := b.Reg("addr", 3, 0)
	b.SetNext(addr, addr.Inc())
	pool = append(pool, b.Read(mem, addr.Signal, 1+f.next()%40))
	pool = append(pool, b.Const(f.u64()>>(1+f.next()%48), 1+f.next()%32))
	pick := func() rtl.Signal { return pool[int(f.next())%len(pool)] }
	nops := 4 + int(f.next()%28)
	for i := 0; i < nops; i++ {
		a, c := pick(), pick()
		var s rtl.Signal
		switch f.next() % 13 {
		case 0:
			s = a.Add(c)
		case 1:
			s = a.Sub(c)
		case 2:
			s = a.Mul(c, 1+f.next()%48)
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
	for i := 0; i < 3; i++ {
		v := pick()
		r := b.Reg(fmt.Sprintf("r%d", i), v.Width(), uint64(f.next())&rtl.WidthMask(v.Width()))
		b.SetNext(r, v)
	}
	b.Write(mem, addr.Signal, pick().WidenTo(16).Trunc(16), addr.Signal.Bits(0, 1))
	cnt := b.Reg("cnt", 6, 0)
	b.SetNext(cnt, cnt.Inc())
	// Done is partly data-dependent: a hard counter limit OR an early
	// exit gated on a pool value, so identical netlists fed different
	// stimulus finish at different cycles.
	limit := cnt.EqK(uint64(8 + f.next()%24))
	early := pick().NonZero().And(cnt.EqK(uint64(4 + f.next()%8)))
	b.SetDone(limit.Or(early))
	return b.MustBuild()
}

// FuzzEngineDifferential is the coverage-guided version of
// TestEnginesMatchOnRandomNetlists: fuzz bytes pick the netlist shape
// and the stimulus, and the compiled engine and a freshly built codegen
// plan (the native engine's semantics) must stay bit-exact with the
// interpreter on every node value, cycle count, toggle counter, and
// memory word.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("differential-seed-with-mixed-ops-and-some-longer-tail-bytes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("bound netlist construction cost")
		}
		fd := &byteFeed{data: data}
		m := fuzzModule(fd)
		if err := m.Validate(); err != nil {
			t.Fatalf("builder produced invalid module: %v", err)
		}
		sims := engineSims(m)
		load := make([]uint64, m.Mems[0].Words)
		for i := range load {
			load[i] = fd.u64()
		}
		for _, e := range sims {
			e.s.EnableActivity()
			if err := e.s.LoadMem("m", load); err != nil {
				t.Fatal(err)
			}
		}
		ins := inputsOf(m)
		stim := make([][]uint64, 40)
		for cycle := 0; cycle < 40; cycle++ {
			stim[cycle] = make([]uint64, len(ins))
			for k, id := range ins {
				v := fd.u64()
				stim[cycle][k] = v
				for _, e := range sims {
					e.s.SetInput(id, v)
				}
			}
			rd := sims[0].s.Step()
			for _, e := range sims[1:] {
				if ed := e.s.Step(); ed != rd {
					t.Fatalf("cycle %d: done %v (%s) != %v (interp)", cycle, ed, e.name, rd)
				}
			}
			diffCompare(t, m, sims, cycle)
		}
		diffFinish(t, m, sims)

		// Pruned leg: absint-driven pruning (proven-constant folding plus
		// dead-port removal) must leave every engine bit-exact with an
		// unpruned interpreter on the observables — done timing, every
		// kept register, and memory contents — under the same stimulus.
		diffPruned(t, m, ins, load, stim)

		// Run leg: fuzzed cycle limits through the plan's multi-cycle
		// path, resuming a cut-off run with a second limit.
		diffRun(t, m, ins, load, stim[0], [2]uint64{1 + uint64(fd.next()%48), 1 + uint64(fd.next()%48)})
	})
}

// diffRun checks the codegen plan's multi-cycle path: a plan-backed
// native Sim without activity counting executes each Run in one call,
// evaluating only the per-state demand until the cycle it returns on,
// so after each of two successive Runs under the given limits — the
// second resuming where the first stopped — its cycle count,
// ErrNoProgress verdict, every node value and every memory word must
// equal an interpreter's under constant inputs.
func diffRun(t *testing.T, m *rtl.Module, ins []rtl.NodeID, load, inputs []uint64, limits [2]uint64) {
	t.Helper()
	ref := rtl.NewInterpSim(m)
	nat := rtl.NewNativeSim(m, codegen.Build(m).Step)
	for _, s := range []*rtl.Sim{ref, nat} {
		if err := s.LoadMem("m", load); err != nil {
			t.Fatal(err)
		}
		for k, id := range ins {
			s.SetInput(id, inputs[k])
		}
	}
	for _, limit := range limits {
		rc, rerr := ref.Run(limit)
		nc, nerr := nat.Run(limit)
		if nc != rc || nat.Cycles() != ref.Cycles() || (nerr == nil) != (rerr == nil) {
			t.Fatalf("Run(%d): native %d cycles (err %v), interp %d (err %v)", limit, nc, nerr, rc, rerr)
		}
		for id := range m.Nodes {
			if nv, rv := nat.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); nv != rv {
				t.Fatalf("Run(%d): node %d (%s): native %#x != interp %#x", limit, id, m.Nodes[id].Op, nv, rv)
			}
		}
		nm, rm := nat.Mem("m"), ref.Mem("m")
		for w := range rm {
			if nm[w] != rm[w] {
				t.Fatalf("Run(%d): mem[%d]: native %#x != interp %#x", limit, w, nm[w], rm[w])
			}
		}
	}
}

// diffPruned replays recorded stimulus on the absint-pruned module
// under all three engines, against a fresh unpruned interpreter:
// done timing, every kept register (through the pruning register map),
// and memory contents must match cycle for cycle.
func diffPruned(t *testing.T, m *rtl.Module, ins []rtl.NodeID, load []uint64, stim [][]uint64) {
	t.Helper()
	keep := make([]int, len(m.Regs))
	for i := range keep {
		keep[i] = i
	}
	pm, regMap := absint.Prune(m, keep)
	if err := pm.Validate(); err != nil {
		t.Fatalf("pruned module invalid: %v", err)
	}
	ref := rtl.NewInterpSim(m)
	psims := engineSims(pm)
	if err := ref.LoadMem("m", load); err != nil {
		t.Fatal(err)
	}
	// The memory can legitimately disappear when no read and no enabled
	// write survives pruning; its contents are then the untouched load.
	prunedHasMem := psims[0].s.Mem("m") != nil
	if prunedHasMem {
		for _, e := range psims {
			if err := e.s.LoadMem("m", load); err != nil {
				t.Fatal(err)
			}
		}
	}
	pByName := map[string]rtl.NodeID{}
	for i := range pm.Nodes {
		if pm.Nodes[i].Op == rtl.OpInput {
			pByName[pm.Nodes[i].Name] = rtl.NodeID(i)
		}
	}
	for cycle, vals := range stim {
		for k, id := range ins {
			ref.SetInput(id, vals[k])
			if pid, ok := pByName[m.Nodes[id].Name]; ok {
				for _, e := range psims {
					e.s.SetInput(pid, vals[k])
				}
			}
		}
		rd := ref.Step()
		for _, e := range psims {
			if ed := e.s.Step(); ed != rd {
				t.Fatalf("pruned cycle %d: done %v (%s) != %v (unpruned interp)", cycle, ed, e.name, rd)
			}
			for oi, ni := range regMap {
				if rv, pv := ref.RegValue(oi), e.s.RegValue(ni); rv != pv {
					t.Fatalf("pruned cycle %d: reg %d=%#x (unpruned) != reg %d=%#x (%s)",
						cycle, oi, rv, ni, pv, e.name)
				}
			}
			if prunedHasMem {
				rm, em := ref.Mem("m"), e.s.Mem("m")
				for w := range rm {
					if rm[w] != em[w] {
						t.Fatalf("pruned cycle %d: mem[%d] %#x (unpruned) != %#x (%s)",
							cycle, w, rm[w], em[w], e.name)
					}
				}
			}
		}
	}
}
