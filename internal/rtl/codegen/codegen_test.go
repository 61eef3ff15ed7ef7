package codegen_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/testdesigns"
)

// toyJob returns a Toy work list mixing fast and slow items so every
// FSM state is visited.
func toyJob() []uint64 {
	return testdesigns.ToyJob([]uint64{
		testdesigns.ToyItem(false, 0),
		testdesigns.ToyItem(true, 5),
		testdesigns.ToyItem(true, 0),
		testdesigns.ToyItem(false, 0),
		testdesigns.ToyItem(true, 17),
	})
}

func TestPlanSpecializesToyFSM(t *testing.T) {
	ports := testdesigns.Toy()
	p := codegen.Build(ports.M)
	if p.StateCount() < 2 {
		t.Fatalf("Toy plan specialized %d states, want >= 2", p.StateCount())
	}
	if p.StateReg() != ports.State {
		t.Fatalf("plan specialized node %d, want the ctrl FSM register %d",
			p.StateReg(), ports.State)
	}
}

// TestPlanStepMatchesInterpOnToy drives the plan-backed native sim and
// the interpreter through a full Toy job one cycle at a time — cycle
// count, every node value on every cycle, and the output memory must
// be identical. This covers the codegen edge cases in one run: memory
// read and write ports and FSM-state dispatch.
func TestPlanStepMatchesInterpOnToy(t *testing.T) {
	ports := testdesigns.Toy()
	m := ports.M

	ref := rtl.NewInterpSim(m)
	nat := rtl.NewNativeSim(m, codegen.Build(m).Step)
	if got := nat.Engine(); got != rtl.EngineNative {
		t.Fatalf("native sim reports engine %q", got)
	}
	for _, s := range []*rtl.Sim{ref, nat} {
		if err := s.LoadMem("in", toyJob()); err != nil {
			t.Fatal(err)
		}
	}

	const maxCycles = 10000
	for cycle := 0; ; cycle++ {
		if cycle > maxCycles {
			t.Fatal("job did not finish")
		}
		dr := ref.Step()
		dn := nat.Step()
		if dr != dn {
			t.Fatalf("cycle %d: done interp=%v native=%v", cycle, dr, dn)
		}
		for id := range m.Nodes {
			if rv, nv := ref.Value(rtl.NodeID(id)), nat.Value(rtl.NodeID(id)); rv != nv {
				t.Fatalf("cycle %d node %d (%s): interp=%#x native=%#x",
					cycle, id, m.Nodes[id].Op, rv, nv)
			}
		}
		if dr {
			break
		}
	}
	if ref.Cycles() != nat.Cycles() {
		t.Fatalf("cycles: interp=%d native=%d", ref.Cycles(), nat.Cycles())
	}
	ro, no := ref.Mem("out"), nat.Mem("out")
	for i := range ro {
		if ro[i] != no[i] {
			t.Fatalf("out[%d]: interp=%#x native=%#x", i, ro[i], no[i])
		}
	}
}

// TestPlanRunMatchesInterpOnToy covers the plan's multi-cycle path on
// an FSM-specialized design: Run executes in one plan call that evaluates only each state's demand until the cycle it
// returns on. For limits from one cycle to past the job's end, and for
// a run resumed after a cut-off, cycles, the ErrNoProgress verdict,
// every node value and the output memory must match the interpreter.
func TestPlanRunMatchesInterpOnToy(t *testing.T) {
	m := testdesigns.Toy().M
	ref := rtl.NewInterpSim(m)
	if err := ref.LoadMem("in", toyJob()); err != nil {
		t.Fatal(err)
	}
	total, err := ref.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	plan := codegen.Build(m)
	for _, limits := range [][]uint64{{1}, {2}, {7}, {total - 1}, {total}, {10000}, {3, 10000}, {total / 2, total / 2}} {
		ref, nat := rtl.NewInterpSim(m), rtl.NewNativeSim(m, plan.Step)
		for _, s := range []*rtl.Sim{ref, nat} {
			if err := s.LoadMem("in", toyJob()); err != nil {
				t.Fatal(err)
			}
		}
		for _, limit := range limits {
			rc, rerr := ref.Run(limit)
			nc, nerr := nat.Run(limit)
			if nc != rc || (nerr == nil) != (rerr == nil) {
				t.Fatalf("limits %v: Run(%d) native %d (err %v), interp %d (err %v)", limits, limit, nc, nerr, rc, rerr)
			}
			for id := range m.Nodes {
				if rv, nv := ref.Value(rtl.NodeID(id)), nat.Value(rtl.NodeID(id)); rv != nv {
					t.Fatalf("limits %v: Run(%d) node %d (%s): interp=%#x native=%#x",
						limits, limit, id, m.Nodes[id].Op, rv, nv)
				}
			}
			ro, no := ref.Mem("out"), nat.Mem("out")
			for i := range ro {
				if ro[i] != no[i] {
					t.Fatalf("limits %v: Run(%d) out[%d]: interp=%#x native=%#x", limits, limit, i, ro[i], no[i])
				}
			}
		}
	}
}

// TestEmitTypechecks emits Go source for a spread of designs — the
// FSM-heavy Toy, lint designs with unusual shapes (unreachable states,
// racing writes, combinational-only logic) — and runs the assembled
// file through the real go/types checker. This catches emitter bugs
// (unused locals, type mismatches, redeclarations) without invoking
// the toolchain.
func TestEmitTypechecks(t *testing.T) {
	mods := map[string]*rtl.Module{
		"toy":         testdesigns.Toy().M,
		"unreachable": testdesigns.UnreachableState(),
		"racy":        testdesigns.RacyWrites(),
		"truncadd":    testdesigns.TruncatingAdd(),
		"datawait":    testdesigns.DataWaitOnly(),
	}
	src := "package p\n\n"
	for _, name := range []string{"toy", "unreachable", "racy", "truncadd", "datawait"} {
		src += codegen.EmitFunc(codegen.Build(mods[name]), "step_"+name) + "\n"
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "gen.go", src, 0)
	if err != nil {
		t.Fatalf("emitted source does not parse: %v\n%s", err, src)
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("emitted source does not typecheck: %v", err)
	}
}

// TestUnspecializedPlan checks a design with no usable FSM still gets a
// working straight-line plan.
func TestUnspecializedPlan(t *testing.T) {
	m := testdesigns.TruncatingAdd()
	p := codegen.Build(m)
	if p.StateCount() != 0 {
		// Not fatal if analysis finds an FSM here — but the plan must
		// still match the interpreter either way.
		t.Logf("TruncatingAdd specialized %d states", p.StateCount())
	}
	ref := rtl.NewInterpSim(m)
	nat := rtl.NewNativeSim(m, p.Step)
	for cycle := 0; cycle < 64; cycle++ {
		dr, dn := ref.Step(), nat.Step()
		if dr != dn {
			t.Fatalf("cycle %d: done interp=%v native=%v", cycle, dr, dn)
		}
		for id := range m.Nodes {
			if rv, nv := ref.Value(rtl.NodeID(id)), nat.Value(rtl.NodeID(id)); rv != nv {
				t.Fatalf("cycle %d node %d: interp=%#x native=%#x", cycle, id, rv, nv)
			}
		}
	}
}

// TestFallbackWithoutNativeIsInterp covers a binary that never links
// package native (this test binary does not): nothing installed the
// plan fallback, so a native request for an unregistered netlist gets
// the interpreter, and still counts as a fallback.
func TestFallbackWithoutNativeIsInterp(t *testing.T) {
	before := rtl.NativeFallbacks()
	if got := rtl.NewSimEngine(testdesigns.Toy().M, rtl.EngineNative).Engine(); got != rtl.EngineInterp {
		t.Fatalf("fallback without package native: engine %q, want %q", got, rtl.EngineInterp)
	}
	if rtl.NativeFallbacks() == before {
		t.Fatal("NativeFallbacks did not advance")
	}
}
