package rtl_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
)

// TestNativeFallback checks the unregistered-netlist path: asking for
// the native engine on a module with no generated step must return a
// fully working simulator on the codegen plan (package native, linked
// into this test binary, installs it), report EnginePlan (no silent
// masquerading), and bump the NativeFallbacks counter so the fallback
// is observable.
func TestNativeFallback(t *testing.T) {
	m := randModule(rand.New(rand.NewSource(99)))
	before := rtl.NativeFallbacks()
	s := rtl.NewSimEngine(m, rtl.EngineNative)
	if d := rtl.NativeFallbacks() - before; d < 1 {
		t.Fatalf("NativeFallbacks advanced by %d, want >= 1", d)
	}
	if got := s.Engine(); got != rtl.EnginePlan {
		t.Fatalf("fallback sim reports engine %q, want %q", got, rtl.EnginePlan)
	}
	// The fallback must simulate correctly, not just exist.
	ref := rtl.NewInterpSim(m)
	for cycle := 0; cycle < 32; cycle++ {
		if dr, df := ref.Step(), s.Step(); dr != df {
			t.Fatalf("cycle %d: done interp=%v fallback=%v", cycle, dr, df)
		}
		for id := range m.Nodes {
			if rv, fv := ref.Value(rtl.NodeID(id)), s.Value(rtl.NodeID(id)); rv != fv {
				t.Fatalf("cycle %d node %d: interp=%#x fallback=%#x", cycle, id, rv, fv)
			}
		}
	}
}

// TestRegisterNativeResolves checks a registered step is found by
// fingerprint and the resulting sim self-identifies as native,
// including through Clone (the serving shards' path).
func TestRegisterNativeResolves(t *testing.T) {
	m := randModule(rand.New(rand.NewSource(7)))
	rtl.RegisterNative(rtl.Fingerprint(m), "test_rand7", codegen.Build(m).Step)
	s := rtl.NewSimEngine(m, rtl.EngineNative)
	if got := s.Engine(); got != rtl.EngineNative {
		t.Fatalf("engine %q, want %q", got, rtl.EngineNative)
	}
	if got := s.Clone().Engine(); got != rtl.EngineNative {
		t.Fatalf("clone engine %q, want %q", got, rtl.EngineNative)
	}
	found := false
	for _, name := range rtl.NativeNames() {
		if name == "test_rand7" {
			found = true
		}
	}
	if !found {
		t.Fatalf("NativeNames() = %v, missing test_rand7", rtl.NativeNames())
	}
}

// TestPlanFallbackClonesRunConcurrently runs clones of one plan-fallback
// Sim on concurrent goroutines, as core's job fan-out does; they all
// share one Plan, so under -race this checks the plan evaluator keeps
// no mutable state of its own. Every clone must match the interpreter's
// cycle count and final node values on every job.
func TestPlanFallbackClonesRunConcurrently(t *testing.T) {
	m := randModule(rand.New(rand.NewSource(31)))
	s := rtl.NewSimEngine(m, rtl.EngineNative)
	if got := s.Engine(); got != rtl.EnginePlan {
		t.Fatalf("fallback sim reports engine %q, want %q", got, rtl.EnginePlan)
	}
	const jobs = 6
	loads := make([][]uint64, jobs)
	for j := range loads {
		rng := rand.New(rand.NewSource(int64(j)))
		loads[j] = make([]uint64, m.Mems[0].Words)
		for i := range loads[j] {
			loads[j][i] = rng.Uint64()
		}
	}
	run := func(s *rtl.Sim, load []uint64) (uint64, []uint64) {
		s.Reset()
		if err := s.LoadMem("in", load); err != nil {
			t.Error(err)
		}
		c, _ := s.Run(200)
		vals := make([]uint64, m.NumNodes())
		for id := range vals {
			vals[id] = s.Value(rtl.NodeID(id))
		}
		return c, vals
	}
	ref := rtl.NewInterpSim(m)
	wantCycles := make([]uint64, jobs)
	wantVals := make([][]uint64, jobs)
	for j, load := range loads {
		wantCycles[j], wantVals[j] = run(ref, load)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c := s.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range loads {
				j := (k + w) % jobs
				cycles, vals := run(c, loads[j])
				if cycles != wantCycles[j] {
					t.Errorf("clone %d job %d: %d cycles, interp %d", w, j, cycles, wantCycles[j])
					return
				}
				for id, v := range vals {
					if v != wantVals[j][id] {
						t.Errorf("clone %d job %d node %d: %#x, interp %#x", w, j, id, v, wantVals[j][id])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
