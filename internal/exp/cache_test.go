package exp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rtl"
	"repro/internal/tracecache"
)

// TestRunAllWarmCacheZeroSimulation is the pipeline-level acceptance
// check for the persistent trace cache: a second RunAll against a warm
// cache must perform zero RTL job simulations and render every table
// byte-identically to the cold run.
func TestRunAllWarmCacheZeroSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the full suite twice; skipped with -short")
	}
	c, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := core.TraceCache()
	core.SetTraceCache(c)
	t.Cleanup(func() { core.SetTraceCache(prev) })

	cold := NewLab(42)
	cold.Quick = true
	coldTables, err := RunAll(cold)
	if err != nil {
		t.Fatal(err)
	}

	before := core.SimulatedJobs()
	warm := NewLab(42)
	warm.Quick = true
	warmTables, err := RunAll(warm)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.SimulatedJobs() - before; d != 0 {
		t.Fatalf("warm RunAll simulated %d jobs, want 0 (cache stats: %s)", d, c.Stats())
	}
	if st := c.Stats(); st.Hits == 0 || st.Errors != 0 {
		t.Fatalf("cache stats after warm run: %s", st)
	}
	if len(warmTables) != len(coldTables) {
		t.Fatalf("%d tables warm vs %d cold", len(warmTables), len(coldTables))
	}
	for i := range coldTables {
		if got, want := warmTables[i].Render(), coldTables[i].Render(); got != want {
			t.Errorf("%s: warm table differs from cold table\n--- cold ---\n%s--- warm ---\n%s",
				ExperimentIDs[i], want, got)
		}
	}
}

// TestQuickLabRunsNative is the no-fallback guarantee for quick labs
// (dvfsim -quick and these tests): cmd/rtlgen pre-generates the slices
// a quick lab trains, so warming one must not fall back to the compiled
// engine for any netlist. A failure means internal/rtl/native is stale:
// regenerate with `go generate ./internal/rtl/native`.
func TestQuickLabRunsNative(t *testing.T) {
	if !core.PruningEnabled() {
		t.Skip("pruning disabled; generated slices target the pruned flow")
	}
	before := rtl.NativeFallbacks()
	l := NewLab(42)
	l.Quick = true
	if err := l.Warm(); err != nil {
		t.Fatal(err)
	}
	if d := rtl.NativeFallbacks() - before; d != 0 {
		t.Fatalf("warming a quick lab fell back to the compiled engine %d time(s)", d)
	}
}
