package rtl_test

import (
	"strings"
	"testing"

	"repro/internal/accel/stencil"
	"repro/internal/rtl"
	"repro/internal/testdesigns"
)

// TestEngineSelection covers ParseEngine and the NewSimEngine /
// SetDefaultEngine plumbing the CLI -engine flags rely on.
func TestEngineSelection(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want rtl.Engine
		ok   bool
	}{
		{"", rtl.EngineNative, true},
		{"native", rtl.EngineNative, true},
		{"interp", rtl.EngineInterp, true},
		// Retired engines are parse errors, not silent aliases; "plan" is
		// only ever reported, by Sims on the native fallback.
		{"compiled", "", false},
		{"event", "", false},
		{"batch", "", false},
		{"plan", "", false},
		// Bad names: unknown engines, wrong case, stray whitespace — the
		// flag value is taken verbatim, never normalized.
		{"verilator", "", false},
		{"NATIVE", "", false},
		{"Interp", "", false},
		{" native", "", false},
		{"interp ", "", false},
		{"native,interp", "", false},
		{"gate-level", "", false},
	} {
		got, err := rtl.ParseEngine(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil {
			// The error names every engine that does exist.
			for _, e := range []string{"interp", "native"} {
				if !strings.Contains(err.Error(), e) {
					t.Fatalf("ParseEngine(%q) error %q does not list %s", tc.in, err, e)
				}
			}
		}
	}

	toy := testdesigns.Toy()
	if got := rtl.NewSimEngine(toy.M, rtl.EngineInterp).Engine(); got != rtl.EngineInterp {
		t.Fatalf("NewSimEngine(interp).Engine() = %s", got)
	}

	prev := rtl.DefaultEngine()
	defer func() {
		if err := rtl.SetDefaultEngine(prev); err != nil {
			t.Fatal(err)
		}
	}()
	if err := rtl.SetDefaultEngine(rtl.EngineInterp); err != nil {
		t.Fatal(err)
	}
	if got := rtl.NewSim(toy.M).Engine(); got != rtl.EngineInterp {
		t.Fatalf("NewSim under interp default: engine %s", got)
	}
	// Toy has no generated step, so the native default resolves it to
	// the plan fallback (this test binary links package native).
	if err := rtl.SetDefaultEngine(""); err != nil {
		t.Fatal(err)
	}
	if got := rtl.DefaultEngine(); got != rtl.EngineNative {
		t.Fatalf("SetDefaultEngine(\"\") selected %s, want native", got)
	}
	if got := rtl.NewSim(toy.M).Engine(); got != rtl.EnginePlan {
		t.Fatalf("NewSim(toy) under native default: engine %s, want the plan fallback", got)
	}
	for _, bad := range []rtl.Engine{"gatesim", "compiled", "event", "batch", "plan"} {
		if err := rtl.SetDefaultEngine(bad); err == nil {
			t.Fatalf("SetDefaultEngine accepted %q", bad)
		}
	}
}

// TestFingerprint checks the netlist content hash: stable across
// rebuilds, insensitive to debug names, sensitive to semantic edits.
func TestFingerprint(t *testing.T) {
	spec := stencil.Spec()
	a, b := spec.Build(), spec.Build()
	fa, fb := rtl.Fingerprint(a), rtl.Fingerprint(b)
	if fa != fb {
		t.Fatalf("fingerprint not reproducible across builds:\n%s\n%s", fa, fb)
	}
	if len(fa) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(fa))
	}

	// Debug names must not affect the hash.
	b.Nodes[0].Name = "renamed"
	if rtl.Fingerprint(b) != fa {
		t.Fatal("fingerprint depends on a debug name")
	}

	// Semantic edits must.
	toy := testdesigns.Toy()
	base := rtl.Fingerprint(toy.M)
	mut := testdesigns.Toy()
	for i := range mut.M.Nodes {
		if mut.M.Nodes[i].Op == rtl.OpConst {
			mut.M.Nodes[i].Const ^= 1
			break
		}
	}
	if rtl.Fingerprint(mut.M) == base {
		t.Fatal("fingerprint insensitive to a constant change")
	}
	mut2 := testdesigns.Toy()
	if len(mut2.M.Regs) > 0 {
		mut2.M.Regs[0].Init ^= 1
		if rtl.Fingerprint(mut2.M) == base {
			t.Fatal("fingerprint insensitive to a register init change")
		}
	}
}
