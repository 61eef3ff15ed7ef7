package exp

import (
	"testing"

	"repro/internal/rtl"
)

// TestQuickLabRunsNative is the no-fallback guarantee for quick labs
// (dvfsim -quick and these tests): cmd/rtlgen pre-generates the slices
// a quick lab trains, so warming one must not fall back to the plan
// evaluator for any netlist. A failure means internal/rtl/native is stale:
// regenerate with `go generate ./internal/rtl/native`.
func TestQuickLabRunsNative(t *testing.T) {
	before := rtl.NativeFallbacks()
	l := NewLab(42)
	l.Quick = true
	if err := l.Warm(); err != nil {
		t.Fatal(err)
	}
	if d := rtl.NativeFallbacks() - before; d != 0 {
		t.Fatalf("warming a quick lab fell back to the plan evaluator %d time(s)", d)
	}
}
