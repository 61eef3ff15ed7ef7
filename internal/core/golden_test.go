package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/suite"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trained_seed42.golden")

// TestTrainedModelGolden pins every design's trained model at seed 42
// bit for bit: the math.Float64bits of each coefficient, the intercept
// and the objective, the FISTA iteration count, the chosen γ and Kept.
// Output goldens cannot stand in for it: a change in the last bits of
// β can leave every rendered table and every simulated metric as they
// were. A solver change that is meant to be exact must leave this file
// alone; one that is not is reviewed in the diff and regenerated with
//
//	go test ./internal/core -run TestTrainedModelGolden -update
func TestTrainedModelGolden(t *testing.T) {
	var sb strings.Builder
	for _, spec := range suite.All() {
		p, err := Train(spec, Options{Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		m := p.Model
		fmt.Fprintf(&sb, "%s gamma %016x (%g) kept %v iters %d\n", spec.Name, math.Float64bits(p.Gamma), p.Gamma, p.Kept, m.Iters)
		fmt.Fprintf(&sb, "  intercept %016x (%g)\n", math.Float64bits(m.Intercept), m.Intercept)
		fmt.Fprintf(&sb, "  objective %016x (%g)\n", math.Float64bits(m.Objective), m.Objective)
		for j, c := range m.Coef {
			fmt.Fprintf(&sb, "  coef %2d %016x (%g)\n", j, math.Float64bits(c), c)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "trained_seed42.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (regenerate with -update): %v", err)
	}
	if got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := range min(len(wl), len(gl)) {
			if wl[i] != gl[i] {
				t.Fatalf("trained models diverged from %s at line %d:\n  want: %s\n  got:  %s", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("trained models diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
