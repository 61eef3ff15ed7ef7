package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that the result line carries every metric of the
// mode with its unit and that every output check passed.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			units := endToEndUnits
			if trace {
				name, units = w.name+"/traced", perLayerUnits
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{seed: 3, seconds: 0, trace: trace, scale: 0.02, quick: true, setups: 1}
				rep, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.write(&out, trace); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d; checks: %q", res.Correct, res.Attempted, res.Failed, rep.failures)
				}
				if len(res.Metrics) != len(units) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(units))
				}
				for _, nu := range units {
					if m, ok := res.Metrics[nu.name]; !ok || m.Unit != nu.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", nu.name, m, ok, nu.unit)
					}
				}
			})
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Errorf("quantile of no samples is not 0")
	}
}
