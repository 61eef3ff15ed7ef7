package cluster

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestReplaySubmitAllocatesNothing pins the router's replay hot path:
// once warm, a 4-replica pool placing pre-simulated traces (no Result
// channel) allocates nothing per Submit — no candidate or view slices,
// no trace copies, no formatted routing keys — whether the job is
// placed, shed or placed as intrinsically infeasible.
func TestReplaySubmitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	traces := []core.JobTrace{synthTrace(2), synthTrace(9), synthTrace(15), synthTrace(20), synthTrace(4)}
	for _, pol := range []Policy{PolicyPredict{}, PolicyPressure{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := testConfig("alloc", 4)
			cfg.Policy = pol
			p, err := NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			clock, n := 0.0, 0
			submit := func() {
				// Bursts of four at one instant, 10 ms apart: the queue
				// stays bounded while the burst's later jobs see backlog.
				if n%4 == 0 {
					clock += 10e-3
				}
				if err := p.Submit(Job{Arrival: clock, Trace: &traces[n%len(traces)]}); err != nil && err != ErrShed {
					t.Fatal(err)
				}
				n++
			}
			for i := 0; i < 400; i++ {
				submit()
			}
			if allocs := testing.AllocsPerRun(400, submit); allocs != 0 {
				t.Errorf("%s: %v allocations per replayed Submit, want 0", pol.Name(), allocs)
			}
			st := p.Stats()
			if st.Placed == 0 || (pol.Name() == "predict" && (st.Shed == 0 || st.Intrinsic == 0)) {
				t.Errorf("%s: placed %d shed %d intrinsic %d; the stream should exercise every outcome",
					pol.Name(), st.Placed, st.Shed, st.Intrinsic)
			}
		})
	}
}

// TestLazyFreshMatchesEager holds the lazy FreshFeasible projection to
// the eager reference that fills it before every Pick: on the router
// fuzzer's seed corpus (inline and in testdata) and on random
// scenarios, every decision — the pick, a shed, an intrinsic placement
// — and the closed pool's statistics must be identical.
func TestLazyFreshMatchesEager(t *testing.T) {
	scenarios := append([][]byte(nil), routerSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRouterPlacement", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		scenarios = append(scenarios, readCorpusEntry(t, f))
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		data := make([]byte, 6+2*rng.Intn(30))
		rng.Read(data)
		scenarios = append(scenarios, data)
	}
	for i, data := range scenarios {
		lazyPicks, lazy := runScenario(t, data, false)
		eagerPicks, eager := runScenario(t, data, true)
		if !reflect.DeepEqual(lazyPicks, eagerPicks) {
			t.Fatalf("scenario %d %v: lazy picks %v, eager %v", i, data, lazyPicks, eagerPicks)
		}
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("scenario %d %v: lazy stats\n%+v\neager\n%+v", i, data, lazy, eager)
		}
	}
}

// readCorpusEntry decodes a one-value "go test fuzz v1" corpus file.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("%s: not a one-value []byte corpus entry", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
