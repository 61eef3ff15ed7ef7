package cluster

import (
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestReplaySubmitAllocatesNothing pins the router's replay hot path:
// once warm, a 4-replica pool placing pre-simulated traces (no Result
// channel) allocates nothing per Submit — no candidate or view slices,
// no trace copies, no formatted routing keys — whether the job is
// placed, shed or placed as intrinsically infeasible. The hash policy
// reads keys, so it may allocate the one formatting the job's default
// key, and nothing for its ring.
func TestReplaySubmitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	traces := []core.JobTrace{synthTrace(2), synthTrace(9), synthTrace(15), synthTrace(20), synthTrace(4)}
	for _, pol := range []Policy{PolicyPredict{}, PolicyPressure{}, PolicyHash{}} {
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
			bound := 0.0
			if _, ok := pol.(PolicyHash); ok {
				bound = 1
			}
			if allocs := testing.AllocsPerRun(400, submit); allocs > bound {
				t.Errorf("%s: %v allocations per replayed Submit, want at most %v", pol.Name(), allocs, bound)
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
		lazyPicks, lazy := runScenario(t, data, scenarioOpts{})
		eagerPicks, eager := runScenario(t, data, scenarioOpts{eagerFresh: true})
		if !reflect.DeepEqual(lazyPicks, eagerPicks) {
			t.Fatalf("scenario %d %v: lazy picks %v, eager %v", i, data, lazyPicks, eagerPicks)
		}
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("scenario %d %v: lazy stats\n%+v\neager\n%+v", i, data, lazy, eager)
		}
	}
}

// TestHashRingCacheMatchesFresh holds a pool's cached hash ring to the
// ring PolicyHash.Pick builds afresh on every pick: on the router
// fuzzer's corpus and on random scenarios, all run under the hash
// policy, through kills, restarts and drains, and again with the pool
// autoscaling, every pick and the closed pool's statistics must be
// identical.
func TestHashRingCacheMatchesFresh(t *testing.T) {
	scenarios := append([][]byte(nil), routerSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRouterPlacement", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		scenarios = append(scenarios, readCorpusEntry(t, f))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		data := make([]byte, 6+2*rng.Intn(40))
		rng.Read(data)
		scenarios = append(scenarios, data)
	}
	scale := &AutoscaleConfig{Min: 1, Max: 4, Window: 2, HotStreak: 1, IdleStreak: 2, Cooldown: 1}
	var kills, restarts, scaled uint64
	for i, data := range scenarios {
		data = append([]byte{2}, data[1:]...) // the hash policy
		for _, as := range []*AutoscaleConfig{nil, scale} {
			cachedPicks, cached := runScenario(t, data, scenarioOpts{autoscale: as})
			freshPicks, fresh := runScenario(t, data, scenarioOpts{autoscale: as, freshRing: true})
			if !reflect.DeepEqual(cachedPicks, freshPicks) {
				t.Fatalf("scenario %d %v (autoscale %v): cached-ring picks %v, fresh %v", i, data, as != nil, cachedPicks, freshPicks)
			}
			if !reflect.DeepEqual(cached, fresh) {
				t.Fatalf("scenario %d %v (autoscale %v): cached-ring stats\n%+v\nfresh\n%+v", i, data, as != nil, cached, fresh)
			}
			kills += cached.Kills
			scaled += cached.ScaleUps + cached.ScaleDowns
			if data[3]&3 == 3 {
				restarts += cached.Kills
			}
		}
	}
	if kills == 0 || restarts == 0 || scaled == 0 {
		t.Errorf("scenarios fired %d kills, %d with restart, %d autoscale actions; each must be exercised", kills, restarts, scaled)
	}
}

// refHashPick is PolicyHash.Pick as it was before the ring was cached:
// a fresh ring of fnv.New64a hashes over "<name>#<vnode>", sorted on
// every pick.
func refHashPick(cands []Candidate, key string) int {
	hash64 := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	type point struct {
		h   uint64
		idx int
	}
	points := make([]point, 0, len(cands)*hashVnodes)
	for i, c := range cands {
		for v := 0; v < hashVnodes; v++ {
			points = append(points, point{hash64(c.Name + "#" + strconv.Itoa(v)), i})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].h != points[b].h {
			return points[a].h < points[b].h
		}
		return points[a].idx < points[b].idx
	})
	h := hash64(key)
	lo, hi := 0, len(points)
	for lo < hi {
		mid := (lo + hi) / 2
		if points[mid].h < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(points) {
		lo = 0
	}
	return points[lo].idx
}

// TestPolicyHashMatchesReference: the fresh and the cached ring pick
// what the uncached fnv.New64a ring picked, for random fleets (replicas
// leaving and joining between picks) and keys.
func TestPolicyHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cached := &hashRing{}
	var cands []Candidate
	for i := 0; i < 2000; i++ {
		if i%50 == 0 {
			cands = cands[:0]
			for id := 0; id < 8; id++ {
				if rng.Intn(2) == 0 || (id == 7 && len(cands) == 0) {
					cands = append(cands, Candidate{ID: id, Name: "pool/" + strconv.Itoa(id)})
				}
			}
		}
		key := strconv.Itoa(rng.Intn(1 << 20))
		want := refHashPick(cands, key)
		if got := (PolicyHash{}).Pick(cands, key); got != want {
			t.Fatalf("key %q over %v: fresh ring picks %d, reference %d", key, cands, got, want)
		}
		if got := cached.Pick(cands, key); got != want {
			t.Fatalf("key %q over %v: cached ring picks %d, reference %d", key, cands, got, want)
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
