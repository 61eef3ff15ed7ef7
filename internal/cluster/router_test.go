package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/sim"
)

const (
	testHz       = 250e6
	testDeadline = 16.7e-3
	testMargin   = 0.05
)

func testModels() (power.Model, power.Model) {
	st := rtl.AreaStats{LogicGates: 40000, RegGates: 15000, MemGates: 20000}
	sliceSt := rtl.AreaStats{LogicGates: 2000, RegGates: 800}
	return power.FromStats(st, power.DefaultParams(testHz)),
		power.FromStats(sliceSt, power.DefaultParams(testHz))
}

// testProfile is a replay-only profile (no predictor): every test job
// carries a synthetic trace, the same shape serve's own tests use.
func testProfile() serve.Profile {
	pm, spm := testModels()
	return serve.Profile{
		Device:     dvfs.ASIC(testHz, false),
		Power:      pm,
		SlicePower: spm,
		Deadline:   testDeadline,
		Margin:     testMargin,
	}
}

func testConfig(name string, replicas int) Config {
	return Config{
		Shard:    serve.ShardConfig{Name: name, Profile: testProfile(), QueueDepth: 256},
		Replicas: replicas,
	}
}

// synthTrace builds one replay trace with the given execution time (ms)
// at the 250 MHz nominal clock and a perfect prediction.
func synthTrace(ms float64) core.JobTrace {
	sec := ms * 1e-3
	cycles := sec * testHz
	return core.JobTrace{
		Ticks:        uint64(cycles / 1000),
		Cycles:       cycles,
		Seconds:      sec,
		PredSeconds:  sec,
		SliceTicks:   uint64(cycles / 1000 / 20),
		SliceSeconds: sec / 20,
		Class:        "c",
	}
}

// cand builds a Candidate for the policy tables; only the fields the
// policies read are populated.
func cand(id int, energy, finish, start float64, feasible, fresh bool) Candidate {
	return Candidate{
		ID: id, Name: "p/" + string(rune('0'+id)),
		Step:     serve.Step{Start: start, Finish: finish, Result: sim.JobResult{Energy: energy}},
		Feasible: feasible, FreshFeasible: fresh,
	}
}

func TestPolicyPredictTable(t *testing.T) {
	cases := []struct {
		name  string
		cands []Candidate
		want  int
	}{
		{
			"lowest energy among feasible wins",
			[]Candidate{
				cand(0, 3.0, 1, 0, true, true),
				cand(1, 1.0, 2, 0, true, true),
				cand(2, 2.0, 3, 0, true, true),
			},
			1,
		},
		{
			"infeasible replicas are skipped even at lower energy",
			[]Candidate{
				cand(0, 0.5, 1, 0, false, true),
				cand(1, 2.0, 2, 0, true, true),
				cand(2, 1.0, 3, 0, true, true),
			},
			2,
		},
		{
			"energy tie breaks on earlier finish",
			[]Candidate{
				cand(0, 1.0, 5, 0, true, true),
				cand(1, 1.0, 4, 0, true, true),
				cand(2, 1.0, 6, 0, true, true),
			},
			1,
		},
		{
			"full tie breaks on lower replica id",
			[]Candidate{
				cand(0, 1.0, 4, 0, true, true),
				cand(1, 1.0, 4, 0, true, true),
				cand(2, 1.0, 4, 0, true, true),
			},
			0,
		},
		{
			"backlog-infeasible everywhere sheds",
			[]Candidate{
				cand(0, 1.0, 4, 2, false, true),
				cand(1, 1.0, 4, 1, false, true),
			},
			-1,
		},
		{
			"one fresh-feasible replica is enough to shed (load, not job)",
			[]Candidate{
				cand(0, 1.0, 4, 2, false, false),
				cand(1, 1.0, 4, 1, false, true),
			},
			-1,
		},
		{
			"intrinsically infeasible job placed at earliest start",
			[]Candidate{
				cand(0, 1.0, 4, 2.0, false, false),
				cand(1, 1.0, 4, 0.5, false, false),
				cand(2, 1.0, 4, 1.0, false, false),
			},
			1,
		},
		{
			"intrinsic start tie breaks on lower id",
			[]Candidate{
				cand(0, 1.0, 4, 1.0, false, false),
				cand(1, 1.0, 4, 1.0, false, false),
			},
			0,
		},
	}
	p := PolicyPredict{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Pick must be a pure function: same answer twice.
			if got := p.Pick(tc.cands, "k"); got != tc.want {
				t.Errorf("Pick = %d, want %d", got, tc.want)
			}
			if got := p.Pick(tc.cands, "k"); got != tc.want {
				t.Errorf("second Pick = %d, want %d (not deterministic)", got, tc.want)
			}
		})
	}
}

func TestPolicyPressureTable(t *testing.T) {
	mk := func(id int, wait float64, backlog int) Candidate {
		return Candidate{ID: id, Step: serve.Step{Wait: wait}, Backlog: backlog}
	}
	cases := []struct {
		name  string
		cands []Candidate
		want  int
	}{
		{"lowest wait wins", []Candidate{mk(0, 2, 0), mk(1, 1, 5), mk(2, 3, 0)}, 1},
		{"wait tie breaks on backlog", []Candidate{mk(0, 1, 3), mk(1, 1, 2), mk(2, 1, 4)}, 1},
		{"full tie breaks on id", []Candidate{mk(0, 1, 2), mk(1, 1, 2)}, 0},
		{"never sheds", []Candidate{mk(0, 99, 99)}, 0},
	}
	p := PolicyPressure{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := p.Pick(tc.cands, "k"); got != tc.want {
				t.Errorf("Pick = %d, want %d", got, tc.want)
			}
		})
	}
}

// hashCands builds n placement candidates named p/0..p/n-1, skipping
// the ids in omit — the shape candidates() produces after a replica
// dies or drains.
func hashCands(n int, omit ...int) []Candidate {
	skip := make(map[int]bool)
	for _, id := range omit {
		skip[id] = true
	}
	out := make([]Candidate, 0, n)
	for id := 0; id < n; id++ {
		if skip[id] {
			continue
		}
		out = append(out, Candidate{ID: id, Name: "p/" + string(rune('0'+id))})
	}
	return out
}

func hashKeys() []string {
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = "job-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+i/10))
	}
	return keys
}

// TestPolicyHashStableUnderRemove pins the consistent-hash contract:
// removing one replica remaps only the keys it owned; every other key
// keeps its replica.
func TestPolicyHashStableUnderRemove(t *testing.T) {
	p := PolicyHash{}
	full := hashCands(4)
	moved := 0
	for _, key := range hashKeys() {
		before := full[p.Pick(full, key)]
		// Same key, same ring: affinity must be deterministic.
		if again := full[p.Pick(full, key)]; again.ID != before.ID {
			t.Fatalf("key %q: pick flapped %d -> %d on an unchanged ring", key, before.ID, again.ID)
		}
		const gone = 2
		after := hashCands(4, gone)
		got := after[p.Pick(after, key)]
		if before.ID != gone {
			if got.ID != before.ID {
				t.Errorf("key %q moved %d -> %d though replica %d died", key, before.ID, got.ID, gone)
			}
		} else {
			moved++
			if got.ID == gone {
				t.Errorf("key %q still on dead replica %d", key, gone)
			}
		}
	}
	if moved == 0 {
		t.Error("no key was owned by the removed replica; the ring test is vacuous")
	}
}

// TestPolicyHashStableUnderAdd: adding a replica only pulls keys onto
// the new replica — no key moves between the old ones.
func TestPolicyHashStableUnderAdd(t *testing.T) {
	p := PolicyHash{}
	old := hashCands(3)
	grown := hashCands(4)
	pulled := 0
	for _, key := range hashKeys() {
		before := old[p.Pick(old, key)]
		after := grown[p.Pick(grown, key)]
		if after.ID != before.ID {
			pulled++
			if after.ID != 3 {
				t.Errorf("key %q moved %d -> %d, not to the new replica", key, before.ID, after.ID)
			}
		}
	}
	if pulled == 0 {
		t.Error("new replica owns no keys")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "predict"}, {"predict", "predict"}, {"pressure", "pressure"}, {"hash", "hash"},
	} {
		p, err := ParsePolicy(tc.in)
		if err != nil || p.Name() != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %s", tc.in, p, err, tc.want)
		}
	}
	if _, err := ParsePolicy("roulette"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(Config{}); err == nil {
		t.Error("nameless pool accepted")
	}
	cfg := testConfig("x", 2)
	cfg.MaxBacklog = -1
	if _, err := NewPool(cfg); err == nil {
		t.Error("negative backlog bound accepted")
	}
	cfg = testConfig("x", 2)
	cfg.Kills = []Kill{{Replica: 5, At: 1}}
	if _, err := NewPool(cfg); err == nil {
		t.Error("kill on out-of-range replica accepted")
	}
	cfg = testConfig("x", 2)
	cfg.Kills = []Kill{{Replica: 0, At: -1}}
	if _, err := NewPool(cfg); err == nil {
		t.Error("non-positive kill horizon accepted")
	}
	cfg = testConfig("x", 2)
	cfg.Shard.Device = nil
	if _, err := NewPool(cfg); err == nil {
		t.Error("pool without a device accepted")
	}
	cfg = testConfig("x", 2)
	cfg.Autoscale = &AutoscaleConfig{Min: 3, Max: 2}
	if _, err := NewPool(cfg); err == nil {
		t.Error("autoscale max below min accepted")
	}
}

// TestPoolPlacesLowestEnergyFeasible is the end-to-end placement fixture:
// 15 ms jobs against a 16.7 ms deadline on two replicas. The first job
// ties everywhere and lands on replica 0; the second, arriving at the
// same instant, only fits on the idle replica 1; the third fits nowhere
// — but would fit a fresh deadline — so the router sheds it and says so.
func TestPoolPlacesLowestEnergyFeasible(t *testing.T) {
	p, err := NewPool(testConfig("x", 2))
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan serve.Outcome, 4)
	traces := []core.JobTrace{synthTrace(15), synthTrace(15), synthTrace(15)}
	for i := range traces[:2] {
		if err := p.Submit(Job{Arrival: 0, Trace: &traces[i], Result: res}); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if err := p.Submit(Job{Arrival: 0, Trace: &traces[2], Result: res}); err != ErrShed {
		t.Fatalf("overcommitted job: err = %v, want ErrShed", err)
	}
	p.Close()
	st := p.Stats()
	if st.Submitted != 3 || st.Placed != 2 || st.Shed != 1 || st.Intrinsic != 0 {
		t.Fatalf("submitted %d placed %d shed %d intrinsic %d, want 3/2/1/0",
			st.Submitted, st.Placed, st.Shed, st.Intrinsic)
	}
	for i, rs := range st.Replicas {
		if rs.Placed != 1 || rs.Done != 1 {
			t.Errorf("replica %d: placed %d done %d, want 1/1", i, rs.Placed, rs.Done)
		}
		if rs.Misses != 0 {
			t.Errorf("replica %d: %d misses on a feasible placement", i, rs.Misses)
		}
	}
	if len(res) != 2 {
		t.Fatalf("%d outcomes for 2 placed jobs", len(res))
	}
}

// TestPoolPlacesIntrinsicallyInfeasibleJob: a job that would miss even
// a fresh deadline on every replica is placed anyway (offline replay
// serves it too), counted as intrinsic, and its miss is recorded.
func TestPoolPlacesIntrinsicallyInfeasibleJob(t *testing.T) {
	p, err := NewPool(testConfig("x", 2))
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan serve.Outcome, 1)
	tr := synthTrace(20) // 20 ms > 16.7 ms deadline: intrinsically late
	if err := p.Submit(Job{Arrival: 0, Trace: &tr, Result: res}); err != nil {
		t.Fatalf("intrinsic job shed: %v", err)
	}
	p.Close()
	st := p.Stats()
	if st.Placed != 1 || st.Shed != 0 || st.Intrinsic != 1 {
		t.Fatalf("placed %d shed %d intrinsic %d, want 1/0/1", st.Placed, st.Shed, st.Intrinsic)
	}
	if o := <-res; o.Err != nil || !o.Missed() {
		t.Fatalf("outcome = %+v, want a served miss", o)
	}
	if st.Fleet.Misses != 1 {
		t.Fatalf("fleet misses %d, want 1", st.Fleet.Misses)
	}
}

func TestPoolMaxBacklogBound(t *testing.T) {
	cfg := testConfig("x", 2)
	cfg.MaxBacklog = 1
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 ms jobs all at t=0: every placement is deadline-feasible, but
	// with one slot of virtual backlog per replica only two fit.
	traces := []core.JobTrace{synthTrace(1), synthTrace(1), synthTrace(1)}
	var shed int
	for i := range traces {
		if err := p.Submit(Job{Arrival: 0, Trace: &traces[i]}); err == ErrShed {
			shed++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if st := p.Stats(); shed != 1 || st.Shed != 1 || st.Placed != 2 {
		t.Fatalf("shed %d (counter %d), placed %d; want 1 shed, 2 placed", shed, st.Shed, st.Placed)
	}
}

func TestPoolRejectsOutOfOrderArrivals(t *testing.T) {
	p, err := NewPool(testConfig("x", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr := synthTrace(1)
	if err := p.Submit(Job{Arrival: 1.0, Trace: &tr}); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Job{Arrival: 0.5, Trace: &tr}); err == nil {
		t.Fatal("out-of-order arrival accepted")
	}
}

// TestRetireNow covers the operator drain path: a drained replica
// retires cleanly (empty handoff), later arrivals route around it, and
// the last active replica refuses to retire.
func TestRetireNow(t *testing.T) {
	p, err := NewPool(testConfig("x", 2))
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan serve.Outcome, 2)
	tr := synthTrace(1)
	if err := p.Submit(Job{Arrival: 0, Trace: &tr, Result: res}); err != nil {
		t.Fatal(err)
	}
	<-res // replica 0 served it and is idle again
	if err := p.RetireNow("x/9"); err == nil {
		t.Error("unknown replica retired")
	}
	if err := p.RetireNow("x/0"); err != nil {
		t.Fatalf("retire x/0: %v", err)
	}
	if err := p.RetireNow("x/1"); err == nil {
		t.Error("last active replica retired")
	}
	// The survivor owns all subsequent work.
	if err := p.Submit(Job{Arrival: 1, Trace: &tr, Result: res}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	st := p.Stats()
	if st.Replicas[0].State != "dead" {
		t.Errorf("retired replica state %q, want dead", st.Replicas[0].State)
	}
	if st.Replicas[1].Placed != 1 || st.Replicas[1].Done != 1 {
		t.Errorf("survivor placed %d done %d, want 1/1", st.Replicas[1].Placed, st.Replicas[1].Done)
	}
	if st.Replaced != 0 || st.Lost != 0 {
		t.Errorf("drained retire replaced %d lost %d jobs, want none", st.Replaced, st.Lost)
	}
}

func TestAutoscalerScaleUpAfterHotStreak(t *testing.T) {
	a, err := newAutoscaler(AutoscaleConfig{Min: 1, Max: 3, Window: 2, HotStreak: 2, IdleStreak: 2, Cooldown: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hot := func(active int) scaleAction { return a.observe(1, 1, false, active) } // wait == deadline
	// Window 1 hot: streak 1, hold. Window 2 hot: streak 2 -> scale up.
	for i, want := range []scaleAction{scaleHold, scaleHold, scaleHold, scaleUp} {
		if got := hot(1); got != want {
			t.Fatalf("obs %d: action %v, want %v", i, got, want)
		}
	}
	// Cooldown window: still hot, but the action armed a cooldown.
	for i := 0; i < 2; i++ {
		if got := hot(2); got != scaleHold {
			t.Fatalf("cooldown obs %d: action %v, want hold", i, got)
		}
	}
	// Streak rebuilds from zero after the cooldown: two more hot windows.
	actions := []scaleAction{}
	for i := 0; i < 4; i++ {
		actions = append(actions, hot(2))
	}
	if actions[3] != scaleUp {
		t.Fatalf("post-cooldown actions %v, want scaleUp last", actions)
	}
	// At Max the scaler holds no matter how hot.
	for i := 0; i < 8; i++ {
		if got := hot(3); got != scaleHold {
			t.Fatalf("at max: action %v, want hold", got)
		}
	}
}

func TestAutoscalerDrainAfterIdleStreak(t *testing.T) {
	a, err := newAutoscaler(AutoscaleConfig{Min: 1, Max: 3, Window: 2, HotStreak: 2, IdleStreak: 2, Cooldown: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	idle := func(active int) scaleAction { return a.observe(0, 1, false, active) }
	for i, want := range []scaleAction{scaleHold, scaleHold, scaleHold, scaleDown} {
		if got := idle(3); got != want {
			t.Fatalf("obs %d: action %v, want %v", i, got, want)
		}
	}
	// At Min the scaler never drains.
	for i := 0; i < 12; i++ {
		if got := idle(1); got != scaleHold {
			t.Fatalf("at min: action %v, want hold", got)
		}
	}
}

// TestAutoscalerNoFlapping: a load sitting exactly on the boundary —
// alternating hot and idle windows — must never trigger either action;
// the streak requirement is the hysteresis.
func TestAutoscalerNoFlapping(t *testing.T) {
	a, err := newAutoscaler(AutoscaleConfig{Min: 1, Max: 3, Window: 1, HotStreak: 2, IdleStreak: 2, Cooldown: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		wait := 0.0
		if i%2 == 0 {
			wait = 1 // hot window
		}
		if got := a.observe(wait, 1, false, 2); got != scaleHold {
			t.Fatalf("obs %d: boundary load produced action %v", i, got)
		}
	}
}

func TestAutoscalerShedsMakeWindowHot(t *testing.T) {
	a, err := newAutoscaler(AutoscaleConfig{Min: 1, Max: 2, Window: 1, HotStreak: 1, IdleStreak: 4, Cooldown: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.observe(0, 1, true, 1); got != scaleUp {
		t.Fatalf("shed window: action %v, want scaleUp", got)
	}
}

// TestPoolAutoscaleEndToEnd drives a pool through overload and then
// idleness: the router's own shed/wait signals must grow the fleet,
// then drain it back, without flapping in between.
func TestPoolAutoscaleEndToEnd(t *testing.T) {
	cfg := testConfig("x", 1)
	cfg.Autoscale = &AutoscaleConfig{Min: 1, Max: 2, Window: 4, HotStreak: 2, IdleStreak: 2, Cooldown: 1}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: 10 ms jobs every 5 ms — twice one replica's capacity.
	clock := 0.0
	for i := 0; i < 16; i++ {
		tr := synthTrace(10)
		if err := p.Submit(Job{Arrival: clock, Trace: &tr}); err != nil && err != ErrShed {
			t.Fatal(err)
		}
		clock += 5e-3
	}
	mid := p.Stats()
	if mid.ScaleUps == 0 {
		t.Fatalf("sustained overload never scaled up: %+v", mid)
	}
	if len(mid.Replicas) != 2 {
		t.Fatalf("%d replicas after scale-up, want 2", len(mid.Replicas))
	}
	// Phase 2: the same jobs every 50 ms — a trickle either replica
	// absorbs alone.
	clock += 50e-3
	for i := 0; i < 24; i++ {
		tr := synthTrace(10)
		if err := p.Submit(Job{Arrival: clock, Trace: &tr}); err != nil {
			t.Fatal(err)
		}
		clock += 50e-3
	}
	p.Close()
	st := p.Stats()
	if st.ScaleDowns == 0 {
		t.Fatalf("sustained idleness never drained: %+v", st)
	}
	if st.ScaleUps != 1 || st.ScaleDowns != 1 {
		t.Errorf("scaler flapped: %d ups, %d downs, want 1 each", st.ScaleUps, st.ScaleDowns)
	}
	active := 0
	for _, rs := range st.Replicas {
		if rs.State == "active" {
			active++
		}
	}
	if active != 1 {
		t.Errorf("%d active replicas after drain, want 1", active)
	}
	if st.Fleet.Done != st.Placed {
		t.Errorf("done %d != placed %d: drained replica dropped admitted work", st.Fleet.Done, st.Placed)
	}
}
