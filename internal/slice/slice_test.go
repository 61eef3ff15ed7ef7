package slice

import (
	"math/rand"
	"testing"

	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/testdesigns"
)

func instrumentedToy(t *testing.T) *instrument.Instrumented {
	t.Helper()
	toy := testdesigns.Toy()
	ins, err := instrument.Instrument(toy.M)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func allFeatures(ins *instrument.Instrumented) []int {
	keep := make([]int, len(ins.Features))
	for i := range keep {
		keep[i] = i
	}
	return keep
}

func runFull(t *testing.T, ins *instrument.Instrumented, items []uint64) (uint64, []float64) {
	t.Helper()
	s := rtl.NewSim(ins.M)
	if err := s.LoadMem("in", testdesigns.ToyJob(items)); err != nil {
		t.Fatal(err)
	}
	cycles, err := s.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return cycles, ins.ReadFeatures(s)
}

func runSlice(t *testing.T, r *Result, items []uint64) (uint64, []float64) {
	t.Helper()
	s := rtl.NewSim(r.M)
	if err := s.LoadMem("in", testdesigns.ToyJob(items)); err != nil {
		t.Fatal(err)
	}
	cycles, err := s.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return cycles, r.ReadFeatures(s)
}

func randomItems(rng *rand.Rand, n int) []uint64 {
	items := make([]uint64, n)
	for i := range items {
		items[i] = testdesigns.ToyItem(rng.Intn(2) == 1, uint8(rng.Intn(50)))
	}
	return items
}

// TestSliceFeatureEquivalence is the package's defining property: the
// slice computes exactly the same feature values as the full design.
func TestSliceFeatureEquivalence(t *testing.T) {
	ins := instrumentedToy(t)
	r, err := Slice(ins, allFeatures(ins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		items := randomItems(rng, 1+rng.Intn(15))
		_, fullF := runFull(t, ins, items)
		_, sliceF := runSlice(t, r, items)
		for i, k := range r.Kept {
			if sliceF[i] != fullF[k] {
				t.Errorf("trial %d: feature %s: slice=%v full=%v",
					trial, ins.Features[k].Name, sliceF[i], fullF[k])
			}
		}
	}
}

func TestSliceIsFasterWithElision(t *testing.T) {
	ins := instrumentedToy(t)
	r, err := Slice(ins, allFeatures(ins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.ElidedWaits != 2 {
		t.Errorf("elided waits = %d, want 2", r.ElidedWaits)
	}
	items := []uint64{
		testdesigns.ToyItem(true, 40),
		testdesigns.ToyItem(true, 35),
		testdesigns.ToyItem(false, 0),
	}
	fullC, _ := runFull(t, ins, items)
	sliceC, _ := runSlice(t, r, items)
	if sliceC >= fullC {
		t.Errorf("slice cycles %d not faster than full %d", sliceC, fullC)
	}
	// With all waits elided, per-item time is the 4 control cycles plus
	// one elided wait cycle: the slice behaves as if every latency were 0.
	want := testdesigns.ToyCycles([]uint64{
		testdesigns.ToyItem(true, 0), testdesigns.ToyItem(true, 0), testdesigns.ToyItem(true, 0),
	})
	if sliceC != want {
		t.Errorf("slice cycles = %d, want %d (all-zero-latency equivalent)", sliceC, want)
	}
}

// TestSliceWithoutElisionMatchesFullTiming is the timing-cone property:
// with no wait elided, a slice of done plus any non-empty witness subset
// — plain or pruned — finishes on the full design's cycle (or, like the
// full design, not within the limit) with every kept witness equal to
// the full design's. It runs over the toy, the data-wait design and
// every test design that instruments with features, on random memory
// images.
func TestSliceWithoutElisionMatchesFullTiming(t *testing.T) {
	hand, _ := testdesigns.HandFSM()
	dwait, _ := dataWaitDesign()
	designs := []*rtl.Module{
		testdesigns.Toy().M, dwait, hand,
		testdesigns.UnqualifiedLoad(), testdesigns.QualifiedLoad(), testdesigns.EdgeQualifiedLoad(),
		testdesigns.EscapingCounter(), testdesigns.DeadCounter(), testdesigns.TruncatingAdd(),
		testdesigns.UnreachableState(), testdesigns.RacyWrites(), testdesigns.DeadWrite(),
		testdesigns.NeverAssigned(), testdesigns.IdleInput(), testdesigns.DataWaitOnly(),
		testdesigns.SkippingCounter(), testdesigns.GuardedDeadState(), testdesigns.FrozenConstant(),
		testdesigns.PartiallyDeadReg(), testdesigns.CombCycle(),
	}
	rng := rand.New(rand.NewSource(23))
	checked, finished, runs := 0, 0, 0
	for _, m := range designs {
		ins, err := instrument.Instrument(m)
		if err != nil {
			t.Logf("%s: skipped: %v", m.Name, err)
			continue
		}
		if len(ins.Features) == 0 {
			t.Logf("%s: skipped: no features", m.Name)
			continue
		}
		checked++
		for trial := 0; trial < 40; trial++ {
			var keep []int
			for len(keep) == 0 {
				for i := range ins.Features {
					if rng.Intn(3) == 0 {
						keep = append(keep, i)
					}
				}
			}
			r, err := Slice(ins, keep, Options{Prune: trial%2 == 1})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			if r.ElidedWaits != 0 || r.ApproxWaits != 0 {
				t.Fatalf("%s: elided %d waits, approximated %d; want none", m.Name, r.ElidedWaits, r.ApproxWaits)
			}
			full, cone := rtl.NewSim(ins.M), rtl.NewSim(r.M)
			for _, mem := range ins.M.Mems {
				if mem.ROM {
					continue
				}
				img := randomImage(rng, mem.Words)
				if err := full.LoadMem(mem.Name, img); err != nil {
					t.Fatal(err)
				}
				if cone.Mem(mem.Name) != nil {
					if err := cone.LoadMem(mem.Name, img); err != nil {
						t.Fatal(err)
					}
				}
			}
			const limit = 1 << 14
			fullC, fullErr := full.Run(limit)
			coneC, coneErr := cone.Run(limit)
			if coneC != fullC || (coneErr == nil) != (fullErr == nil) {
				t.Fatalf("%s trial %d (keep %v): cone ran %d cycles (%v), full design %d (%v)",
					m.Name, trial, keep, coneC, coneErr, fullC, fullErr)
			}
			runs++
			if fullErr == nil {
				finished++
			}
			fullF := ins.ReadFeatures(full)
			for i, k := range r.Kept {
				if v := float64(cone.RegValue(r.WitnessRegs[i])); v != fullF[k] {
					t.Fatalf("%s trial %d: witness %s = %v in the cone, %v in the full design",
						m.Name, trial, ins.Features[k].Name, v, fullF[k])
				}
			}
		}
	}
	t.Logf("%d designs, %d of %d runs reached done", checked, finished, runs)
	if checked < 10 || 2*finished < runs {
		t.Errorf("%d designs instrumented with features, %d of %d runs reached done; the property needs a broad sample",
			checked, finished, runs)
	}
}

// randomImage fills a memory with small random words, so latencies
// stay short enough for most jobs to finish.
func randomImage(rng *rand.Rand, words int) []uint64 {
	img := make([]uint64, words)
	for i := range img {
		img[i] = uint64(rng.Intn(48))
	}
	return img
}

func TestSliceRemovesDatapath(t *testing.T) {
	ins := instrumentedToy(t)
	r, err := Slice(ins, allFeatures(ins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.M.Nodes {
		if r.M.Nodes[i].Op == rtl.OpMul {
			t.Fatal("slice retains datapath multiplier")
		}
	}
	if r.M.MemByName("out") != nil {
		t.Error("slice retains write-only output memory")
	}
	full := rtl.Stats(ins.M)
	sl := rtl.Stats(r.M)
	if sl.LogicArea() >= full.LogicArea() {
		t.Errorf("slice logic area %.0f not smaller than full %.0f",
			sl.LogicArea(), full.LogicArea())
	}
}

func TestSliceSubsetOfFeatures(t *testing.T) {
	ins := instrumentedToy(t)
	// Keep only the slow counter's AIV and the dispatch STC features.
	var keep []int
	for i, f := range ins.Features {
		if f.Name == "aiv:slow_cnt" || f.Name == "stc:ctrl:2->4" {
			keep = append(keep, i)
		}
	}
	if len(keep) != 2 {
		t.Fatalf("expected 2 features, found %d", len(keep))
	}
	r, err := Slice(ins, keep, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	items := []uint64{
		testdesigns.ToyItem(true, 12),
		testdesigns.ToyItem(true, 7),
		testdesigns.ToyItem(false, 3),
	}
	_, fullF := runFull(t, ins, items)
	_, sliceF := runSlice(t, r, items)
	for i, k := range r.Kept {
		if sliceF[i] != fullF[k] {
			t.Errorf("feature %s: slice=%v full=%v", ins.Features[k].Name, sliceF[i], fullF[k])
		}
	}
	// A 2-feature slice should be smaller than the all-features slice.
	all, err := Slice(ins, allFeatures(ins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rtl.Stats(r.M).LogicArea() > rtl.Stats(all.M).LogicArea() {
		t.Error("subset slice larger than full-feature slice")
	}
}

func TestSliceRejectsBadInput(t *testing.T) {
	ins := instrumentedToy(t)
	if _, err := Slice(ins, nil, DefaultOptions()); err == nil {
		t.Error("empty keep list accepted")
	}
	if _, err := Slice(ins, []int{9999}, DefaultOptions()); err == nil {
		t.Error("out-of-range feature accepted")
	}
}

func TestSliceModuleValidates(t *testing.T) {
	ins := instrumentedToy(t)
	r, err := Slice(ins, allFeatures(ins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.M.Name != "toy_slice" {
		t.Errorf("slice name = %q", r.M.Name)
	}
	if len(r.WitnessRegs) != len(r.Kept) {
		t.Errorf("witness regs %d != kept %d", len(r.WitnessRegs), len(r.Kept))
	}
}

// dataWaitDesign builds a module with a state that waits on a datapath
// signal (an iterative xorshift loop) rather than a counter, mimicking
// the djpeg structure from the paper's Figure 10 discussion.
func dataWaitDesign() (*rtl.Module, rtl.NodeID) {
	b := rtl.NewBuilder("dwait")
	in := b.Memory("in", 16)
	idx := b.Reg("idx", 4, 1)
	n := b.Read(in, b.Const(0, 4), 4)
	seed := b.Read(in, idx.Signal, 16)

	f := b.FSM("ctrl", 4)
	// Datapath: an LFSR-ish register stepped while in state 1; the state
	// exits when the register's low bits hit a pattern, which depends on
	// data in a way no counter tracks.
	lfsr := b.Reg("lfsr", 16, 1)
	stepped := lfsr.Xor(lfsr.ShlK(3)).Xor(lfsr.ShrK(5)).Add(b.Const(1, 16)).Trunc(16)
	inRun := f.In(1)
	load := f.In(0)
	b.SetNext(lfsr, load.Mux(seed, inRun.Mux(stepped, lfsr.Signal)))
	hit := lfsr.Bits(0, 3).EqK(0)

	f.Always(0, 1)
	f.When(1, hit, 2)
	f.When(2, idx.Ge(n), 3)
	f.Always(2, 0)
	f.Build()
	b.SetNext(idx, f.In(2).Mux(idx.Inc(), idx.Signal))
	b.SetDone(f.In(3))
	m := b.MustBuild()
	return m, 0
}

func TestApproximateDataWaitElision(t *testing.T) {
	m, _ := dataWaitDesign()
	ins, err := instrument.Instrument(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Features) == 0 {
		t.Fatal("no features on data-wait design")
	}
	r, err := Slice(ins, allFeatures(ins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.ApproxWaits == 0 {
		t.Fatal("data wait not approximated")
	}
	// The slice must terminate quickly even though the datapath that
	// decided the wait duration is gone.
	job := []uint64{3, 12345, 999, 42}
	sFull := rtl.NewSim(ins.M)
	if err := sFull.LoadMem("in", job); err != nil {
		t.Fatal(err)
	}
	fullC, err := sFull.Run(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	sSlice := rtl.NewSim(r.M)
	if err := sSlice.LoadMem("in", job); err != nil {
		t.Fatal(err)
	}
	sliceC, err := sSlice.Run(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	if sliceC >= fullC {
		t.Errorf("approximated slice cycles %d not below full %d", sliceC, fullC)
	}
	// STC features still match: the same transitions occur, only sooner.
	fullF := ins.ReadFeatures(sFull)
	sliceF := r.ReadFeatures(sSlice)
	for i, k := range r.Kept {
		if ins.Features[k].Kind == instrument.STC && sliceF[i] != fullF[k] {
			t.Errorf("STC feature %s: slice=%v full=%v", ins.Features[k].Name, sliceF[i], fullF[k])
		}
	}
}

func TestSliceDeterminism(t *testing.T) {
	ins := instrumentedToy(t)
	r1, err := Slice(ins, allFeatures(ins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Slice(ins, allFeatures(ins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.M.Nodes) != len(r2.M.Nodes) || len(r1.M.Regs) != len(r2.M.Regs) {
		t.Error("slicing is not deterministic")
	}
}
