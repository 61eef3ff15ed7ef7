package core

import (
	"reflect"
	"testing"

	"repro/internal/accel/md"
	"repro/internal/rtl"
)

// withEngine switches the process default engine to e for the duration
// of the test. A Predictor binds its simulators when it is trained, so
// the switch must precede Train.
func withEngine(t *testing.T, e rtl.Engine) {
	t.Helper()
	prev := rtl.DefaultEngine()
	if err := rtl.SetDefaultEngine(e); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := rtl.SetDefaultEngine(prev); err != nil {
			t.Fatal(err)
		}
	})
}

// trainOn trains md at seed on engine e and checks that both of the
// predictor's simulators really resolved to e.
func trainOn(t *testing.T, e rtl.Engine, seed int64) *Predictor {
	t.Helper()
	withEngine(t, e)
	p, err := Train(md.Spec(), Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if sliceE, fullE := p.Engines(); sliceE != e || fullE != e {
		t.Fatalf("predictor trained on %s resolved to slice=%s full=%s", e, sliceE, fullE)
	}
	return p
}

// TestTrainBatchMatchesScalar is the end-to-end bit-exactness check for
// bulk training-set simulation, which runs on the native engine: the
// trained model — coefficients, selected features, error statistics,
// every float — must be identical to one trained on the reference
// interpreter, at one worker and several.
func TestTrainBatchMatchesScalar(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	interp := trainOn(t, rtl.EngineInterp, 21)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		native := trainOn(t, rtl.EngineNative, 21)
		if !reflect.DeepEqual(interp.Model, native.Model) ||
			!reflect.DeepEqual(interp.Kept, native.Kept) ||
			interp.Gamma != native.Gamma ||
			!reflect.DeepEqual(interp.TrainErr, native.TrainErr) {
			t.Fatalf("workers=%d: native training produced a different predictor than interp", workers)
		}
	}
}

// TestCollectTracesBatchMatchesScalar proves bulk trace collection on
// the native engine is byte-identical to collection on the reference
// interpreter, at one worker and several (jobs fan out across workers;
// results are index-addressed), and that every job simulates both the
// full design and the slice exactly once.
func TestCollectTracesBatchMatchesScalar(t *testing.T) {
	jobs := md.Spec().TestJobs(9)[:70]
	defer SetWorkers(0)
	SetWorkers(1)
	want, err := trainOn(t, rtl.EngineInterp, 21).CollectTraces(jobs)
	if err != nil {
		t.Fatal(err)
	}
	p := trainOn(t, rtl.EngineNative, 21)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		before := SimulatedJobs()
		got, err := p.CollectTraces(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: native traces differ from interp collection", workers)
		}
		if d, n := SimulatedJobs()-before, 2*uint64(len(jobs)); d != n {
			t.Errorf("workers=%d: SimulatedJobs advanced by %d, want %d", workers, d, n)
		}
	}
}
