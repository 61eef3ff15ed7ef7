package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/accel/md"
	"repro/internal/fault"
	"repro/internal/model"
)

// TestWorkersDefaulting pins the SetWorkers contract: positive counts
// are taken literally, zero and negative restore the GOMAXPROCS
// default, for job simulation and the γ sweep alike.
func TestWorkersDefaulting(t *testing.T) {
	defer SetWorkers(0)
	gomax := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		set  int
		want int
	}{
		{1, 1},
		{3, 3},
		{7, 7},
		{0, gomax},
		{-1, gomax},
		{-100, gomax},
	} {
		SetWorkers(tc.set)
		if got := Workers(); got != tc.want {
			t.Errorf("SetWorkers(%d): Workers() = %d, want %d", tc.set, got, tc.want)
		}
		// The same count bounds Train's γ sweep.
		if got := model.Workers(); got != tc.want {
			t.Errorf("SetWorkers(%d): model.Workers() = %d, want %d", tc.set, got, tc.want)
		}
	}
}

// TestRunParallelErrorOrder pins the documented error contract: with
// several jobs failing on both attempts, the error for the lowest job
// index is the one reported, regardless of scheduling — and n=0 is a
// no-op that never invokes newState.
func TestRunParallelErrorOrder(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		err := runParallel(16, func() int { return 0 }, func(_ int, i, attempt int) error {
			if i == 2 || i == 5 || i == 11 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 2 failed" {
			t.Errorf("workers=%d: err = %v, want the index-2 error", workers, err)
		}
	}
	called := false
	if err := runParallel(0, func() int { called = true; return 0 }, func(int, int, int) error {
		t.Fatal("run invoked with n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("newState invoked with n=0")
	}
}

// TestRunParallelRetriesOnFreshState pins the retry contract: a job
// that fails attempt 0 is retried exactly once on a state built fresh
// for the retry (never the possibly-wedged worker state), the worker
// continues later jobs on that fresh state, and a job failing both
// attempts fails the batch.
func TestRunParallelRetriesOnFreshState(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		before := RetriedJobs()
		var states atomic.Int32
		var mu sync.Mutex
		attempts := make(map[int][]int) // job index -> state generation per attempt
		err := runParallel(8,
			func() int { return int(states.Add(1)) },
			func(state, i, attempt int) error {
				mu.Lock()
				attempts[i] = append(attempts[i], state)
				mu.Unlock()
				if i == 3 && attempt == 0 {
					return fmt.Errorf("transient failure")
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := RetriedJobs() - before; got != 1 {
			t.Errorf("workers=%d: RetriedJobs advanced by %d, want 1", workers, got)
		}
		if a := attempts[3]; len(a) != 2 || a[0] == a[1] {
			t.Errorf("workers=%d: job 3 attempts ran on states %v, want two attempts on distinct states", workers, a)
		}
		for i, a := range attempts {
			if i != 3 && len(a) != 1 {
				t.Errorf("workers=%d: job %d ran %d attempts, want 1", workers, i, len(a))
			}
		}

		// Both attempts failing fails the batch.
		err = runParallel(4, func() int { return 0 }, func(_ int, i, attempt int) error {
			if i == 1 {
				return fmt.Errorf("persistent failure attempt %d", attempt)
			}
			return nil
		})
		if err == nil || err.Error() != "persistent failure attempt 1" {
			t.Errorf("workers=%d: err = %v, want the attempt-1 error", workers, err)
		}
	}
}

// trainedMD caches one trained predictor for the parallelism tests and
// benchmarks (training itself is exercised elsewhere).
var trainedMD = sync.OnceValues(func() (*Predictor, error) {
	return Train(md.Spec(), Options{Seed: 1})
})

// TestCollectTracesParallelDeterministic proves the fan-out contract:
// traces collected with many workers are byte-identical (every field,
// every float) to a serial collection.
func TestCollectTracesParallelDeterministic(t *testing.T) {
	p, err := trainedMD()
	if err != nil {
		t.Fatal(err)
	}
	jobs := md.Spec().TestJobs(9)[:40]

	defer SetWorkers(0)
	SetWorkers(1)
	serial, err := p.CollectTraces(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		SetWorkers(workers)
		parallel, err := p.CollectTraces(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("traces with %d workers differ from serial collection", workers)
		}
	}
}

// TestTrainParallelDeterministic checks that the trained model does not
// depend on the worker count: the training simulations feed the solver
// index-addressed feature rows, so coefficients must match exactly.
func TestTrainParallelDeterministic(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	serial, err := Train(md.Spec(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(6)
	parallel, err := Train(md.Spec(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Model, parallel.Model) {
		t.Fatal("model coefficients depend on worker count")
	}
	if serial.Gamma != parallel.Gamma || !reflect.DeepEqual(serial.Kept, parallel.Kept) {
		t.Fatal("feature selection depends on worker count")
	}
}

// TestCollectTracesSurvivesTransientFaults: with a transient injector
// faulting every job's first attempt, CollectTraces retries each job on
// a fresh simulator clone and returns traces byte-identical to a
// fault-free run. A persistent schedule (retries fault too) must fail.
func TestCollectTracesSurvivesTransientFaults(t *testing.T) {
	p, err := trainedMD()
	if err != nil {
		t.Fatal(err)
	}
	jobs := md.Spec().TestJobs(9)[:12]
	clean, err := p.CollectTraces(jobs)
	if err != nil {
		t.Fatal(err)
	}

	defer SetFaultInjector(nil)
	SetFaultInjector(fault.New(1).Site(FaultJob, 1)) // transient: retries succeed
	before := RetriedJobs()
	faulted, err := p.CollectTraces(jobs)
	if err != nil {
		t.Fatalf("transient faults failed the batch: %v", err)
	}
	if !reflect.DeepEqual(clean, faulted) {
		t.Fatal("traces under transient faults differ from clean run")
	}
	if got := RetriedJobs() - before; got != uint64(len(jobs)) {
		t.Errorf("RetriedJobs advanced by %d, want %d", got, len(jobs))
	}

	SetFaultInjector(fault.New(1).SiteRepeat(FaultJob, 1, 1)) // persistent
	if _, err := p.CollectTraces(jobs); !fault.Injected(err) {
		t.Fatalf("persistent faults: err = %v, want an injected failure", err)
	}
}

// BenchmarkCollectTracesParallel measures the job fan-out: the same
// trace collection at 1 worker and at the default worker count. The
// ratio of ns/op is the parallel speedup.
func BenchmarkCollectTracesParallel(b *testing.B) {
	p, err := trainedMD()
	if err != nil {
		b.Fatal(err)
	}
	jobs := md.Spec().TestJobs(9)[:60]
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"fanout", 0}, // GOMAXPROCS
	} {
		b.Run(cfg.name, func(b *testing.B) {
			SetWorkers(cfg.workers)
			defer SetWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.CollectTraces(jobs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(float64(Workers()), "workers")
		})
	}
}
