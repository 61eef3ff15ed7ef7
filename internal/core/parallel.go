package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Job-level parallelism. RTL simulation of independent jobs is
// embarrassingly parallel: each worker goroutine owns private Sim
// clones (the step function and netlist are shared read-only), and
// every result is written into an index-addressed slot, so the output —
// including every float — is byte-identical to a serial run regardless
// of worker count or scheduling.

// workerCount holds the configured fan-out; <= 0 means GOMAXPROCS.
var workerCount atomic.Int32

// SetWorkers configures the number of parallel job-simulation workers
// used by Train and CollectTraces. n <= 0 restores the default
// (GOMAXPROCS). Safe to call concurrently.
func SetWorkers(n int) { workerCount.Store(int32(n)) }

// Workers returns the effective worker count.
func Workers() int {
	if n := int(workerCount.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// runParallel invokes run(state, i, attempt) for every i in [0, n),
// fanning out across min(Workers(), n) goroutines. newState builds
// per-goroutine state (Sim clones) once per worker. Jobs are handed out
// through an atomic counter for load balance; determinism is the
// caller's responsibility and is achieved by writing results only to
// slot i. The first error in job-index order is returned.
//
// A job that fails is retried exactly once on a freshly built state
// (attempt 1): a failure may have left the worker's simulator clone
// mid-job, so the retry must not trust it — and neither may the jobs
// that follow, so the worker keeps the fresh clone either way. Only a
// job that fails twice fails the batch.
func runParallel[S any](n int, newState func() S, run func(state S, i, attempt int) error) error {
	if n == 0 {
		return nil
	}
	retry := func(i int) (S, error) {
		state := newState()
		retriedJobs.Add(1)
		return state, run(state, i, 1)
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		state := newState()
		for i := 0; i < n; i++ {
			if err := run(state, i, 0); err != nil {
				var rerr error
				if state, rerr = retry(i); rerr != nil {
					return rerr
				}
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(state, i, 0); err != nil {
					state, errs[i] = retry(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
