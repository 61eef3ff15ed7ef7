package serve

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardStressConcurrent hammers one shard from many producers while
// stats and metrics readers poll continuously — the test the race
// detector runs against the lock-free counters, the depth gauge, and
// the histogram. Accounting must balance exactly when the dust settles:
// every submission is done, never lost or double counted.
func TestShardStressConcurrent(t *testing.T) {
	cfg := testShardConfig("stress")
	cfg.QueueDepth = 256
	sh, err := NewShard(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	traces := synthTraces([]float64{1, 3, 5, 8, 12, 15})

	const producers = 8
	perProducer := 300
	if testing.Short() {
		perProducer = 50
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := sh.Stats()
					if st.QueueDepth < 0 {
						panic("negative queue depth")
					}
					_ = st.LatencyP99
				}
			}
		}()
	}

	var submitted atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				// Arrivals are per-producer nondecreasing; interleaving
				// across producers exercises the arrival < clock path.
				j := Job{
					Arrival: float64(k) * 1e-3,
					Trace:   &traces[(p+k)%len(traces)],
				}
				sh.SubmitWait(j)
				submitted.Add(1)
			}
		}(p)
	}
	wg.Wait()
	sh.Close()
	close(stop)
	readers.Wait()

	st := sh.Stats()
	total := uint64(producers * perProducer)
	if st.Done != total || submitted.Load() != total {
		t.Fatalf("done %d of %d submitted (%d expected)", st.Done, submitted.Load(), total)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after close", st.QueueDepth)
	}
	if st.Errors != 0 {
		t.Fatalf("%d job errors", st.Errors)
	}
	if got := st.Misses; got < st.ServingMisses {
		t.Fatalf("serving misses %d exceed total misses %d", st.ServingMisses, got)
	}
	if st.LatencyP99 <= 0 || st.LatencyMean <= 0 {
		t.Fatal("latency histogram recorded nothing")
	}
}
