package core

import (
	"sync/atomic"

	"repro/internal/fault"
)

// Fault-injection wiring for the offline train/collect fan-out: the
// injector is installed once by the experiment driver and read
// lock-free by every worker goroutine. Injection happens only in the Train and
// CollectTraces job closures — never inside JobSimulator, which also
// backs the online serving shards (those carry their own injector).
const (
	// FaultJob fails one job of the Train/CollectTraces fan-out. Keys are
	// "train/<spec>/<index>" and "traces/<spec>/<index>".
	FaultJob = "core.job"
)

var faultInjector atomic.Pointer[fault.Injector]

// SetFaultInjector installs (or, with nil, removes) the process-global
// fault injector consulted by the Train/CollectTraces fan-out.
func SetFaultInjector(in *fault.Injector) { faultInjector.Store(in) }

// FaultInjector returns the installed injector; nil (never inject) when
// none is installed.
func FaultInjector() *fault.Injector { return faultInjector.Load() }

// retriedJobs counts fan-out jobs that failed once and were retried on
// a fresh simulator clone.
var retriedJobs atomic.Uint64

// RetriedJobs returns the number of fan-out jobs that needed a retry on
// a fresh clone (injected or organic first-attempt failures).
func RetriedJobs() uint64 { return retriedJobs.Load() }
