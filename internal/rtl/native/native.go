// Package native holds the pre-generated (checked-in) native
// simulators for the benchmark suite: one specialized Go function per
// distinct netlist shape the production flows build — timing cones (of
// designs not certified for closed-form ground truth), all-witness
// slices, and trained predictor slices (including the ones
// a quick exp.Lab trains) — that runs a whole job per call (see
// rtl.NativeStep). The gen_*.go files are produced by cmd/rtlgen
// from internal/rtl/codegen plans and register themselves with the rtl
// engine registry at init, so importing this package (internal/core
// does, blank) is all it takes for rtl.NewSimEngine(rtl.EngineNative)
// to resolve them.
//
// Netlists without a registered step — other shapes of a benchmark
// (its raw or instrumented design), random fuzz modules, testdesigns,
// user Verilog, benchmarks edited since the last regeneration — run
// on the fallback this package installs: the FSM-specialized codegen
// plan, executed directly. rtl.NativeFallbacks
// counts those so a stale registry is observable, and CI's drift gate
// (go generate ./... && git diff --exit-code) keeps the checked-in
// code current.
package native

import (
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
)

//go:generate go run repro/cmd/rtlgen -out .

func init() {
	rtl.SetNativeFallback(func(m *rtl.Module) rtl.NativeStep { return codegen.Build(m).Step })
}
