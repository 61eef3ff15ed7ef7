package rtl

import (
	"sort"
	"sync"
	"sync/atomic"
)

// native.go is the runtime half of the codegen execution engine: a
// process-wide registry mapping netlist fingerprints to pre-generated,
// specialized step functions. The generation half lives in
// internal/rtl/codegen (the translator) and internal/rtl/native (the
// checked-in generated code for the benchmark suite, produced by
// cmd/rtlgen via go:generate).
//
// A NativeStep runs one specific netlist compiled to straight-line Go:
// no instruction dispatch, constants folded into the code, masks baked
// in, FSM-state-specialized basic blocks, registers held in locals
// across cycles, and per state only the logic that state's next state,
// memory writes and done test need. Node values are stored only on the
// cycle it returns, so Value, RegValue, VCD dumps, and the
// differential tests observe state bit-identical to the interpreter
// after every Step and every Run, but not between the cycles inside
// one Run.
//
// Registration is keyed on Fingerprint(m): two modules with equal
// fingerprints simulate identically, so a step generated from one is
// valid for the other. Netlists without a registered step (random fuzz
// modules, testdesigns, user Verilog, freshly edited benchmarks before
// regeneration) transparently run on the fallback step, built per
// netlist by the function SetNativeFallback installed: package native
// installs the codegen plan's evaluator, the same lowering the
// generated code is emitted from. The fallback is observable through
// NativeFallbacks so a silently stale registry cannot masquerade as a
// codegen win.

// NativeStep runs cycles of a specific netlist until one raises Done or
// limit cycles have run (a limit below 1 acts as 1), and returns how
// many cycles ran and whether the last one raised Done. Each cycle
// follows the same three-phase contract as Sim.Step: combinational
// evaluation in SSA order, memory-write commit, simultaneous register
// latch. On return, every node's value in vals and every memory word
// must equal what the interpreter holds after the same cycles; in
// between, vals need not be maintained. Sim.Run makes one call per
// job; Sim.Step calls with limit 1.
//
// A NativeStep must be pure over (vals, mems): implementations hold no
// mutable captured state, so one step function is shared by any number
// of concurrently running Sim clones.
type NativeStep func(vals []uint64, mems [][]uint64, limit uint64) (cycles uint64, done bool)

// nativeEntry is one registered generated simulator.
type nativeEntry struct {
	name string
	step NativeStep
}

var (
	nativeMu  sync.RWMutex
	nativeReg = map[string]nativeEntry{}
	// nativeFallbacks counts NewSimEngine(native) calls that found no
	// registered step and fell back.
	nativeFallbacks atomic.Uint64
	// nativeFallback builds the step for a netlist without a registered
	// one; nil falls back to the interpreter.
	nativeFallback func(*Module) NativeStep
)

// SetNativeFallback installs the builder of the step a native request
// runs when no generated step is registered for its netlist. It is not
// synchronized: package native calls it from init, before any Sim is
// built.
func SetNativeFallback(build func(*Module) NativeStep) { nativeFallback = build }

// RegisterNative binds a generated step function to a netlist
// fingerprint (see Fingerprint). Generated code calls it from init;
// name labels the entry for diagnostics. A later registration for the
// same fingerprint wins, which is harmless because equal fingerprints
// imply identical simulation semantics.
func RegisterNative(fingerprint, name string, step NativeStep) {
	if step == nil {
		panic("rtl: RegisterNative with nil step")
	}
	nativeMu.Lock()
	nativeReg[fingerprint] = nativeEntry{name: name, step: step}
	nativeMu.Unlock()
}

// NativeStepFor returns the registered generated step for the module's
// fingerprint, if any.
func NativeStepFor(m *Module) (NativeStep, bool) {
	nativeMu.RLock()
	e, ok := nativeReg[Fingerprint(m)]
	nativeMu.RUnlock()
	return e.step, ok
}

// NativeNames returns the names of all registered generated
// simulators, sorted (for tests and diagnostics).
func NativeNames() []string {
	nativeMu.RLock()
	names := make([]string, 0, len(nativeReg))
	for _, e := range nativeReg { //detlint:allow sorted immediately below
		names = append(names, e.name)
	}
	nativeMu.RUnlock()
	sort.Strings(names)
	return names
}

// NativeFallbacks reports how many native-engine simulator requests
// fell back because no generated step was registered for the netlist.
// Monotone; safe to read concurrently.
func NativeFallbacks() uint64 { return nativeFallbacks.Load() }

// NewNativeSim prepares a simulator that executes the given generated
// step function for the module. The step must have been generated from
// a module with the same fingerprint; NewSimEngine does the lookup,
// this constructor exists for the codegen package's own differential
// tests (which pair arbitrary modules with freshly built plans).
func NewNativeSim(m *Module, step NativeStep) *Sim {
	if step == nil {
		panic("rtl: NewNativeSim with nil step")
	}
	s := newSimState(m)
	s.nat = step
	s.engine = EngineNative
	s.Reset()
	return s
}
