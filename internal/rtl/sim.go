package rtl

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// Engine names a simulation execution strategy. The engines share one
// cycle-accurate semantics (bit-exact values, cycle counts, memory
// contents — enforced by differential and fuzz tests against the
// interpreter):
//
//   - EngineNative executes pre-generated straight-line Go specialized
//     to one netlist (see native.go and internal/rtl/codegen): no
//     instruction dispatch at all. It is the default and the fastest
//     engine on every benchmark. Netlists without a registered
//     generated step run on the fallback instead (counted in
//     NativeFallbacks): the codegen plan the generated code is emitted
//     from, executed directly, which such Sims report as EnginePlan.
//   - EngineInterp walks the Node table directly; the reference
//     implementation the others are tested against, and the escape
//     hatch (REPRO_ENGINE=interp, -engine interp) when a generated
//     simulator is suspect.
type Engine string

const (
	EngineNative Engine = "native"
	EngineInterp Engine = "interp"
	// EnginePlan is only reported, by Sims on the native fallback; it
	// is not a selectable engine.
	EnginePlan Engine = "plan"
)

// ParseEngine validates an engine name ("" selects the native
// default), for threading CLI flags through to NewSim.
func ParseEngine(name string) (Engine, error) {
	switch Engine(name) {
	case "", EngineNative:
		return EngineNative, nil
	case EngineInterp:
		return EngineInterp, nil
	}
	return "", fmt.Errorf("rtl: unknown engine %q (have native, interp)", name)
}

// defaultEngine holds the Engine NewSim selects; set by init from the
// REPRO_ENGINE environment variable and overridden by SetDefaultEngine.
var defaultEngine atomic.Value

func init() {
	e, err := ParseEngine(os.Getenv("REPRO_ENGINE"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtl: ignoring REPRO_ENGINE: %v\n", err)
		e = EngineNative
	}
	defaultEngine.Store(e)
}

// SetDefaultEngine validates an engine name (see ParseEngine) and
// selects it as the engine NewSim (and therefore the whole
// train/trace/experiment stack) uses. It is how the commands thread
// their -engine flag through; the REPRO_ENGINE environment variable
// provides the initial value. Safe to call concurrently.
func SetDefaultEngine(e Engine) error {
	parsed, err := ParseEngine(string(e))
	if err != nil {
		return err
	}
	defaultEngine.Store(parsed)
	return nil
}

// DefaultEngine returns the engine NewSim currently selects.
func DefaultEngine() Engine {
	return defaultEngine.Load().(Engine)
}

// Sim is a cycle-accurate simulator for a Module. It executes a step
// function — a pre-generated native one (see native.go) or the
// fallback's — or, built by NewInterpSim, interprets the Node table
// directly, the reference engine for differential testing. One Sim
// instance can run many jobs back to back; Reset restores registers
// and clears scratchpads between jobs.
//
// Each Sim owns its value array and its writable memory backing, so
// independent Sims over the same Module never share mutable state:
// Clone is cheap (the step function and ROM contents are shared, both
// immutable) and clones may run concurrently, which is what the
// parallel job fan-out in package core relies on.
//
// Evaluation model per cycle:
//  1. combinational nodes are evaluated in ID order (SSA guarantees
//     arguments are ready; OpReg nodes read latched state),
//  2. memory write ports with En != 0 commit,
//  3. registers latch their Next values.
type Sim struct {
	m *Module
	// vals holds the current cycle's node values.
	vals []uint64
	// mems is the per-Sim memory backing, index-aligned with m.Mems.
	// ROM entries alias the module's (immutable) contents; RAM entries
	// are private to this Sim.
	mems [][]uint64
	// masks caches per-node width masks for the interpreter path.
	masks []uint64
	// constIdx/constVal preload literal values at Reset.
	constIdx []int32
	constVal []uint64
	// latch is scratch space for the simultaneous register update.
	latch []uint64
	// cycles counts the cycles executed since the last Reset.
	cycles uint64
	// nat is the step function (see native.go); nil selects the
	// interpreter.
	nat NativeStep
	// engine is what Engine reports.
	engine Engine
}

// ErrNoProgress is returned by Run when the cycle limit is reached
// before the module raises Done.
var ErrNoProgress = errors.New("rtl: cycle limit reached before done")

// NewSim prepares a simulator for the module using the default engine
// (see SetDefaultEngine). The module must be valid (Builder.Build
// validates; hand-built modules should call Validate) and must not be
// mutated while the Sim is live.
func NewSim(m *Module) *Sim {
	return NewSimEngine(m, DefaultEngine())
}

// NewSimEngine prepares a simulator with an explicit engine choice.
// EngineNative uses the generated step registered for the module's
// fingerprint (see RegisterNative); without one NativeFallbacks
// increments and the caller gets the fallback (see SetNativeFallback),
// or the interpreter in a binary where none was installed.
func NewSimEngine(m *Module, e Engine) *Sim {
	if e == EngineInterp {
		return NewInterpSim(m)
	}
	if step, ok := NativeStepFor(m); ok {
		return NewNativeSim(m, step)
	}
	nativeFallbacks.Add(1)
	if nativeFallback == nil {
		return NewInterpSim(m)
	}
	s := NewNativeSim(m, nativeFallback(m))
	s.engine = EnginePlan
	return s
}

// NewInterpSim prepares a simulator that interprets the Node table
// directly: the reference the other engines are tested against.
func NewInterpSim(m *Module) *Sim {
	s := newSimState(m)
	s.engine = EngineInterp
	s.masks = make([]uint64, len(m.Nodes))
	for i := range m.Nodes {
		s.masks[i] = m.Nodes[i].Mask()
	}
	s.Reset()
	return s
}

// newSimState allocates the engine-independent simulation state.
func newSimState(m *Module) *Sim {
	s := &Sim{
		m:     m,
		vals:  make([]uint64, len(m.Nodes)),
		latch: make([]uint64, len(m.Regs)),
		mems:  make([][]uint64, len(m.Mems)),
	}
	for i := range m.Nodes {
		if n := &m.Nodes[i]; n.Op == OpConst {
			s.constIdx = append(s.constIdx, int32(i))
			s.constVal = append(s.constVal, n.Const&n.Mask())
		}
	}
	for i, mem := range m.Mems {
		if mem.ROM {
			data := mem.Data
			if len(data) < mem.Words {
				padded := make([]uint64, mem.Words)
				copy(padded, data)
				data = padded
			}
			s.mems[i] = data
		} else {
			s.mems[i] = make([]uint64, mem.Words)
		}
	}
	return s
}

// Clone returns an independent simulator over the same module and
// engine, in freshly Reset state. The step function (with any plan it
// runs), netlist, and ROM contents are shared (all immutable); values,
// registers, and writable memories are private, so clones may run
// concurrently.
func (s *Sim) Clone() *Sim {
	c := newSimState(s.m)
	c.masks = s.masks
	c.nat = s.nat
	c.engine = s.engine
	c.Reset()
	return c
}

// Engine reports which execution engine this simulator uses. A Sim
// built by NewSimEngine(m, EngineNative) reports EnginePlan (or
// EngineInterp) when it fell back, so silent fallback is detectable
// per simulator as well as through the NativeFallbacks counter.
func (s *Sim) Engine() Engine { return s.engine }

// Reset restores registers to their init values, zeroes non-ROM memory,
// clears inputs and the cycle counter.
func (s *Sim) Reset() {
	for i := range s.vals {
		s.vals[i] = 0
	}
	for k, idx := range s.constIdx {
		s.vals[idx] = s.constVal[k]
	}
	for i := range s.m.Regs {
		r := &s.m.Regs[i]
		s.vals[r.Node] = r.Init
	}
	for i, mem := range s.m.Mems {
		if mem.ROM {
			continue
		}
		data := s.mems[i]
		for j := range data {
			data[j] = 0
		}
	}
	s.cycles = 0
}

// SetInput drives an input port for subsequent cycles. The value is
// written straight into the value array (no per-cycle lookup), so it
// is also visible to Value immediately.
func (s *Sim) SetInput(id NodeID, v uint64) {
	if s.m.Nodes[id].Op != OpInput {
		panic(fmt.Sprintf("rtl: SetInput on non-input node %d", id))
	}
	s.vals[id] = v & s.m.Nodes[id].Mask()
}

// memIndex returns the index of the named memory, or -1.
func (s *Sim) memIndex(name string) int {
	for i, mem := range s.m.Mems {
		if mem.Name == name {
			return i
		}
	}
	return -1
}

// LoadMem fills a named scratchpad with job input data (the DMA transfer
// of the paper's system model). Excess words are zero.
func (s *Sim) LoadMem(name string, data []uint64) error {
	if err := s.m.CheckLoad(name, len(data)); err != nil {
		return err
	}
	dst := s.mems[s.memIndex(name)]
	copy(dst, data)
	clear(dst[len(data):])
	return nil
}

// Mem returns the named memory's current contents (aliased, not
// copied). The contents are private to this Sim except for ROMs.
func (s *Sim) Mem(name string) []uint64 {
	idx := s.memIndex(name)
	if idx < 0 {
		return nil
	}
	return s.mems[idx]
}

// Value returns the value computed for a node in the last executed
// cycle (for OpReg nodes, the current latched state).
func (s *Sim) Value(id NodeID) uint64 { return s.vals[id] }

// Cycles returns the number of cycles executed since Reset.
func (s *Sim) Cycles() uint64 { return s.cycles }

// Step executes one cycle and reports whether Done was high.
func (s *Sim) Step() bool {
	if s.nat != nil {
		_, done := s.nat(s.vals, s.mems, 1)
		s.cycles++
		return done
	}
	return s.stepInterp()
}

// stepInterp is the reference interpreter. Constants are preloaded and
// inputs written directly by SetInput, so both are skipped here; width
// masks come from the precomputed table instead of per-node
// recomputation.
func (s *Sim) stepInterp() bool {
	m := s.m
	vals := s.vals
	masks := s.masks
	// Phase 1: combinational evaluation in SSA order.
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Op {
		case OpConst, OpReg, OpInput:
			// Constants preloaded; registers hold latched state; inputs
			// are written by SetInput.
			continue
		case OpMemRead:
			data := s.mems[n.Mem]
			if addr := vals[n.Args[0]]; addr < uint64(len(data)) {
				vals[i] = data[addr] & masks[i]
			} else {
				vals[i] = 0
			}
		case OpMux:
			if vals[n.Args[0]] != 0 {
				vals[i] = vals[n.Args[1]] & masks[i]
			} else {
				vals[i] = vals[n.Args[2]] & masks[i]
			}
		case OpAdd:
			vals[i] = (vals[n.Args[0]] + vals[n.Args[1]]) & masks[i]
		case OpSub:
			vals[i] = (vals[n.Args[0]] - vals[n.Args[1]]) & masks[i]
		case OpMul:
			vals[i] = (vals[n.Args[0]] * vals[n.Args[1]]) & masks[i]
		case OpAnd:
			vals[i] = vals[n.Args[0]] & vals[n.Args[1]] & masks[i]
		case OpOr:
			vals[i] = (vals[n.Args[0]] | vals[n.Args[1]]) & masks[i]
		case OpXor:
			vals[i] = (vals[n.Args[0]] ^ vals[n.Args[1]]) & masks[i]
		case OpNot:
			vals[i] = ^vals[n.Args[0]] & masks[i]
		case OpShl:
			if sh := vals[n.Args[1]]; sh < 64 {
				vals[i] = (vals[n.Args[0]] << sh) & masks[i]
			} else {
				vals[i] = 0
			}
		case OpShr:
			if sh := vals[n.Args[1]]; sh < 64 {
				vals[i] = (vals[n.Args[0]] >> sh) & masks[i]
			} else {
				vals[i] = 0
			}
		case OpEq:
			if vals[n.Args[0]] == vals[n.Args[1]] {
				vals[i] = 1
			} else {
				vals[i] = 0
			}
		case OpNe:
			if vals[n.Args[0]] != vals[n.Args[1]] {
				vals[i] = 1
			} else {
				vals[i] = 0
			}
		case OpLt:
			if vals[n.Args[0]] < vals[n.Args[1]] {
				vals[i] = 1
			} else {
				vals[i] = 0
			}
		case OpLe:
			if vals[n.Args[0]] <= vals[n.Args[1]] {
				vals[i] = 1
			} else {
				vals[i] = 0
			}
		}
	}
	done := vals[m.Done] != 0
	// Phase 2: memory writes commit.
	for i := range m.Writes {
		w := &m.Writes[i]
		if vals[w.En] != 0 {
			data := s.mems[w.Mem]
			if addr := vals[w.Addr]; addr < uint64(len(data)) {
				data[addr] = vals[w.Data]
			}
		}
	}
	// Phase 3: registers latch simultaneously. Next values are read into
	// a scratch slice first so a register whose Next aliases another
	// register's node observes the pre-latch value.
	latch := s.latch
	for i := range m.Regs {
		r := &m.Regs[i]
		latch[i] = vals[r.Next] & masks[r.Node]
	}
	for i := range m.Regs {
		vals[m.Regs[i].Node] = latch[i]
	}
	s.cycles++
	return done
}

// Run steps the module until Done is raised, returning the number of
// cycles taken (inclusive of the done cycle). If maxCycles elapses
// first, it returns ErrNoProgress. A Sim with a step function runs the
// whole job in one call of it.
func (s *Sim) Run(maxCycles uint64) (uint64, error) {
	start := s.cycles
	if s.nat != nil && maxCycles > 0 {
		n, done := s.nat(s.vals, s.mems, maxCycles)
		s.cycles += n
		if done {
			return n, nil
		}
	}
	for s.cycles-start < maxCycles {
		if s.Step() {
			return s.cycles - start, nil
		}
	}
	return s.cycles - start, fmt.Errorf("%w (module %s, limit %d)", ErrNoProgress, s.m.Name, maxCycles)
}

// RegValue returns the latched value of register index i.
func (s *Sim) RegValue(i int) uint64 { return s.vals[s.m.Regs[i].Node] }
