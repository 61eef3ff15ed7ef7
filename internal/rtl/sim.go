package rtl

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// Engine names a simulation execution strategy. Three engines share
// one cycle-accurate semantics (bit-exact values, cycle counts, toggle
// counters, memory contents — enforced by differential and fuzz tests
// against the interpreter):
//
//   - EngineNative executes pre-generated straight-line Go specialized
//     to one netlist (see native.go and internal/rtl/codegen): no
//     instruction dispatch at all. It is the default and the fastest
//     engine on every benchmark. Netlists without a registered
//     generated step fall back to the compiled engine (counted in
//     NativeFallbacks).
//   - EngineCompiled executes the flat specialized instruction stream
//     produced by Compile: the fallback for unregistered netlists, and
//     the escape hatch (REPRO_ENGINE=compiled, -engine compiled) when a
//     generated simulator is suspect.
//   - EngineInterp walks the Node table directly; the reference
//     implementation the other two are tested against.
type Engine string

const (
	EngineNative   Engine = "native"
	EngineCompiled Engine = "compiled"
	EngineInterp   Engine = "interp"
)

// ParseEngine validates an engine name ("" selects the native
// default), for threading CLI flags through to NewSim.
func ParseEngine(name string) (Engine, error) {
	switch Engine(name) {
	case "", EngineNative:
		return EngineNative, nil
	case EngineCompiled, EngineInterp:
		return Engine(name), nil
	}
	return "", fmt.Errorf("rtl: unknown engine %q (have interp, compiled, native)", name)
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

// SetDefaultEngine selects the engine NewSim (and therefore the whole
// train/trace/experiment stack) uses. It is how cmd/dvfsim and
// cmd/rtlsim thread their -engine flag through; the REPRO_ENGINE
// environment variable provides the initial value. Safe to call
// concurrently.
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

// Sim is a cycle-accurate simulator for a Module. It executes a
// pre-generated native step (see native.go), a compiled Program (see
// Compile), or — built by NewInterpSim — interprets the Node table
// directly, the reference engine for differential testing. One Sim
// instance can run many jobs back to back; Reset restores registers
// and clears scratchpads between jobs.
//
// Each Sim owns its value array and its writable memory backing, so
// independent Sims over the same Module never share mutable state:
// Clone is cheap (the compiled Program and ROM contents are shared,
// both immutable) and clones may run concurrently, which is what the
// parallel job fan-out in package core relies on.
//
// Evaluation model per cycle:
//  1. combinational nodes are evaluated in ID order (SSA guarantees
//     arguments are ready; OpReg nodes read latched state),
//  2. memory write ports with En != 0 commit,
//  3. registers latch their Next values,
//  4. activity (toggle) counters are updated for the energy model.
type Sim struct {
	m *Module
	// prog is the compiled program; nil selects the interpreter.
	prog *Program
	// vals holds the current cycle's node values.
	vals []uint64
	// prev holds the previous cycle's values for toggle counting.
	prev []uint64
	// mems is the per-Sim memory backing, index-aligned with m.Mems.
	// ROM entries alias the module's (immutable) contents; RAM entries
	// are private to this Sim.
	mems [][]uint64
	// masks caches per-node width masks for the interpreter path.
	masks []uint64
	// constIdx/constVal preload literal values at Reset.
	constIdx []int32
	constVal []uint64
	// toggles accumulates per-node value-change counts across a Run; a
	// proxy for switching activity used by the energy model.
	toggles []uint64
	// countToggles enables activity tracking (small slowdown).
	countToggles bool
	// latch is scratch space for the simultaneous register update.
	latch []uint64
	// cycles counts the cycles executed since the last Reset.
	cycles uint64
	// nat is a pre-generated specialized step function (see native.go);
	// when set it overrides prog. With neither set the Sim interprets.
	nat NativeStep
}

// ErrNoProgress is returned by Run when the cycle limit is reached
// before the module raises Done.
var ErrNoProgress = errors.New("rtl: cycle limit reached before done")

// NewSim prepares a simulator for the module using the default engine
// (see SetDefaultEngine), compiling it first when the engine calls for
// it. The module must be valid (Builder.Build validates; hand-built
// modules should call Validate) and must not be mutated while the Sim
// is live.
func NewSim(m *Module) *Sim {
	return NewSimEngine(m, DefaultEngine())
}

// NewSimEngine prepares a simulator with an explicit engine choice.
// EngineNative requires a generated step registered for the module's
// fingerprint (see RegisterNative); without one the caller gets a
// compiled Sim and NativeFallbacks increments.
func NewSimEngine(m *Module, e Engine) *Sim {
	switch e {
	case EngineInterp:
		return NewInterpSim(m)
	case EngineNative:
		if step, ok := NativeStepFor(m); ok {
			return NewNativeSim(m, step)
		}
		nativeFallbacks.Add(1)
		return Compile(m).NewSim()
	default:
		return Compile(m).NewSim()
	}
}

// NewSim instantiates a simulator executing this compiled program.
// Many Sims may share one Program.
func (p *Program) NewSim() *Sim {
	s := newSimState(p.m)
	s.prog = p
	s.Reset()
	return s
}

// NewInterpSim prepares a simulator that interprets the Node table
// directly instead of compiling it. Semantics are bit-identical to the
// compiled engine; it exists for differential testing and as a
// fallback while debugging the compiler.
func NewInterpSim(m *Module) *Sim {
	s := newSimState(m)
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
		prev:  make([]uint64, len(m.Nodes)),
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
// engine, in freshly Reset state. The compiled program, netlist, and
// ROM contents are shared (all immutable); values, registers, and
// writable memories are private, so clones may run concurrently.
func (s *Sim) Clone() *Sim {
	c := newSimState(s.m)
	c.prog = s.prog
	c.masks = s.masks
	c.nat = s.nat
	if s.countToggles {
		c.EnableActivity()
	}
	c.Reset()
	return c
}

// Engine reports which execution engine this simulator uses. A Sim
// built by NewSimEngine(m, EngineNative) reports EngineCompiled when it
// fell back, so silent fallback is detectable per simulator as well as
// through the NativeFallbacks counter.
func (s *Sim) Engine() Engine {
	switch {
	case s.nat != nil:
		return EngineNative
	case s.prog != nil:
		return EngineCompiled
	default:
		return EngineInterp
	}
}

// EnableActivity turns on per-node toggle counting for energy modeling.
func (s *Sim) EnableActivity() {
	s.countToggles = true
	if s.toggles == nil {
		s.toggles = make([]uint64, len(s.m.Nodes))
	}
}

// Toggles returns the per-node toggle counts accumulated since Reset.
// The slice is owned by the simulator; callers must not modify it.
func (s *Sim) Toggles() []uint64 { return s.toggles }

// Reset restores registers to their init values, zeroes non-ROM memory,
// clears inputs, the cycle counter, and activity counts.
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
	for i := range s.toggles {
		s.toggles[i] = 0
	}
	s.cycles = 0
	copy(s.prev, s.vals)
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
	idx := s.memIndex(name)
	if idx < 0 {
		return fmt.Errorf("rtl: module %s has no memory %q", s.m.Name, name)
	}
	mem := s.m.Mems[idx]
	if mem.ROM {
		return fmt.Errorf("rtl: memory %q is a ROM", name)
	}
	if len(data) > mem.Words {
		return fmt.Errorf("rtl: %d words exceed memory %q size %d", len(data), name, mem.Words)
	}
	dst := s.mems[idx]
	copy(dst, data)
	for i := len(data); i < mem.Words; i++ {
		dst[i] = 0
	}
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
		if s.countToggles {
			s.countActivity()
		}
		s.cycles++
		return done
	}
	if s.prog != nil {
		return s.stepCompiled()
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
	// Phase 4: activity accounting.
	if s.countToggles {
		s.countActivity()
	}
	s.cycles++
	return done
}

// countActivity updates toggle counters after a cycle's latch phase.
func (s *Sim) countActivity() {
	vals := s.vals
	prev := s.prev
	tg := s.toggles
	for i := range vals {
		if vals[i] != prev[i] {
			tg[i]++
			prev[i] = vals[i]
		}
	}
}

// Run steps the module until Done is raised, returning the number of
// cycles taken (inclusive of the done cycle). If maxCycles elapses
// first, it returns ErrNoProgress. A native Sim without activity
// counting runs the whole job in one call of its generated step.
func (s *Sim) Run(maxCycles uint64) (uint64, error) {
	start := s.cycles
	if s.nat != nil && !s.countToggles && maxCycles > 0 {
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
