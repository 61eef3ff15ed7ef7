// Package instrument rewrites a netlist so that it records the paper's
// four feature families during execution (§3.2–§3.3):
//
//   - STC — state-transition count, one witness per recovered FSM
//     (source, destination) pair with source != destination,
//   - IC  — initialization count, one per recovered counter,
//   - AIV — accumulated initial value, one per recovered counter
//     (the sum of loaded values; the prediction model absorbs the
//     sum-vs-average scaling, as noted in §3.3),
//   - APV — accumulated pre-reset value, one per recovered counter
//     (the sum of the counter's value at each re-initialization).
//
// Each feature is a new witness register appended to the module; the
// original logic is untouched, so instrumented and uninstrumented
// executions are cycle-identical. After a job completes, ReadFeatures
// extracts the witness values.
package instrument

import (
	"fmt"

	"repro/internal/analyze"
	"repro/internal/rtl"
)

// Kind enumerates the feature families.
type Kind uint8

// Feature kinds, in the paper's Table 1 order.
const (
	STC Kind = iota
	IC
	AIV
	APV
)

// String returns the paper's abbreviation for the kind.
func (k Kind) String() string {
	switch k {
	case STC:
		return "STC"
	case IC:
		return "IC"
	case AIV:
		return "AIV"
	case APV:
		return "APV"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Feature describes one instrumented feature and its witness register.
type Feature struct {
	// Kind is the feature family.
	Kind Kind
	// Name is a stable human-readable identifier, e.g. "stc:ctrl:1->2"
	// or "aiv:preload_cnt".
	Name string
	// Witness indexes Module.Regs for the added witness register.
	Witness int
	// WitnessNode is the witness register's OpReg node.
	WitnessNode rtl.NodeID
	// FSM / From / To identify STC features (FSM indexes Analysis.FSMs).
	FSM      int
	From, To uint64
	// Counter indexes Analysis.Counters for IC/AIV/APV features.
	Counter int
}

// Instrumented couples a module with its feature catalog.
type Instrumented struct {
	M        *rtl.Module
	Analysis *analyze.Analysis
	Features []Feature
}

// witnessWidth is the width of witness registers: wide enough that
// accumulated tick values never wrap for any realistic job (per-job
// sums stay well under 2^24 ticks), narrow enough that the witnesses
// are cheap hardware, as the paper's area results require.
const witnessWidth = 24

// Instrument analyzes the module and appends feature witnesses. The
// module is modified in place and re-validated.
func Instrument(m *rtl.Module) (*Instrumented, error) {
	a := analyze.Analyze(m)
	return WithAnalysis(m, a)
}

// WithAnalysis appends feature witnesses using an existing analysis.
func WithAnalysis(m *rtl.Module, a *analyze.Analysis) (*Instrumented, error) {
	b := rtl.Extend(m)
	ins := &Instrumented{M: m, Analysis: a}

	// STC witnesses: increment when (state == from) && (next == to).
	for fi := range a.FSMs {
		f := &a.FSMs[fi]
		state := b.Wrap(f.StateNode)
		next := b.Wrap(f.NextNode)
		w := m.Nodes[f.StateNode].Width
		for _, tr := range f.Transitions {
			if tr.From == tr.To {
				continue // self-loops excluded; wait time is captured by AIV/APV
			}
			cond := state.Eq(b.Const(tr.From, w)).And(next.Eq(b.Const(tr.To, w)))
			name := fmt.Sprintf("stc:%s:%d->%d", f.Name, tr.From, tr.To)
			reg := b.Accum("w_"+name, witnessWidth, cond, b.Const(1, witnessWidth))
			ins.Features = append(ins.Features, Feature{
				Kind: STC, Name: name,
				Witness: regIndexOf(m, reg), WitnessNode: reg.ID(),
				FSM: fi, From: tr.From, To: tr.To, Counter: -1,
			})
		}
	}

	// Counter witnesses.
	for ci := range a.Counters {
		c := &a.Counters[ci]
		if len(c.Loads) == 0 {
			continue // free-running counter (e.g. an address stepper): no features
		}
		loadAny := pathCond(b, c.Loads[0].Cond)
		for _, ld := range c.Loads[1:] {
			loadAny = loadAny.Or(pathCond(b, ld.Cond))
		}

		icName := fmt.Sprintf("ic:%s", c.Name)
		icReg := b.Accum("w_"+icName, witnessWidth, loadAny, b.Const(1, witnessWidth))
		ins.Features = append(ins.Features, Feature{
			Kind: IC, Name: icName,
			Witness: regIndexOf(m, icReg), WitnessNode: icReg.ID(),
			FSM: -1, Counter: ci,
		})

		// AIV: per load arm, accumulate the loaded value under its own
		// path condition (arms are mutually exclusive mux paths).
		aivName := fmt.Sprintf("aiv:%s", c.Name)
		aivReg := b.Reg("w_"+aivName, witnessWidth, 0)
		acc := aivReg.Signal
		for _, ld := range c.Loads {
			cond := pathCond(b, ld.Cond)
			acc = cond.Mux(aivReg.AddW(b.Wrap(ld.Value), witnessWidth), acc)
		}
		b.SetNext(aivReg, acc)
		ins.Features = append(ins.Features, Feature{
			Kind: AIV, Name: aivName,
			Witness: regIndexOf(m, aivReg), WitnessNode: aivReg.ID(),
			FSM: -1, Counter: ci,
		})

		// APV: accumulate the counter's pre-reset value at each load.
		apvName := fmt.Sprintf("apv:%s", c.Name)
		apvReg := b.Accum("w_"+apvName, witnessWidth, loadAny, b.Wrap(c.Node))
		ins.Features = append(ins.Features, Feature{
			Kind: APV, Name: apvName,
			Witness: regIndexOf(m, apvReg), WitnessNode: apvReg.ID(),
			FSM: -1, Counter: ci,
		})
	}

	if _, err := b.Build(); err != nil {
		return nil, fmt.Errorf("instrument: %w", err)
	}
	return ins, nil
}

// pathCond lowers a mux path condition to a 1-bit conjunction signal.
func pathCond(b *rtl.Builder, path []analyze.PathSel) rtl.Signal {
	if len(path) == 0 {
		return b.Const(1, 1)
	}
	var cond rtl.Signal
	for i, ps := range path {
		s := b.Wrap(ps.Node)
		if s.Width() != 1 {
			s = s.NonZero()
		}
		if ps.Neg {
			s = s.Not()
		}
		if i == 0 {
			cond = s
		} else {
			cond = cond.And(s)
		}
	}
	return cond
}

// regIndexOf finds the Regs index for a freshly added register.
func regIndexOf(m *rtl.Module, r rtl.RegSignal) int {
	for i := len(m.Regs) - 1; i >= 0; i-- {
		if m.Regs[i].Node == r.ID() {
			return i
		}
	}
	panic("instrument: witness register not found")
}

// ReadFeatures extracts the witness values from a simulator after a job
// has run, in catalog order.
func (ins *Instrumented) ReadFeatures(s *rtl.Sim) []float64 {
	out := make([]float64, len(ins.Features))
	for i, f := range ins.Features {
		out[i] = float64(s.RegValue(f.Witness))
	}
	return out
}

// Names returns the feature names in catalog order.
func (ins *Instrumented) Names() []string {
	names := make([]string, len(ins.Features))
	for i, f := range ins.Features {
		names[i] = f.Name
	}
	return names
}
