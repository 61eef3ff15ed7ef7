package verilog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rtl"
)

// Warning is a non-fatal finding from elaboration: a wire that is
// declared but never driven (and never read — a driven-and-read wire
// missing its driver is a hard error), or a driven wire nothing reads.
// Package lint converts these into diagnostics so `rtlcheck` surfaces
// them alongside netlist-level rules.
type Warning struct {
	// Module is the module the signal is declared in; Name carries the
	// flattened (instance-prefixed) signal name.
	Module string
	Name   string
	// File and Line locate the declaration ("" when the source had no
	// recorded file name).
	File string
	Line int
	// Kind is "undriven-wire" or "unused-wire".
	Kind string
	Msg  string
}

func (w Warning) String() string {
	loc := fmt.Sprintf("line %d", w.Line)
	if w.File != "" {
		loc = fmt.Sprintf("%s:%d", w.File, w.Line)
	}
	return fmt.Sprintf("%s: %s: %s", w.Module, loc, w.Msg)
}

// ParseAndElaborate is the one-call frontend: it parses src and lowers
// it to an rtl.Module. Sources with several modules are elaborated
// hierarchically: the *last* module is the top (the common Verilog file
// convention of leaves-first), instances are flattened into one netlist
// with dotted name prefixes, exactly as a synthesis tool's flatten pass
// would. Within a module:
//
//   - input ports become rtl inputs (the clock is identified from the
//     always blocks and not materialized — the rtl simulator is
//     implicitly clocked),
//   - wires and assigns become combinational expressions, elaborated in
//     dependency order,
//   - plain regs become rtl registers; array regs become memories,
//   - each always @(posedge clk) block is symbolically executed into
//     per-register next-value mux trees and memory write ports —
//     non-blocking semantics, last assignment wins, if/else and case
//     compose path conditions,
//   - the output port named "done" becomes the module's done signal.
//
// Expressions are unsigned and sized as IEEE 1364-2005 §5.4 sizes
// them: + - * & | ^ ~, unary minus, ?: and a shift's left operand
// compute at the wider of their own width and their context's (an
// assignment's target, an instance port, or an enclosing such
// operator); a comparison widens both operands to the wider of the
// two, and a case its subject and labels to the widest of them;
// logical operators, reductions, concatenation parts, selects, indices
// and shift amounts are self-determined. Unsized literals take their
// minimal width rather than 32 bits.
func ParseAndElaborate(src string) (*rtl.Module, error) {
	mods, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	m, _, err := ElaborateHierarchyWarn(mods, mods[len(mods)-1].Name)
	return m, err
}

// ElaborateHierarchyWarn elaborates the named top module against a
// library of modules, inlining every instance as ParseAndElaborate
// does, and also returns the non-fatal warnings (undriven or unused
// wires) collected across the whole hierarchy, in deterministic order.
func ElaborateHierarchyWarn(mods []*Module, top string) (*rtl.Module, []Warning, error) {
	lib := map[string]*Module{}
	for _, m := range mods {
		if _, dup := lib[m.Name]; dup {
			return nil, nil, fmt.Errorf("verilog: module %s defined twice", m.Name)
		}
		lib[m.Name] = m
	}
	ast, ok := lib[top]
	if !ok {
		return nil, nil, fmt.Errorf("verilog: top module %s not found", top)
	}
	var warns []Warning
	e := newElaborator(ast, rtl.NewBuilder(ast.Name), lib, "", true, nil)
	e.warns = &warns
	if err := e.run(); err != nil {
		return nil, nil, err
	}
	m, err := e.b.Build()
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(warns, func(i, j int) bool {
		a, b := warns[i], warns[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Name < b.Name
	})
	return m, warns, nil
}

type wireDef struct {
	expr  Expr
	width uint8
	sig   rtl.Signal
	done  bool
	busy  bool // cycle detection
	line  int
	// inst drives this wire when it is connected to an instance output.
	inst *instanceState
	// instPort is the child port driving the wire.
	instPort string
}

type memDef struct {
	mem   *rtl.Mem
	width uint8
}

// instanceState tracks one instantiation's elaboration.
type instanceState struct {
	ast  *Module
	inst *Instance
	// inputs maps child input ports to parent-context expressions.
	inputs map[string]Expr
	// clockPorts are child inputs fed by the parent's clock.
	clockPorts map[string]bool
	// outputs holds the child's elaborated output signals.
	outputs map[string]rtl.Signal
	done    bool
	busy    bool
}

type elaborator struct {
	ast    *Module
	b      *rtl.Builder
	lib    map[string]*Module
	prefix string
	isTop  bool
	// preBound supplies signals for input ports when this elaborator is
	// an inlined child (the parent lowered the connection expressions).
	preBound map[string]rtl.Signal
	// stack guards against recursive instantiation.
	stack []string

	wires     map[string]*wireDef
	regs      map[string]rtl.RegSignal
	mems      map[string]*memDef
	params    map[string]uint64
	inputs    map[string]rtl.Signal
	widths    map[string]uint8
	instances []*instanceState
	clock     string
	// skipClock marks this (child) module's input ports that the parent
	// fed with its clock; clockNames collects every name known to carry
	// the clock so it can be recognized in further instantiations.
	skipClock  map[string]bool
	clockNames map[string]bool
	// warns collects non-fatal findings; shared with child elaborators
	// so one flattening pass yields the hierarchy's full warning list.
	warns *[]Warning
}

// isClockName reports whether a referenced identifier is the module's
// clock (directly or via a clock-fed port).
func (e *elaborator) isClockName(name string) bool {
	return name == e.clock || e.clockNames[name]
}

func newElaborator(ast *Module, b *rtl.Builder, lib map[string]*Module,
	prefix string, isTop bool, stack []string) *elaborator {
	return &elaborator{
		ast:        ast,
		b:          b,
		lib:        lib,
		prefix:     prefix,
		isTop:      isTop,
		stack:      append(stack, ast.Name),
		wires:      map[string]*wireDef{},
		regs:       map[string]rtl.RegSignal{},
		mems:       map[string]*memDef{},
		params:     map[string]uint64{},
		inputs:     map[string]rtl.Signal{},
		widths:     map[string]uint8{},
		clockNames: map[string]bool{},
	}
}

// run performs the full elaboration sequence for this module.
func (e *elaborator) run() error {
	if err := e.declare(); err != nil {
		return err
	}
	if err := e.checkUndriven(); err != nil {
		return err
	}
	if err := e.lowerAlways(); err != nil {
		return err
	}
	if err := e.bindOutputs(); err != nil {
		return err
	}
	e.reportUnused()
	return nil
}

// warn records a non-fatal finding, filling in module identity.
func (e *elaborator) warn(kind, name string, line int, format string, args ...any) {
	if e.warns == nil {
		return
	}
	*e.warns = append(*e.warns, Warning{
		Module: e.ast.Name,
		Name:   e.prefix + name,
		File:   e.ast.File,
		Line:   line,
		Kind:   kind,
		Msg:    fmt.Sprintf(format, args...),
	})
}

// checkUndriven finds every wire with no driver in one pass, instead of
// failing lazily on whichever one a signalOf walk reaches first. An
// undriven wire that something reads (an expression, or an output port
// that bindOutputs will resolve) is a hard error — all offenders are
// reported together. An undriven wire nothing reads degrades to an
// "undriven-wire" warning; the netlist is unaffected either way.
func (e *elaborator) checkUndriven() error {
	var undriven []string
	for name, wd := range e.wires { //detlint:allow sorted below before reporting
		if wd.expr == nil && wd.inst == nil {
			undriven = append(undriven, name)
		}
	}
	if len(undriven) == 0 {
		return nil
	}
	sort.Strings(undriven)
	read := e.referencedNames()
	for _, p := range e.ast.Ports {
		if p.Output {
			read[p.Name] = true
		}
	}
	var fatal []string
	for _, name := range undriven {
		wd := e.wires[name]
		if read[name] {
			fatal = append(fatal, fmt.Sprintf("%s (line %d)", name, wd.line))
			continue
		}
		e.warn("undriven-wire", name, wd.line, "wire %s is never driven (and never read)", name)
	}
	if len(fatal) > 0 {
		return fmt.Errorf("verilog: %s: wires read but never driven: %s",
			e.ast.Name, strings.Join(fatal, ", "))
	}
	return nil
}

// referencedNames collects every identifier the module's expressions
// read: wire init expressions, continuous assignments, always bodies,
// and instance input connections.
func (e *elaborator) referencedNames() map[string]bool {
	read := map[string]bool{}
	var walkExpr func(Expr)
	walkExpr = func(x Expr) {
		switch v := x.(type) {
		case *Ref:
			read[v.Name] = true
		case *Index:
			read[v.Name] = true
			walkExpr(v.At)
		case *PartSelect:
			read[v.Name] = true
		case *Unary:
			walkExpr(v.X)
		case *Binary:
			walkExpr(v.X)
			walkExpr(v.Y)
		case *Cond:
			walkExpr(v.Sel)
			walkExpr(v.A)
			walkExpr(v.B)
		case *Concat:
			for _, p := range v.Parts {
				walkExpr(p)
			}
		case *Repl:
			walkExpr(v.X)
		case *Reduce:
			walkExpr(v.X)
		}
	}
	var walkStmt func(Stmt)
	walkStmt = func(s Stmt) {
		switch st := s.(type) {
		case *Block:
			for _, sub := range st.Stmts {
				walkStmt(sub)
			}
		case *If:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *Case:
			walkExpr(st.Subject)
			for _, item := range st.Items {
				for _, lbl := range item.Labels {
					walkExpr(lbl)
				}
				walkStmt(item.Body)
			}
			if st.Default != nil {
				walkStmt(st.Default)
			}
		case *NBAssign:
			if st.Index != nil {
				walkExpr(st.Index)
			}
			walkExpr(st.RHS)
		}
	}
	for _, item := range e.ast.Items {
		switch it := item.(type) {
		case *WireDecl:
			if it.Init != nil {
				walkExpr(it.Init)
			}
		case *AssignStmt:
			walkExpr(it.Expr)
		case *AlwaysBlock:
			walkStmt(it.Body)
		case *Instance:
			for _, conn := range it.Conns {
				if conn.Expr != nil {
					walkExpr(conn.Expr)
				}
			}
		}
	}
	return read
}

// reportUnused warns about driven wires that nothing ever read — their
// logic was parsed but contributes no netlist nodes.
func (e *elaborator) reportUnused() {
	var names []string
	for name, wd := range e.wires { //detlint:allow sorted immediately below
		if !wd.done && (wd.expr != nil || wd.inst != nil) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		e.warn("unused-wire", name, e.wires[name].line, "wire %s is driven but never read", name)
	}
}

// clockOf scans a module's always blocks for its clock name.
func clockOf(m *Module) string {
	for _, item := range m.Items {
		if a, ok := item.(*AlwaysBlock); ok {
			return a.Clock
		}
	}
	return ""
}

func (e *elaborator) errorf(line int, format string, args ...any) error {
	return fmt.Errorf("verilog: %s: line %d: %s", e.ast.Name, line, fmt.Sprintf(format, args...))
}

// atLine stamps source provenance on nodes built from here on, so lint
// diagnostics on Verilog-sourced designs carry file:line spans. A
// no-op when the source had no recorded file name.
func (e *elaborator) atLine(line int) {
	if e.ast.File != "" && line > 0 {
		e.b.SetSrc(e.ast.File, line)
	}
}

// declare processes ports, parameters, declarations, and continuous
// assignments (recording wire definitions without elaborating yet).
func (e *elaborator) declare() error {
	// Identify the clock first so its port is skipped, and collect ROM
	// contents from initial blocks so array declarations know whether
	// they are ROMs.
	romData := map[string]map[uint64]uint64{}
	for _, item := range e.ast.Items {
		switch it := item.(type) {
		case *AlwaysBlock:
			if e.clock != "" && e.clock != it.Clock {
				return e.errorf(it.Line, "multiple clock domains (%s, %s) are not supported", e.clock, it.Clock)
			}
			e.clock = it.Clock
		case *InitialBlock:
			for _, w := range it.Writes {
				if romData[w.Name] == nil {
					romData[w.Name] = map[uint64]uint64{}
				}
				romData[w.Name][w.Addr] = w.Val
			}
		}
	}
	for _, port := range e.ast.Ports {
		w := port.Width()
		if w == 0 || w > 64 {
			return e.errorf(port.Line, "port %s width %d out of range", port.Name, w)
		}
		e.widths[port.Name] = w
		if port.Output {
			if port.IsReg {
				e.atLine(port.Line)
				e.regs[port.Name] = e.b.Reg(e.prefix+port.Name, w, 0)
			} else {
				// Driven by an assign; recorded as an (as yet undefined) wire.
				e.wires[port.Name] = &wireDef{width: w, line: port.Line}
			}
			continue
		}
		if port.Name == e.clock {
			e.clockNames[port.Name] = true
			continue
		}
		if e.skipClock[port.Name] {
			e.clockNames[port.Name] = true
			continue
		}
		if e.preBound != nil {
			sig, ok := e.preBound[port.Name]
			if !ok {
				return e.errorf(port.Line, "instance input %s is unconnected", port.Name)
			}
			e.inputs[port.Name] = fitWidth(sig, w)
			continue
		}
		e.inputs[port.Name] = e.b.Input(port.Name, w)
	}
	for _, item := range e.ast.Items {
		switch it := item.(type) {
		case *ParamDecl:
			e.params[it.Name] = it.Val
		case *WireDecl:
			w := uint8(it.MSB - it.LSB + 1)
			if w == 0 || w > 64 {
				return e.errorf(it.Line, "wire %s width out of range", it.Name)
			}
			if _, dup := e.wires[it.Name]; dup {
				return e.errorf(it.Line, "wire %s redeclared", it.Name)
			}
			e.widths[it.Name] = w
			e.wires[it.Name] = &wireDef{expr: it.Init, width: w, line: it.Line}
		case *RegDecl:
			w := uint8(it.MSB - it.LSB + 1)
			if w == 0 || w > 64 {
				return e.errorf(it.Line, "reg %s width out of range", it.Name)
			}
			if _, dup := e.regs[it.Name]; dup {
				return e.errorf(it.Line, "reg %s redeclared", it.Name)
			}
			if _, dup := e.mems[it.Name]; dup {
				return e.errorf(it.Line, "memory %s redeclared", it.Name)
			}
			if it.Array {
				words := it.AMSB - it.ALSB + 1
				if words <= 0 {
					return e.errorf(it.Line, "memory %s has no words", it.Name)
				}
				if init, isROM := romData[it.Name]; isROM {
					data := make([]uint64, words)
					for a, v := range init { //detlint:allow index-addressed stores, order-independent
						if a >= uint64(words) {
							return e.errorf(it.Line, "initial write to %s[%d] out of range", it.Name, a)
						}
						data[a] = v
					}
					e.mems[it.Name] = &memDef{mem: e.b.ROM(e.prefix+it.Name, data), width: w}
					continue
				}
				e.mems[it.Name] = &memDef{mem: e.b.Memory(e.prefix+it.Name, words), width: w}
				continue
			}
			init := uint64(0)
			if it.HasInit {
				init = it.Init
			}
			if init&^rtl.WidthMask(w) != 0 {
				return e.errorf(it.Line, "reg %s initial value %d exceeds its %d-bit width", it.Name, init, w)
			}
			e.widths[it.Name] = w
			e.atLine(it.Line)
			e.regs[it.Name] = e.b.Reg(e.prefix+it.Name, w, init)
		case *AssignStmt:
			wd, ok := e.wires[it.Name]
			if !ok {
				return e.errorf(it.Line, "assign to undeclared wire %s", it.Name)
			}
			if wd.expr != nil {
				return e.errorf(it.Line, "wire %s assigned twice", it.Name)
			}
			wd.expr = it.Expr
		case *AlwaysBlock:
			// handled in lowerAlways
		case *Instance:
			if err := e.declareInstance(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// declareInstance classifies an instantiation's connections and wires
// its output ports to the parent wires they drive.
func (e *elaborator) declareInstance(it *Instance) error {
	child, ok := e.lib[it.Module]
	if !ok {
		return e.errorf(it.Line, "unknown module %s", it.Module)
	}
	for _, name := range e.stack {
		if name == it.Module {
			return e.errorf(it.Line, "recursive instantiation of %s", it.Module)
		}
	}
	st := &instanceState{
		ast:        child,
		inst:       it,
		inputs:     map[string]Expr{},
		outputs:    map[string]rtl.Signal{},
		clockPorts: map[string]bool{},
	}
	e.instances = append(e.instances, st)
	childClock := clockOf(child)
	dirs := map[string]bool{} // port -> isOutput
	for _, p := range child.Ports {
		dirs[p.Name] = p.Output
	}
	for _, conn := range it.Conns {
		isOut, ok := dirs[conn.Port]
		if !ok {
			return e.errorf(it.Line, "module %s has no port %s", it.Module, conn.Port)
		}
		if !isOut {
			// The clock is implicit in the rtl model: skip a connection
			// to the child's clock, and also any connection fed by the
			// parent's own clock (a purely combinational child has no
			// always block, so its clk port is only identifiable this
			// way).
			if conn.Port == childClock {
				continue
			}
			if ref, isRef := conn.Expr.(*Ref); isRef && e.isClockName(ref.Name) {
				st.clockPorts[conn.Port] = true
				continue
			}
			st.inputs[conn.Port] = conn.Expr
			continue
		}
		ref, ok := conn.Expr.(*Ref)
		if !ok {
			return e.errorf(it.Line, "output port %s must connect to a plain wire", conn.Port)
		}
		wd, ok := e.wires[ref.Name]
		if !ok {
			return e.errorf(it.Line, "output port %s connects to undeclared wire %s", conn.Port, ref.Name)
		}
		if wd.expr != nil || wd.inst != nil {
			return e.errorf(it.Line, "wire %s driven twice", ref.Name)
		}
		wd.inst = st
		wd.instPort = conn.Port
	}
	return nil
}

// elaborateInstance inlines a child module: parent connection
// expressions become the child's input signals, the child's logic is
// built into the shared netlist under a dotted prefix, and its output
// port signals are captured.
func (e *elaborator) elaborateInstance(st *instanceState, line int) error {
	if st.done {
		return nil
	}
	if st.busy {
		return e.errorf(line, "combinational cycle through instance %s", st.inst.Name)
	}
	st.busy = true
	pre := map[string]rtl.Signal{}
	childClock := clockOf(st.ast)
	for _, p := range st.ast.Ports {
		if p.Output || p.Name == childClock || st.clockPorts[p.Name] {
			continue
		}
		ex, ok := st.inputs[p.Name]
		if !ok {
			return e.errorf(st.inst.Line, "instance %s leaves input %s unconnected", st.inst.Name, p.Name)
		}
		sig, err := e.lowerExpr(ex, st.inst.Line, p.Width())
		if err != nil {
			return err
		}
		pre[p.Name] = sig
	}
	ce := newElaborator(st.ast, e.b, e.lib, e.prefix+st.inst.Name+".", false, e.stack)
	ce.preBound = pre
	ce.skipClock = st.clockPorts
	ce.warns = e.warns
	if err := ce.run(); err != nil {
		return err
	}
	for _, p := range st.ast.Ports {
		if !p.Output {
			continue
		}
		sig, err := ce.signalOf(p.Name, p.Line)
		if err != nil {
			return err
		}
		st.outputs[p.Name] = sig
	}
	st.busy = false
	st.done = true
	return nil
}

// signalOf resolves a name to its combinational signal, elaborating
// wires on demand (dependency order with cycle detection).
func (e *elaborator) signalOf(name string, line int) (rtl.Signal, error) {
	if s, ok := e.inputs[name]; ok {
		return s, nil
	}
	if r, ok := e.regs[name]; ok {
		return r.Signal, nil
	}
	if v, ok := e.params[name]; ok {
		return e.b.Const(v, rtl.WidthFor(v)), nil
	}
	if wd, ok := e.wires[name]; ok {
		if wd.done {
			return wd.sig, nil
		}
		if wd.busy {
			return rtl.Signal{}, e.errorf(line, "combinational cycle through wire %s", name)
		}
		wd.busy = true
		var sig rtl.Signal
		switch {
		case wd.inst != nil:
			if err := e.elaborateInstance(wd.inst, line); err != nil {
				return rtl.Signal{}, err
			}
			sig = wd.inst.outputs[wd.instPort]
		case wd.expr != nil:
			var err error
			e.atLine(wd.line)
			sig, err = e.lowerExpr(wd.expr, wd.line, wd.width)
			if err != nil {
				return rtl.Signal{}, err
			}
		default:
			return rtl.Signal{}, e.errorf(wd.line, "wire %s is never driven", name)
		}
		sig = fitWidth(sig, wd.width)
		wd.busy = false
		wd.done = true
		wd.sig = sig
		return sig, nil
	}
	return rtl.Signal{}, e.errorf(line, "undeclared identifier %s", name)
}

// fitWidth coerces a signal to an exact width (truncate or zero-extend
// via the builder's Trunc / Or-widening).
func fitWidth(s rtl.Signal, w uint8) rtl.Signal {
	if s.Width() == w {
		return s
	}
	if s.Width() > w {
		return s.Trunc(w)
	}
	return s.WidenTo(w)
}

// widthOfExpr computes an expression's self-determined width per the
// (simplified) LRM rules.
func (e *elaborator) widthOfExpr(x Expr) uint8 {
	switch v := x.(type) {
	case *Num:
		if v.Width != 0 {
			return v.Width
		}
		return rtl.WidthFor(v.Val)
	case *Ref:
		if w, ok := e.widths[v.Name]; ok {
			return w
		}
		if p, ok := e.params[v.Name]; ok {
			return rtl.WidthFor(p)
		}
		return 1
	case *Index:
		if md, ok := e.mems[v.Name]; ok {
			return md.width
		}
		return 1 // bit select
	case *PartSelect:
		return uint8(v.MSB - v.LSB + 1)
	case *Unary:
		if v.Op == "!" {
			return 1
		}
		return e.widthOfExpr(v.X)
	case *Binary:
		switch v.Op {
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return 1
		case "<<", ">>":
			return e.widthOfExpr(v.X)
		}
		wx, wy := e.widthOfExpr(v.X), e.widthOfExpr(v.Y)
		if wy > wx {
			return wy
		}
		return wx
	case *Cond:
		wa, wb := e.widthOfExpr(v.A), e.widthOfExpr(v.B)
		if wb > wa {
			return wb
		}
		return wa
	case *Concat:
		var w int
		for _, part := range v.Parts {
			w += int(e.widthOfExpr(part))
		}
		if w > 64 {
			w = 64
		}
		return uint8(w)
	case *Repl:
		w := int(v.Count) * int(e.widthOfExpr(v.X))
		if w > 64 {
			w = 64
		}
		return uint8(w)
	case *Reduce:
		return 1
	}
	return 1
}

// lowerExpr lowers an expression under a context width ctx, 0 meaning
// self-determined, to a signal exactly max(self, ctx) bits wide: the
// sizing rule is stated on ParseAndElaborate.
func (e *elaborator) lowerExpr(x Expr, line int, ctx uint8) (rtl.Signal, error) {
	final := max(e.widthOfExpr(x), ctx)
	if final > 64 {
		return rtl.Signal{}, e.errorf(line, "expression wider than 64 bits")
	}
	// Composite operators that take the context return at final; the
	// rest set s (at its self-determined width) and are widened below.
	var s rtl.Signal
	var err error
	switch v := x.(type) {
	case *Num:
		if v.Width != 0 && v.Val&^rtl.WidthMask(v.Width) != 0 {
			return rtl.Signal{}, e.errorf(line, "literal %d exceeds its %d-bit size", v.Val, v.Width)
		}
		return e.b.Const(v.Val, final), nil
	case *Ref:
		s, err = e.signalOf(v.Name, line)
	case *PartSelect:
		if s, err = e.signalOf(v.Name, line); err != nil {
			return rtl.Signal{}, err
		}
		if v.MSB < v.LSB || v.MSB >= int(s.Width()) {
			return rtl.Signal{}, e.errorf(line, "part select %s[%d:%d] out of range", v.Name, v.MSB, v.LSB)
		}
		s = s.Bits(uint8(v.LSB), uint8(v.MSB-v.LSB+1))
	case *Index:
		if md, ok := e.mems[v.Name]; ok {
			addr, err := e.lowerExpr(v.At, line, 0)
			if err != nil {
				return rtl.Signal{}, err
			}
			s = e.b.Read(md.mem, addr, md.width)
			break
		}
		base, err := e.signalOf(v.Name, line)
		if err != nil {
			return rtl.Signal{}, err
		}
		at, err := e.lowerExpr(v.At, line, 0)
		if err != nil {
			return rtl.Signal{}, err
		}
		s = base.Shr(at).Trunc(1)
	case *Unary:
		if v.Op == "!" {
			if s, err = e.lowerExpr(v.X, line, 0); err != nil {
				return rtl.Signal{}, err
			}
			s = s.IsZero()
			break
		}
		xs, err := e.lowerExpr(v.X, line, final)
		if err != nil {
			return rtl.Signal{}, err
		}
		if v.Op == "-" {
			return e.b.Const(0, final).Sub(xs), nil
		}
		return xs.Not(), nil
	case *Binary:
		s, err = e.lowerBinary(v, line, final)
	case *Cond:
		sel, err := e.lowerExpr(v.Sel, line, 0)
		if err != nil {
			return rtl.Signal{}, err
		}
		a, err := e.lowerExpr(v.A, line, final)
		if err != nil {
			return rtl.Signal{}, err
		}
		b, err := e.lowerExpr(v.B, line, final)
		if err != nil {
			return rtl.Signal{}, err
		}
		return sel.NonZero().Mux(a, b), nil
	case *Concat:
		s, err = e.lowerConcat(v.Parts, line)
	case *Repl:
		parts := make([]Expr, v.Count)
		for i := range parts {
			parts[i] = v.X
		}
		s, err = e.lowerConcat(parts, line)
	case *Reduce:
		if s, err = e.lowerExpr(v.X, line, 0); err != nil {
			return rtl.Signal{}, err
		}
		switch v.Op {
		case "|":
			s = s.NonZero()
		case "&":
			s = s.Eq(e.b.Const(rtl.WidthMask(s.Width()), s.Width()))
		default:
			s = parity(s)
		}
	default:
		return rtl.Signal{}, e.errorf(line, "unsupported expression %T", x)
	}
	if err != nil {
		return rtl.Signal{}, err
	}
	return fitWidth(s, final), nil
}

// lowerBinary lowers a binary operator whose context-sized operators
// compute at width final.
func (e *elaborator) lowerBinary(v *Binary, line int, final uint8) (rtl.Signal, error) {
	// xw and yw size the operands; 0 leaves one self-determined.
	var xw, yw uint8
	switch v.Op {
	case "+", "-", "*", "&", "|", "^":
		xw, yw = final, final
	case "<<", ">>":
		xw = final
	case "==", "!=", "<", "<=", ">", ">=":
		xw = max(e.widthOfExpr(v.X), e.widthOfExpr(v.Y))
		yw = xw
	}
	a, err := e.lowerExpr(v.X, line, xw)
	if err != nil {
		return rtl.Signal{}, err
	}
	b, err := e.lowerExpr(v.Y, line, yw)
	if err != nil {
		return rtl.Signal{}, err
	}
	switch v.Op {
	case "+":
		return a.Add(b), nil
	case "-":
		return a.Sub(b), nil
	case "*":
		return a.Mul(b, final), nil
	case "&":
		return a.And(b), nil
	case "|":
		return a.Or(b), nil
	case "^":
		return a.Xor(b), nil
	case "<<":
		return a.Shl(b), nil
	case ">>":
		return a.Shr(b), nil
	case "==":
		return a.Eq(b), nil
	case "!=":
		return a.Ne(b), nil
	case "<":
		return a.Lt(b), nil
	case "<=":
		return a.Le(b), nil
	case ">":
		return a.Gt(b), nil
	case ">=":
		return a.Ge(b), nil
	case "&&":
		return a.NonZero().And(b.NonZero()), nil
	case "||":
		return a.NonZero().Or(b.NonZero()), nil
	}
	return rtl.Signal{}, e.errorf(line, "unsupported operator %q", v.Op)
}

// lowerConcat assembles parts MSB-first into one vector.
func (e *elaborator) lowerConcat(parts []Expr, line int) (rtl.Signal, error) {
	if len(parts) == 0 {
		return rtl.Signal{}, e.errorf(line, "empty concatenation")
	}
	total := 0
	sigs := make([]rtl.Signal, len(parts))
	for i, part := range parts {
		s, err := e.lowerExpr(part, line, 0)
		if err != nil {
			return rtl.Signal{}, err
		}
		sigs[i] = s
		total += int(s.Width())
	}
	if total > 64 {
		return rtl.Signal{}, e.errorf(line, "concatenation wider than 64 bits (%d)", total)
	}
	w := uint8(total)
	acc := sigs[0].WidenTo(w)
	for _, s := range sigs[1:] {
		acc = acc.Shl(e.b.Const(uint64(s.Width()), 7)).Or(s.WidenTo(w))
	}
	return acc, nil
}

// parity XOR-folds a signal to one bit.
func parity(x rtl.Signal) rtl.Signal {
	s := x
	for sh := uint8(32); sh >= 1; sh /= 2 {
		if x.Width() > sh {
			s = s.Xor(s.ShrK(sh))
		}
	}
	return s.Trunc(1)
}

// lowerAlways symbolically executes every always block into per-reg
// next values and memory writes.
func (e *elaborator) lowerAlways() error {
	// Accumulated next values start as "hold".
	next := map[string]rtl.Signal{}
	for name, r := range e.regs { //detlint:allow keyed map fill, order-independent
		next[name] = r.Signal
	}
	for _, item := range e.ast.Items {
		a, ok := item.(*AlwaysBlock)
		if !ok {
			continue
		}
		if err := e.execStmt(a.Body, rtl.Signal{}, false, next, a.Line); err != nil {
			return err
		}
	}
	// Bind in sorted order: fitWidth may create widening nodes, and node
	// IDs must not depend on map iteration order or the emitted netlist
	// (and everything keyed on it) would differ between runs.
	names := make([]string, 0, len(e.regs))
	for name := range e.regs { //detlint:allow sorted immediately below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := e.regs[name]
		e.b.SetNext(r, fitWidth(next[name], r.Width()))
	}
	return nil
}

// execStmt walks a statement under a path condition. haveCond marks
// whether cond is meaningful (the root of an always body has none).
func (e *elaborator) execStmt(s Stmt, cond rtl.Signal, haveCond bool, next map[string]rtl.Signal, line int) error {
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			if err := e.execStmt(sub, cond, haveCond, next, line); err != nil {
				return err
			}
		}
		return nil
	case *If:
		c, err := e.lowerExpr(st.Cond, line, 0)
		if err != nil {
			return err
		}
		c = c.NonZero()
		thenCond, elseCond := c, c.Not()
		if haveCond {
			thenCond = cond.And(c)
			elseCond = cond.And(c.Not())
		}
		if err := e.execStmt(st.Then, thenCond, true, next, line); err != nil {
			return err
		}
		if st.Else != nil {
			if err := e.execStmt(st.Else, elseCond, true, next, line); err != nil {
				return err
			}
		}
		return nil
	case *Case:
		// The subject and every label compare at the widest of them.
		w := e.widthOfExpr(st.Subject)
		for _, item := range st.Items {
			for _, lbl := range item.Labels {
				w = max(w, e.widthOfExpr(lbl))
			}
		}
		subj, err := e.lowerExpr(st.Subject, line, w)
		if err != nil {
			return err
		}
		// First matching item wins; prevMatched excludes earlier arms.
		var prev rtl.Signal
		havePrev := false
		for _, item := range st.Items {
			var match rtl.Signal
			haveMatch := false
			for _, lbl := range item.Labels {
				ls, err := e.lowerExpr(lbl, line, w)
				if err != nil {
					return err
				}
				eq := subj.Eq(ls)
				if haveMatch {
					match = match.Or(eq)
				} else {
					match, haveMatch = eq, true
				}
			}
			armCond := match
			if havePrev {
				armCond = match.And(prev.Not())
			}
			full := armCond
			if haveCond {
				full = cond.And(armCond)
			}
			if err := e.execStmt(item.Body, full, true, next, line); err != nil {
				return err
			}
			if havePrev {
				prev = prev.Or(match)
			} else {
				prev, havePrev = match, true
			}
		}
		if st.Default != nil {
			var noMatch rtl.Signal
			if havePrev {
				noMatch = prev.Not()
			} else {
				noMatch = e.b.Const(1, 1)
			}
			full := noMatch
			if haveCond {
				full = cond.And(noMatch)
			}
			if err := e.execStmt(st.Default, full, true, next, line); err != nil {
				return err
			}
		}
		return nil
	case *NBAssign:
		e.atLine(st.Line)
		// Context width for the RHS is the assignment target's width.
		var ctxW uint8
		if st.Index != nil {
			if md, ok := e.mems[st.Name]; ok {
				ctxW = md.width
			}
		} else if r, ok := e.regs[st.Name]; ok {
			ctxW = r.Width()
		}
		rhs, err := e.lowerExpr(st.RHS, st.Line, ctxW)
		if err != nil {
			return err
		}
		if st.Index != nil {
			md, ok := e.mems[st.Name]
			if !ok {
				return e.errorf(st.Line, "indexed assignment to non-memory %s", st.Name)
			}
			addr, err := e.lowerExpr(st.Index, st.Line, 0)
			if err != nil {
				return err
			}
			en := cond
			if !haveCond {
				en = e.b.Const(1, 1)
			}
			e.b.Write(md.mem, addr, fitWidth(rhs, md.width), en)
			return nil
		}
		r, ok := e.regs[st.Name]
		if !ok {
			return e.errorf(st.Line, "non-blocking assignment to non-register %s", st.Name)
		}
		rhs = fitWidth(rhs, r.Width())
		if !haveCond {
			next[st.Name] = rhs
			return nil
		}
		next[st.Name] = cond.Mux(rhs, next[st.Name])
		return nil
	}
	return e.errorf(line, "unsupported statement %T", s)
}

// bindOutputs elaborates output wires, forces instances that drive no
// read output to elaborate anyway (their state machines and memory
// writes are still part of the design), and wires the top-level done.
func (e *elaborator) bindOutputs() error {
	var doneSet bool
	for _, port := range e.ast.Ports {
		if !port.Output {
			continue
		}
		sig, err := e.signalOf(port.Name, port.Line)
		if err != nil {
			return err
		}
		if e.isTop && port.Name == "done" {
			// done is true when non-zero; a one-bit signal already is
			// that test, and a second one would grow every round trip.
			if sig.Width() != 1 {
				sig = sig.NonZero()
			}
			e.b.SetDone(sig)
			doneSet = true
		}
	}
	for _, st := range e.instances {
		if err := e.elaborateInstance(st, st.inst.Line); err != nil {
			return err
		}
	}
	if e.isTop && !doneSet {
		return fmt.Errorf("verilog: %s: top module must have an output named done", e.ast.Name)
	}
	return nil
}
