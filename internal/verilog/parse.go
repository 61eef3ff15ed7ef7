package verilog

import "fmt"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	lex *lexer
	tok token
	err error
	src string
}

// ParseFile parses a source file containing one or more modules.
func ParseFile(src string) ([]*Module, error) {
	p := &parser{lex: newLexer(src), src: src}
	p.advance()
	var mods []*Module
	for p.tok.kind != tokEOF {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	if len(mods) == 0 {
		return nil, p.errorf("no modules in source")
	}
	return mods, nil
}

// ParseFileNamed parses like ParseFile but records the file name on
// every module, so elaboration can stamp rtl nodes with source
// provenance and lint diagnostics can cite file:line spans.
func ParseFileNamed(src, file string) ([]*Module, error) {
	mods, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	for _, m := range mods {
		m.File = file
	}
	return mods, nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("verilog: line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	t, err := p.lex.next()
	if err != nil {
		p.err = err
		p.tok = token{kind: tokEOF}
		return
	}
	p.tok = t
}

func (p *parser) expectSymbol(s string) error {
	if p.err != nil {
		return p.err
	}
	if p.tok.kind != tokSymbol || p.tok.text != s {
		return p.errorf("expected %q, found %q", s, p.tok.text)
	}
	p.advance()
	return nil
}

func (p *parser) expectKeyword(s string) error {
	if p.err != nil {
		return p.err
	}
	if p.tok.kind != tokKeyword || p.tok.text != s {
		return p.errorf("expected %q, found %q", s, p.tok.text)
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.err != nil {
		return "", p.err
	}
	if p.tok.kind != tokIdent {
		return "", p.errorf("expected identifier, found %q", p.tok.text)
	}
	name := p.tok.text
	p.advance()
	return name, nil
}

func (p *parser) atSymbol(s string) bool {
	return p.err == nil && p.tok.kind == tokSymbol && p.tok.text == s
}

func (p *parser) atKeyword(s string) bool {
	return p.err == nil && p.tok.kind == tokKeyword && p.tok.text == s
}

// parseRange parses an optional [msb:lsb]; returns (0,0) if absent.
func (p *parser) parseRange() (int, int, error) {
	if !p.atSymbol("[") {
		return 0, 0, p.err
	}
	p.advance()
	msb, err := p.expectConstInt()
	if err != nil {
		return 0, 0, err
	}
	if err := p.expectSymbol(":"); err != nil {
		return 0, 0, err
	}
	lsb, err := p.expectConstInt()
	if err != nil {
		return 0, 0, err
	}
	if err := p.expectSymbol("]"); err != nil {
		return 0, 0, err
	}
	if msb < lsb {
		return 0, 0, p.errorf("descending ranges only: [%d:%d]", msb, lsb)
	}
	return msb, lsb, nil
}

func (p *parser) expectConstInt() (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected number, found %q", p.tok.text)
	}
	v := int(p.tok.val)
	p.advance()
	return v, nil
}

func (p *parser) parseModule() (*Module, error) {
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, Line: p.tok.line}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for !p.atSymbol(")") {
		port, err := p.parsePort()
		if err != nil {
			return nil, err
		}
		m.Ports = append(m.Ports, port)
		if p.atSymbol(",") {
			p.advance()
		}
	}
	p.advance() // )
	if err := p.expectSymbol(";"); err != nil {
		return nil, err
	}
	for !p.atKeyword("endmodule") {
		if p.err != nil {
			return nil, p.err
		}
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unexpected EOF inside module %s", name)
		}
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, item)
	}
	p.advance() // endmodule
	return m, nil
}

func (p *parser) parsePort() (Port, error) {
	port := Port{Line: p.tok.line}
	switch {
	case p.atKeyword("input"):
		p.advance()
	case p.atKeyword("output"):
		port.Output = true
		p.advance()
	default:
		return port, p.errorf("port must start with input/output, found %q", p.tok.text)
	}
	if p.atKeyword("reg") {
		port.IsReg = true
		p.advance()
	}
	msb, lsb, err := p.parseRange()
	if err != nil {
		return port, err
	}
	port.MSB, port.LSB = msb, lsb
	port.Name, err = p.expectIdent()
	return port, err
}

func (p *parser) parseItem() (Item, error) {
	switch {
	case p.atKeyword("wire"):
		return p.parseWire()
	case p.atKeyword("reg"):
		return p.parseReg()
	case p.atKeyword("assign"):
		return p.parseAssign()
	case p.atKeyword("always"):
		return p.parseAlways()
	case p.atKeyword("parameter") || p.atKeyword("localparam"):
		return p.parseParam()
	case p.atKeyword("initial"):
		return p.parseInitial()
	case p.tok.kind == tokIdent:
		return p.parseInstance()
	}
	return nil, p.errorf("unsupported item starting with %q", p.tok.text)
}

func (p *parser) parseWire() (Item, error) {
	line := p.tok.line
	p.advance()
	msb, lsb, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	w := &WireDecl{Name: name, MSB: msb, LSB: lsb, Line: line}
	if p.atSymbol("=") {
		p.advance()
		w.Init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return w, p.expectSymbol(";")
}

func (p *parser) parseReg() (Item, error) {
	line := p.tok.line
	p.advance()
	msb, lsb, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	r := &RegDecl{Name: name, MSB: msb, LSB: lsb, Line: line}
	if p.atSymbol("[") {
		r.Array = true
		r.AMSB, r.ALSB, err = p.parseArrayRange()
		if err != nil {
			return nil, err
		}
	}
	if p.atSymbol("=") {
		p.advance()
		if p.tok.kind != tokNumber {
			return nil, p.errorf("register initializer must be a literal")
		}
		r.HasInit = true
		r.Init = p.tok.val
		p.advance()
	}
	return r, p.expectSymbol(";")
}

// parseArrayRange parses [a:b] in either order (memories are commonly
// declared [0:N-1]).
func (p *parser) parseArrayRange() (int, int, error) {
	p.advance() // [
	a, err := p.expectConstInt()
	if err != nil {
		return 0, 0, err
	}
	if err := p.expectSymbol(":"); err != nil {
		return 0, 0, err
	}
	b, err := p.expectConstInt()
	if err != nil {
		return 0, 0, err
	}
	if err := p.expectSymbol("]"); err != nil {
		return 0, 0, err
	}
	if a < b {
		return b, a, nil
	}
	return a, b, nil
}

func (p *parser) parseAssign() (Item, error) {
	line := p.tok.line
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Name: name, Expr: e, Line: line}, p.expectSymbol(";")
}

func (p *parser) parseParam() (Item, error) {
	line := p.tok.line
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	if p.tok.kind != tokNumber {
		return nil, p.errorf("parameter value must be a literal")
	}
	val := p.tok.val
	p.advance()
	return &ParamDecl{Name: name, Val: val, Line: line}, p.expectSymbol(";")
}

// parseInitial parses `initial begin name[addr] = value; ... end` —
// the constant-table (ROM) initialization form the emitter produces.
func (p *parser) parseInitial() (Item, error) {
	line := p.tok.line
	p.advance()
	if err := p.expectKeyword("begin"); err != nil {
		return nil, err
	}
	blk := &InitialBlock{Line: line}
	for !p.atKeyword("end") {
		if p.err != nil {
			return nil, p.err
		}
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unexpected EOF inside initial block")
		}
		wLine := p.tok.line
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("["); err != nil {
			return nil, err
		}
		if p.tok.kind != tokNumber {
			return nil, p.errorf("initial-block address must be a literal")
		}
		addr := p.tok.val
		p.advance()
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		if p.tok.kind != tokNumber {
			return nil, p.errorf("initial-block value must be a literal")
		}
		val := p.tok.val
		p.advance()
		if err := p.expectSymbol(";"); err != nil {
			return nil, err
		}
		blk.Writes = append(blk.Writes, MemInit{Name: name, Addr: addr, Val: val, Line: wLine})
	}
	p.advance()
	return blk, nil
}

// parseInstance parses `ModName instName ( .port(expr), ... );`.
func (p *parser) parseInstance() (Item, error) {
	line := p.tok.line
	modName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	instName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	inst := &Instance{Module: modName, Name: instName, Line: line}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for !p.atSymbol(")") {
		if err := p.expectSymbol("."); err != nil {
			return nil, err
		}
		port, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		ex, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		inst.Conns = append(inst.Conns, Conn{Port: port, Expr: ex})
		if p.atSymbol(",") {
			p.advance()
		}
	}
	p.advance() // )
	return inst, p.expectSymbol(";")
}

func (p *parser) parseAlways() (Item, error) {
	line := p.tok.line
	p.advance()
	if err := p.expectSymbol("@"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("posedge"); err != nil {
		return nil, err
	}
	clock, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &AlwaysBlock{Clock: clock, Body: body, Line: line}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.atKeyword("begin"):
		p.advance()
		blk := &Block{}
		for !p.atKeyword("end") {
			if p.err != nil {
				return nil, p.err
			}
			if p.tok.kind == tokEOF {
				return nil, p.errorf("unexpected EOF inside begin/end")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			blk.Stmts = append(blk.Stmts, s)
		}
		p.advance()
		return blk, nil
	case p.atKeyword("if"):
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &If{Cond: cond, Then: then}
		if p.atKeyword("else") {
			p.advance()
			st.Else, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	case p.atKeyword("case"):
		return p.parseCase()
	case p.tok.kind == tokIdent:
		return p.parseNBAssign()
	}
	return nil, p.errorf("unsupported statement starting with %q", p.tok.text)
}

func (p *parser) parseCase() (Stmt, error) {
	p.advance()
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	subj, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	cs := &Case{Subject: subj}
	for !p.atKeyword("endcase") {
		if p.err != nil {
			return nil, p.err
		}
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unexpected EOF inside case")
		}
		if p.atKeyword("default") {
			p.advance()
			if err := p.expectSymbol(":"); err != nil {
				return nil, err
			}
			cs.Default, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
			continue
		}
		var item CaseItem
		for {
			lbl, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item.Labels = append(item.Labels, lbl)
			if p.atSymbol(",") {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectSymbol(":"); err != nil {
			return nil, err
		}
		item.Body, err = p.parseStmt()
		if err != nil {
			return nil, err
		}
		cs.Items = append(cs.Items, item)
	}
	p.advance()
	return cs, nil
}

func (p *parser) parseNBAssign() (Stmt, error) {
	line := p.tok.line
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &NBAssign{Name: name, Line: line}
	if p.atSymbol("[") {
		p.advance()
		st.Index, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
	}
	if err := p.expectSymbol("<="); err != nil {
		return nil, err
	}
	st.RHS, err = p.parseExpr()
	if err != nil {
		return nil, err
	}
	return st, p.expectSymbol(";")
}

// Expression parsing with precedence climbing.

// binPrec maps operators to binding power (higher binds tighter).
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10,
}

func (p *parser) parseExpr() (Expr, error) {
	e, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.atSymbol("?") {
		p.advance()
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(":"); err != nil {
			return nil, err
		}
		b, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{Sel: e, A: a, B: b}, nil
	}
	return e, nil
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok.kind != tokSymbol {
			return lhs, nil
		}
		prec, ok := binPrec[p.tok.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.tok.text
		p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.kind == tokSymbol {
		switch p.tok.text {
		case "~", "!", "-":
			op := p.tok.text
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: op, X: x}, nil
		case "|", "&", "^":
			// Unary reduction operators (the binary forms never start
			// an expression, so this position is unambiguous).
			op := p.tok.text
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Reduce{Op: op, X: x}, nil
		}
	}
	return p.parsePrimary()
}

// parseConcat parses {a, b, ...} or {N{x}} after the opening brace.
func (p *parser) parseConcat() (Expr, error) {
	p.advance() // {
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	// Replication: {N{x}}.
	if p.atSymbol("{") {
		count, ok := constOf(first)
		if !ok {
			return nil, p.errorf("replication count must be a literal")
		}
		if count == 0 || count > 64 {
			return nil, p.errorf("replication count %d out of range", count)
		}
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("}"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("}"); err != nil {
			return nil, err
		}
		return &Repl{Count: count, X: x}, nil
	}
	c := &Concat{Parts: []Expr{first}}
	for p.atSymbol(",") {
		p.advance()
		part, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Parts = append(c.Parts, part)
	}
	if err := p.expectSymbol("}"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == tokNumber:
		n := &Num{Val: p.tok.val, Width: p.tok.width}
		p.advance()
		return n, nil
	case p.tok.kind == tokIdent:
		name := p.tok.text
		p.advance()
		if p.atSymbol("[") {
			p.advance()
			first, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.atSymbol(":") {
				p.advance()
				msb, ok := constOf(first)
				if !ok {
					return nil, p.errorf("part select bounds must be constant")
				}
				lsbE, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				lsb, ok := constOf(lsbE)
				if !ok {
					return nil, p.errorf("part select bounds must be constant")
				}
				if err := p.expectSymbol("]"); err != nil {
					return nil, err
				}
				return &PartSelect{Name: name, MSB: int(msb), LSB: int(lsb)}, nil
			}
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
			return &Index{Name: name, At: first}, nil
		}
		return &Ref{Name: name}, nil
	case p.atSymbol("("):
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectSymbol(")")
	case p.atSymbol("{"):
		return p.parseConcat()
	}
	return nil, p.errorf("unexpected token %q in expression", p.tok.text)
}

// constOf evaluates a parsed expression if it is a plain literal.
func constOf(e Expr) (uint64, bool) {
	if n, ok := e.(*Num); ok {
		return n.Val, true
	}
	return 0, false
}
