package minij

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// ParseError describes a syntax error with its source position.
type ParseError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a MiniJ compilation unit. On success the returned program has
// class/method/field lookup tables built and every statement assigned a dense
// program-unique ID in source order.
func Parse(src string) (*Program, error) {
	classes, ntoks, err := parseClasses(src, 1)
	if err != nil {
		return nil, err
	}
	prog := &Program{exprHint: ntoks / 3}
	if err := prog.index(classes); err != nil {
		return nil, err
	}
	return prog, nil
}

// ErrReopen reports test text that declares a class of the program it is
// linked onto. Reopening a class may change how that class's existing code
// resolves, so the caller must parse the joined source instead.
var ErrReopen = errors.New("minij: linked text reopens a class of its base program")

// Link parses and resolves src as further classes of base, an already
// parsed and resolved program, without re-reading base's source. src
// starts on line startLine of the joined text: base's source, one
// newline, then src. The result equals Parse and Check of that joined text
// in canonical text, statement IDs, positions and types. base is shared
// and never modified: the linked program reuses its classes and statements
// (copying only the slices and the class table that list them) and looks
// their types up in base. Errors in src read exactly as the joined parse
// reports them. Link returns ErrReopen when src declares a class base
// already has.
func Link(base *Program, src string, startLine int) (*Program, error) {
	classes, ntoks, err := parseClasses(src, startLine)
	if err != nil {
		return nil, err
	}
	for _, c := range classes {
		if base.byName[c.Name] != nil {
			return nil, ErrReopen
		}
	}
	prog := &Program{
		Classes:    slices.Clip(base.Classes),
		byName:     maps.Clone(base.byName),
		stmts:      slices.Clip(base.stmts),
		stmtMethod: slices.Clip(base.stmtMethod),
		exprTypes:  make(map[Expr]Type, ntoks/3),
		base:       base,
	}
	if err := prog.index(classes); err != nil {
		return nil, err
	}
	if err := summarize(resolveClasses(prog, prog.Classes[len(base.Classes):])); err != nil {
		return nil, err
	}
	return prog, nil
}

// parseClasses lexes and parses src, starting on the given line, into its
// class declarations as written (reopened classes not yet merged), and
// counts its tokens: MiniJ has about one typed expression per three tokens,
// which sizes the resolver's type table.
func parseClasses(src string, line int) ([]*Class, int, error) {
	toks, err := lexFrom(src, line)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	var classes []*Class
	for p.cur().Kind != TokEOF {
		c, err := p.parseClass()
		if err != nil {
			return nil, 0, err
		}
		classes = append(classes, c)
	}
	return classes, len(toks), nil
}

// MustParse parses src and panics on error. It is a test helper only:
// production code parses with Parse (or loads through internal/program)
// and threads the error to its caller, so malformed input degrades the
// run instead of crashing the process.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []Token
	i    int
}

func (p *parser) cur() Token  { return p.toks[p.i] }
func (p *parser) next() Token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) peekIs(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && t.Text == text
}

func (p *parser) peek2Is(kind TokenKind, text string) bool {
	if p.i+1 >= len(p.toks) {
		return false
	}
	t := p.toks[p.i+1]
	return t.Kind == kind && t.Text == text
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.peekIs(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.cur()
	if t.Kind == kind && t.Text == text {
		p.i++
		return t, nil
	}
	return Token{}, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected %q, found %s", text, t)}
}

func (p *parser) expectIdent() (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return Token{}, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected identifier, found %s", t)}
	}
	p.i++
	return t, nil
}

func (p *parser) parseClass() (*Class, error) {
	kw, err := p.expect(TokKeyword, "class")
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	c := &Class{Name: name.Text, DeclPos: kw.Pos}
	for !p.peekIs(TokPunct, "}") {
		if err := p.parseMember(c); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokPunct, "}"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseMember parses a field or a method and appends it to c.
func (p *parser) parseMember(c *Class) error {
	start := p.cur().Pos
	static := p.accept(TokKeyword, "static")
	ret, err := p.parseTypeOrVoid()
	if err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if p.peekIs(TokPunct, "(") {
		m := &Method{Class: c, Name: name.Text, Static: static, Ret: ret, DeclPos: start}
		if err := p.parseParams(m); err != nil {
			return err
		}
		body, err := p.parseBlock()
		if err != nil {
			return err
		}
		m.Body = body
		c.Methods = append(c.Methods, m)
		return nil
	}
	if static {
		return &ParseError{Pos: start, Msg: "fields may not be static"}
	}
	if ret.Kind == TypeVoid {
		return &ParseError{Pos: start, Msg: "fields may not have void type"}
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return err
	}
	c.Fields = append(c.Fields, &Field{Name: name.Text, Type: ret, DeclPos: start})
	return nil
}

func (p *parser) parseParams(m *Method) error {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return err
	}
	if p.accept(TokPunct, ")") {
		return nil
	}
	for {
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		m.Params = append(m.Params, &Param{Name: name.Text, Type: ty})
		if p.accept(TokPunct, ",") {
			continue
		}
		_, err = p.expect(TokPunct, ")")
		return err
	}
}

func (p *parser) parseTypeOrVoid() (Type, error) {
	if p.accept(TokKeyword, "void") {
		return Type{Kind: TypeVoid}, nil
	}
	return p.parseType()
}

func (p *parser) parseType() (Type, error) {
	t := p.cur()
	switch {
	case t.Kind == TokKeyword && t.Text == "int":
		p.i++
		return Type{Kind: TypeInt}, nil
	case t.Kind == TokKeyword && t.Text == "bool":
		p.i++
		return Type{Kind: TypeBool}, nil
	case t.Kind == TokKeyword && t.Text == "string":
		p.i++
		return Type{Kind: TypeString}, nil
	case t.Kind == TokKeyword && t.Text == "list":
		p.i++
		return Type{Kind: TypeList}, nil
	case t.Kind == TokKeyword && t.Text == "map":
		p.i++
		return Type{Kind: TypeMap}, nil
	case t.Kind == TokIdent:
		p.i++
		return Type{Kind: TypeObject, Class: t.Text}, nil
	}
	return Type{}, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected type, found %s", t)}
}

func (p *parser) parseBlock() (*Block, error) {
	open, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{pos: open.Pos}}
	for !p.peekIs(TokPunct, "}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	if _, err := p.expect(TokPunct, "}"); err != nil {
		return nil, err
	}
	return b, nil
}

// isTypeKeyword reports whether the current token begins a builtin type.
func (p *parser) isTypeKeyword() bool {
	t := p.cur()
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "int", "bool", "string", "list", "map":
		return true
	}
	return false
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Kind == TokKeyword && t.Text == "if":
		return p.parseIf()
	case t.Kind == TokKeyword && t.Text == "while":
		return p.parseWhile()
	case t.Kind == TokKeyword && t.Text == "for":
		return p.parseFor()
	case t.Kind == TokKeyword && t.Text == "return":
		p.i++
		r := &Return{stmtBase: stmtBase{pos: t.Pos}}
		if !p.peekIs(TokPunct, ";") {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Value = v
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return r, nil
	case t.Kind == TokKeyword && t.Text == "break":
		p.i++
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Break{stmtBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "continue":
		p.i++
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Continue{stmtBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "throw":
		p.i++
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Throw{stmtBase: stmtBase{pos: t.Pos}, Value: v}, nil
	case t.Kind == TokKeyword && t.Text == "try":
		return p.parseTry()
	case t.Kind == TokKeyword && t.Text == "synchronized":
		p.i++
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		lock, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &Sync{stmtBase: stmtBase{pos: t.Pos}, Lock: lock, Body: body}, nil
	case t.Kind == TokPunct && t.Text == "{":
		return p.parseBlock()
	case p.isTypeKeyword():
		return p.parseVarDecl()
	case t.Kind == TokIdent && p.tokenAt(p.i+1).Kind == TokIdent:
		// "ClassName name ..." — a declaration with a class type.
		return p.parseVarDecl()
	}
	return p.parseExprOrAssign()
}

func (p *parser) tokenAt(i int) Token {
	if i >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[i]
}

func (p *parser) parseVarDecl() (Stmt, error) {
	start := p.cur().Pos
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &VarDecl{stmtBase: stmtBase{pos: start}, Type: ty, Name: name.Text}
	if p.accept(TokOp, "=") {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) parseIf() (Stmt, error) {
	kw := p.next() // "if"
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &If{stmtBase: stmtBase{pos: kw.Pos}, Cond: cond, Then: then}
	if p.accept(TokKeyword, "else") {
		if p.peekIs(TokKeyword, "if") {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			node.Else = elseIf
		} else {
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			node.Else = blk
		}
	}
	return node, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	kw := p.next() // "while"
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &While{stmtBase: stmtBase{pos: kw.Pos}, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	kw := p.next() // "for"
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	// Foreach form: for (x in e) { ... }
	if p.cur().Kind == TokIdent && p.peek2Is(TokKeyword, "in") {
		name := p.next()
		p.next() // "in"
		iter, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForEach{stmtBase: stmtBase{pos: kw.Pos}, Var: name.Text, Iter: iter, Body: body}, nil
	}
	node := &For{stmtBase: stmtBase{pos: kw.Pos}}
	if !p.peekIs(TokPunct, ";") {
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		node.Init = init
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.peekIs(TokPunct, ";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		node.Cond = cond
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.peekIs(TokPunct, ")") {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		node.Post = post
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node.Body = body
	return node, nil
}

// parseSimpleStmt parses a for-clause statement: a declaration, assignment,
// or call, without the trailing semicolon.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	start := p.cur().Pos
	if p.isTypeKeyword() || (p.cur().Kind == TokIdent && p.tokenAt(p.i+1).Kind == TokIdent) {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d := &VarDecl{stmtBase: stmtBase{pos: start}, Type: ty, Name: name.Text}
		if p.accept(TokOp, "=") {
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		return d, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(TokOp, "=") {
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !isAssignable(e) {
			return nil, &ParseError{Pos: e.Pos(), Msg: "left side of assignment must be a variable or field"}
		}
		return &Assign{stmtBase: stmtBase{pos: start}, Target: e, Value: val}, nil
	}
	return &ExprStmt{stmtBase: stmtBase{pos: start}, E: e}, nil
}

func (p *parser) parseTry() (Stmt, error) {
	kw := p.next() // "try"
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "catch"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	catch, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Try{stmtBase: stmtBase{pos: kw.Pos}, Body: body, CatchVar: name.Text, Catch: catch}, nil
}

func (p *parser) parseExprOrAssign() (Stmt, error) {
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return s, nil
}

func isAssignable(e Expr) bool {
	switch e.(type) {
	case *Ident, *FieldAccess:
		return true
	}
	return false
}

// Expression parsing: precedence climbing.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "||") {
		op := p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: "||", X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseAnd() (Expr, error) {
	x, err := p.parseEq()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "&&") {
		op := p.next()
		y, err := p.parseEq()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: "&&", X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseEq() (Expr, error) {
	x, err := p.parseRel()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "==") || p.peekIs(TokOp, "!=") {
		op := p.next()
		y, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseRel() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "<") || p.peekIs(TokOp, "<=") || p.peekIs(TokOp, ">") || p.peekIs(TokOp, ">=") {
		op := p.next()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseAdd() (Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "+") || p.peekIs(TokOp, "-") {
		op := p.next()
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseMul() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "*") || p.peekIs(TokOp, "/") || p.peekIs(TokOp, "%") {
		op := p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peekIs(TokOp, "!") || p.peekIs(TokOp, "-") {
		op := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokPunct, ".") {
		dot := p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.peekIs(TokPunct, "(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			x = &Call{exprBase: exprBase{pos: dot.Pos}, Recv: x, Name: name.Text, Args: args}
		} else {
			x = &FieldAccess{exprBase: exprBase{pos: dot.Pos}, Recv: x, Name: name.Text}
		}
	}
	return x, nil
}

func (p *parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	var args []Expr
	if p.accept(TokPunct, ")") {
		return args, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.accept(TokPunct, ",") {
			continue
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return args, nil
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.i++
		return &IntLit{exprBase: exprBase{pos: t.Pos}, Value: t.Int}, nil
	case t.Kind == TokString:
		p.i++
		return &StrLit{exprBase: exprBase{pos: t.Pos}, Value: t.Text}, nil
	case t.Kind == TokKeyword && t.Text == "true":
		p.i++
		return &BoolLit{exprBase: exprBase{pos: t.Pos}, Value: true}, nil
	case t.Kind == TokKeyword && t.Text == "false":
		p.i++
		return &BoolLit{exprBase: exprBase{pos: t.Pos}, Value: false}, nil
	case t.Kind == TokKeyword && t.Text == "null":
		p.i++
		return &NullLit{exprBase: exprBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "new":
		p.i++
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &New{exprBase: exprBase{pos: t.Pos}, Class: name.Text, Args: args}, nil
	case t.Kind == TokIdent:
		p.i++
		if p.peekIs(TokPunct, "(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &Call{exprBase: exprBase{pos: t.Pos}, Name: t.Text, Args: args}, nil
		}
		return &Ident{exprBase: exprBase{pos: t.Pos}, Name: t.Text}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.i++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected expression, found %s", t)}
}

// index adds classes to prog: it builds their lookup tables and numbers
// their statements densely in source order, after any statements prog
// already has. Repeated declarations of the same class merge into one
// (open classes), which lets independently authored test files contribute
// methods to a shared test class; duplicate members are an error.
func (prog *Program) index(classes []*Class) error {
	start := len(prog.Classes)
	if prog.byName == nil {
		prog.byName = make(map[string]*Class, len(classes))
	}
	for _, c := range classes {
		base, seen := prog.byName[c.Name]
		if !seen {
			prog.Classes = append(prog.Classes, c)
			prog.byName[c.Name] = c
			continue
		}
		base.Fields = append(base.Fields, c.Fields...)
		for _, m := range c.Methods {
			m.Class = base
			base.Methods = append(base.Methods, m)
		}
	}
	added := prog.Classes[start:]
	for _, c := range added {
		c.fieldsByName = make(map[string]*Field, len(c.Fields))
		for _, f := range c.Fields {
			if _, dup := c.fieldsByName[f.Name]; dup {
				return &ParseError{Pos: f.DeclPos, Msg: fmt.Sprintf("duplicate field %s.%s", c.Name, f.Name)}
			}
			c.fieldsByName[f.Name] = f
		}
		c.methodsByName = make(map[string]*Method, len(c.Methods))
		for _, m := range c.Methods {
			if _, dup := c.methodsByName[m.Name]; dup {
				return &ParseError{Pos: m.DeclPos, Msg: fmt.Sprintf("duplicate method %s.%s", c.Name, m.Name)}
			}
			c.methodsByName[m.Name] = m
		}
	}
	for _, c := range added {
		for _, m := range c.Methods {
			WalkStmts(m.Body, func(s Stmt) {
				s.setID(len(prog.stmts))
				prog.stmts = append(prog.stmts, s)
				prog.stmtMethod = append(prog.stmtMethod, m)
			})
		}
	}
	return nil
}
