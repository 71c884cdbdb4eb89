package minij

import (
	"fmt"
	"strings"
)

// ResolveError is a static-analysis diagnostic.
type ResolveError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *ResolveError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Resolve statically checks the program: every name must resolve, call
// arities must match, and expressions must be loosely type-consistent
// (container elements are dynamically typed, so TypeAny is accepted
// anywhere). Resolve also classifies every call's Kind, which the
// interpreter and the symbolic engine rely on. It returns all diagnostics
// found.
func Resolve(prog *Program) []*ResolveError {
	prog.exprTypes = make(map[Expr]Type, prog.exprHint)
	return resolveClasses(prog, prog.Classes)
}

// resolveClasses resolves the methods of classes, which belong to prog,
// recording expression types in prog's own table.
func resolveClasses(prog *Program, classes []*Class) []*ResolveError {
	r := &resolver{prog: prog}
	for _, c := range classes {
		for _, m := range c.Methods {
			r.method(m)
		}
	}
	return r.errs
}

// Check resolves the program and returns a single error summarizing all
// diagnostics, or nil if the program is statically valid.
func Check(prog *Program) error { return summarize(Resolve(prog)) }

// summarize folds resolver diagnostics into Check's single error.
func summarize(errs []*ResolveError) error {
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("minij: %d static error(s):\n%s", len(errs), strings.Join(msgs, "\n"))
}

type resolver struct {
	prog *Program
	errs []*ResolveError

	method_ *Method
	scopes  []map[string]Type
}

func (r *resolver) errorf(pos Pos, format string, args ...any) {
	r.errs = append(r.errs, &ResolveError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (r *resolver) push() { r.scopes = append(r.scopes, map[string]Type{}) }
func (r *resolver) pop()  { r.scopes = r.scopes[:len(r.scopes)-1] }

func (r *resolver) declare(pos Pos, name string, t Type) {
	top := r.scopes[len(r.scopes)-1]
	if _, dup := top[name]; dup {
		r.errorf(pos, "redeclaration of %q", name)
	}
	top[name] = t
}

func (r *resolver) lookup(name string) (Type, bool) {
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if t, ok := r.scopes[i][name]; ok {
			return t, true
		}
	}
	return Type{}, false
}

func (r *resolver) checkDeclaredType(pos Pos, t Type) {
	if t.Kind == TypeObject && r.prog.Class(t.Class) == nil {
		r.errorf(pos, "unknown class %q", t.Class)
	}
}

func (r *resolver) method(m *Method) {
	r.method_ = m
	r.scopes = nil
	r.push()
	r.checkDeclaredType(m.DeclPos, m.Ret)
	for _, p := range m.Params {
		r.checkDeclaredType(m.DeclPos, p.Type)
		r.declare(m.DeclPos, p.Name, p.Type)
	}
	r.stmt(m.Body)
	r.pop()
}

func (r *resolver) stmt(s Stmt) {
	switch n := s.(type) {
	case nil:
	case *Block:
		r.push()
		for _, st := range n.Stmts {
			r.stmt(st)
		}
		r.pop()
	case *VarDecl:
		r.checkDeclaredType(n.Pos(), n.Type)
		if n.Init != nil {
			it := r.expr(n.Init)
			r.requireAssignable(n.Pos(), n.Type, it, "initialize %q", n.Name)
		}
		r.declare(n.Pos(), n.Name, n.Type)
	case *Assign:
		tt := r.lvalue(n.Target)
		vt := r.expr(n.Value)
		r.requireAssignable(n.Pos(), tt, vt, "assign to %s", CanonExpr(n.Target))
	case *If:
		r.requireBool(n.Cond)
		r.stmt(n.Then)
		r.stmt(n.Else)
	case *While:
		r.requireBool(n.Cond)
		r.stmt(n.Body)
	case *For:
		r.push()
		r.stmt(n.Init)
		if n.Cond != nil {
			r.requireBool(n.Cond)
		}
		r.stmt(n.Post)
		r.stmt(n.Body)
		r.pop()
	case *ForEach:
		it := r.expr(n.Iter)
		if it.Kind != TypeList && it.Kind != TypeAny {
			r.errorf(n.Pos(), "foreach requires a list, got %s", it)
		}
		r.push()
		r.declare(n.Pos(), n.Var, Type{Kind: TypeAny})
		r.stmt(n.Body)
		r.pop()
	case *Return:
		if n.Value == nil {
			if r.method_.Ret.Kind != TypeVoid {
				r.errorf(n.Pos(), "missing return value in %s", r.method_.FullName())
			}
			return
		}
		if r.method_.Ret.Kind == TypeVoid {
			r.errorf(n.Pos(), "void method %s returns a value", r.method_.FullName())
			r.expr(n.Value)
			return
		}
		vt := r.expr(n.Value)
		r.requireAssignable(n.Pos(), r.method_.Ret, vt, "return from %s", r.method_.FullName())
	case *Break, *Continue:
	case *Throw:
		vt := r.expr(n.Value)
		if vt.Kind != TypeString && vt.Kind != TypeAny {
			r.errorf(n.Pos(), "throw requires a string, got %s", vt)
		}
	case *Try:
		r.stmt(n.Body)
		r.push()
		r.declare(n.Pos(), n.CatchVar, Type{Kind: TypeString})
		r.stmt(n.Catch)
		r.pop()
	case *Sync:
		lt := r.expr(n.Lock)
		if !lt.IsRef() && lt.Kind != TypeAny {
			r.errorf(n.Pos(), "synchronized requires a reference, got %s", lt)
		}
		r.stmt(n.Body)
	case *ExprStmt:
		if _, ok := n.E.(*Call); !ok {
			if _, ok := n.E.(*New); !ok {
				r.errorf(n.Pos(), "expression statement must be a call")
			}
		}
		r.expr(n.E)
	default:
		r.errorf(s.Pos(), "unhandled statement %T", s)
	}
}

// lvalue resolves an assignment target and returns its declared type.
func (r *resolver) lvalue(e Expr) Type {
	switch n := e.(type) {
	case *Ident:
		if t, ok := r.lookup(n.Name); ok {
			return t
		}
		if !r.method_.Static {
			if f := r.method_.Class.Field(n.Name); f != nil {
				return f.Type
			}
		}
		r.errorf(n.Pos(), "undefined variable %q", n.Name)
		return Type{Kind: TypeAny}
	case *FieldAccess:
		return r.expr(n)
	}
	r.errorf(e.Pos(), "invalid assignment target")
	return Type{Kind: TypeAny}
}

func (r *resolver) requireBool(e Expr) {
	t := r.expr(e)
	if t.Kind != TypeBool && t.Kind != TypeAny {
		r.errorf(e.Pos(), "condition must be bool, got %s", t)
	}
}

// requireAssignable enforces loose assignability: any/null flow freely, and
// reference kinds must otherwise match exactly.
func (r *resolver) requireAssignable(pos Pos, dst, src Type, format string, args ...any) {
	if dst.Kind == TypeAny || src.Kind == TypeAny {
		return
	}
	if src.Kind == TypeNull {
		if !dst.IsRef() {
			r.errorf(pos, "cannot %s: null to %s", fmt.Sprintf(format, args...), dst)
		}
		return
	}
	if dst.Kind != src.Kind {
		r.errorf(pos, "cannot %s: %s to %s", fmt.Sprintf(format, args...), src, dst)
		return
	}
	if dst.Kind == TypeObject && dst.Class != src.Class {
		r.errorf(pos, "cannot %s: %s to %s", fmt.Sprintf(format, args...), src, dst)
	}
}

func (r *resolver) expr(e Expr) Type {
	t := r.exprInner(e)
	r.prog.exprTypes[e] = t
	return t
}

func (r *resolver) exprInner(e Expr) Type {
	switch n := e.(type) {
	case *IntLit:
		return Type{Kind: TypeInt}
	case *BoolLit:
		return Type{Kind: TypeBool}
	case *StrLit:
		return Type{Kind: TypeString}
	case *NullLit:
		return Type{Kind: TypeNull}
	case *Ident:
		if t, ok := r.lookup(n.Name); ok {
			return t
		}
		if !r.method_.Static {
			if f := r.method_.Class.Field(n.Name); f != nil {
				return f.Type
			}
		}
		if r.prog.Class(n.Name) != nil {
			r.errorf(n.Pos(), "class %q used as a value", n.Name)
			return Type{Kind: TypeAny}
		}
		r.errorf(n.Pos(), "undefined variable %q", n.Name)
		return Type{Kind: TypeAny}
	case *FieldAccess:
		rt := r.exprAsReceiver(n.Recv)
		switch rt.Kind {
		case TypeObject:
			c := r.prog.Class(rt.Class)
			if c == nil {
				return Type{Kind: TypeAny}
			}
			f := c.Field(n.Name)
			if f == nil {
				r.errorf(n.Pos(), "class %s has no field %q", rt.Class, n.Name)
				return Type{Kind: TypeAny}
			}
			return f.Type
		case TypeAny:
			return Type{Kind: TypeAny}
		}
		r.errorf(n.Pos(), "field access on %s value", rt)
		return Type{Kind: TypeAny}
	case *Call:
		return r.call(n)
	case *New:
		c := r.prog.Class(n.Class)
		if c == nil {
			r.errorf(n.Pos(), "unknown class %q", n.Class)
		} else if init := c.Method("init"); init != nil {
			if len(n.Args) != len(init.Params) {
				r.errorf(n.Pos(), "new %s: %d args, init wants %d", n.Class, len(n.Args), len(init.Params))
			}
		} else if len(n.Args) != 0 {
			r.errorf(n.Pos(), "class %s has no init method but new has args", n.Class)
		}
		for _, a := range n.Args {
			r.expr(a)
		}
		return Type{Kind: TypeObject, Class: n.Class}
	case *Unary:
		xt := r.expr(n.X)
		switch n.Op {
		case "!":
			if xt.Kind != TypeBool && xt.Kind != TypeAny {
				r.errorf(n.Pos(), "operator ! requires bool, got %s", xt)
			}
			return Type{Kind: TypeBool}
		case "-":
			if xt.Kind != TypeInt && xt.Kind != TypeAny {
				r.errorf(n.Pos(), "unary - requires int, got %s", xt)
			}
			return Type{Kind: TypeInt}
		}
		r.errorf(n.Pos(), "unknown unary operator %q", n.Op)
		return Type{Kind: TypeAny}
	case *Binary:
		return r.binary(n)
	}
	r.errorf(e.Pos(), "unhandled expression %T", e)
	return Type{Kind: TypeAny}
}

// exprAsReceiver types an expression in receiver position, where a bare
// class name is not an error (it denotes a static namespace; the caller
// decides whether that is legal).
func (r *resolver) exprAsReceiver(e Expr) Type {
	if id, ok := e.(*Ident); ok {
		if _, isVar := r.lookup(id.Name); !isVar {
			isField := !r.method_.Static && r.method_.Class.Field(id.Name) != nil
			if !isField && r.prog.Class(id.Name) != nil {
				r.errorf(id.Pos(), "class %s has no such member access", id.Name)
				return Type{Kind: TypeAny}
			}
		}
	}
	return r.expr(e)
}

func (r *resolver) binary(n *Binary) Type {
	xt := r.expr(n.X)
	yt := r.expr(n.Y)
	anyInvolved := xt.Kind == TypeAny || yt.Kind == TypeAny
	switch n.Op {
	case "&&", "||":
		if !anyInvolved && (xt.Kind != TypeBool || yt.Kind != TypeBool) {
			r.errorf(n.Pos(), "operator %s requires bools, got %s and %s", n.Op, xt, yt)
		}
		return Type{Kind: TypeBool}
	case "==", "!=":
		// Equality is permitted between compatible kinds and against null.
		if !anyInvolved && xt.Kind != TypeNull && yt.Kind != TypeNull && xt.Kind != yt.Kind {
			r.errorf(n.Pos(), "cannot compare %s with %s", xt, yt)
		}
		if (xt.Kind == TypeNull && !yt.IsRef() && yt.Kind != TypeAny) ||
			(yt.Kind == TypeNull && !xt.IsRef() && xt.Kind != TypeAny) {
			r.errorf(n.Pos(), "cannot compare %s with null", nonNullOf(xt, yt))
		}
		return Type{Kind: TypeBool}
	case "<", "<=", ">", ">=":
		if !anyInvolved && (xt.Kind != TypeInt || yt.Kind != TypeInt) {
			r.errorf(n.Pos(), "operator %s requires ints, got %s and %s", n.Op, xt, yt)
		}
		return Type{Kind: TypeBool}
	case "+":
		if xt.Kind == TypeString || yt.Kind == TypeString {
			return Type{Kind: TypeString}
		}
		if anyInvolved {
			return Type{Kind: TypeAny}
		}
		if xt.Kind != TypeInt || yt.Kind != TypeInt {
			r.errorf(n.Pos(), "operator + requires ints or strings, got %s and %s", xt, yt)
		}
		return Type{Kind: TypeInt}
	case "-", "*", "/", "%":
		if !anyInvolved && (xt.Kind != TypeInt || yt.Kind != TypeInt) {
			r.errorf(n.Pos(), "operator %s requires ints, got %s and %s", n.Op, xt, yt)
		}
		return Type{Kind: TypeInt}
	}
	r.errorf(n.Pos(), "unknown operator %q", n.Op)
	return Type{Kind: TypeAny}
}

func nonNullOf(a, b Type) Type {
	if a.Kind == TypeNull {
		return b
	}
	return a
}

// call resolves a call expression, classifying its Kind and checking arity.
func (r *resolver) call(n *Call) Type {
	for _, a := range n.Args {
		r.expr(a)
	}
	// Unqualified call: sibling method or builtin.
	if n.Recv == nil {
		if m := r.method_.Class.Method(n.Name); m != nil {
			n.Kind = CallSelf
			if r.method_.Static && !m.Static {
				r.errorf(n.Pos(), "static method %s calls instance method %s", r.method_.FullName(), m.Name)
			}
			r.checkArity(n, len(m.Params))
			return m.Ret
		}
		if sig, ok := Builtin(n.Name); ok {
			n.Kind = CallBuiltin
			if sig.Arity >= 0 {
				r.checkArity(n, sig.Arity)
			}
			return sig.Ret
		}
		r.errorf(n.Pos(), "undefined function %q", n.Name)
		return Type{Kind: TypeAny}
	}
	// Static call: receiver is a bare class name that is not shadowed by a
	// variable or field.
	if id, ok := n.Recv.(*Ident); ok {
		_, isVar := r.lookup(id.Name)
		isField := !r.method_.Static && r.method_.Class.Field(id.Name) != nil
		if !isVar && !isField {
			if c := r.prog.Class(id.Name); c != nil {
				m := c.Method(n.Name)
				if m == nil {
					r.errorf(n.Pos(), "class %s has no method %q", c.Name, n.Name)
					return Type{Kind: TypeAny}
				}
				if !m.Static {
					r.errorf(n.Pos(), "%s.%s is not static", c.Name, n.Name)
				}
				n.Kind = CallStatic
				r.checkArity(n, len(m.Params))
				return m.Ret
			}
		}
	}
	// Instance call.
	rt := r.expr(n.Recv)
	n.Kind = CallInstance
	switch rt.Kind {
	case TypeObject:
		c := r.prog.Class(rt.Class)
		if c == nil {
			return Type{Kind: TypeAny}
		}
		m := c.Method(n.Name)
		if m == nil {
			r.errorf(n.Pos(), "class %s has no method %q", rt.Class, n.Name)
			return Type{Kind: TypeAny}
		}
		if m.Static {
			r.errorf(n.Pos(), "%s.%s is static; call it on the class", rt.Class, n.Name)
		}
		r.checkArity(n, len(m.Params))
		return m.Ret
	case TypeList, TypeMap:
		arity, ok := ContainerMethod(rt.Kind, n.Name)
		if !ok {
			r.errorf(n.Pos(), "%s has no method %q", rt, n.Name)
			return Type{Kind: TypeAny}
		}
		r.checkArity(n, arity)
		return containerMethodRet(rt.Kind, n.Name)
	case TypeAny:
		return Type{Kind: TypeAny}
	}
	r.errorf(n.Pos(), "method call on %s value", rt)
	return Type{Kind: TypeAny}
}

func containerMethodRet(kind TypeKind, name string) Type {
	switch name {
	case "size":
		return Type{Kind: TypeInt}
	case "contains", "has", "isEmpty", "remove":
		if kind == TypeMap && name == "remove" {
			return Type{Kind: TypeAny}
		}
		return Type{Kind: TypeBool}
	case "keys", "values":
		return Type{Kind: TypeList}
	case "add", "addAll", "put", "clear", "removeAt":
		return Type{Kind: TypeVoid}
	case "get":
		return Type{Kind: TypeAny}
	}
	return Type{Kind: TypeAny}
}

func (r *resolver) checkArity(n *Call, want int) {
	if len(n.Args) != want {
		r.errorf(n.Pos(), "call to %s: %d args, want %d", n.Name, len(n.Args), want)
	}
}
