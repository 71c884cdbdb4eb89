package minij

// CallSite is one call a statement performs directly.
type CallSite struct {
	Method *Method // enclosing method
	Stmt   Stmt
	Call   *Call
}

// CallSites returns the direct call sites (see DirectCalls) of the named
// callee — "Class.method", or "builtin.name" for a builtin — in walk order:
// methods in declaration order, statements in source order, calls in
// evaluation order. The index behind it is built on first use, once per
// program, and is shared read-only; the program must be resolved.
func (p *Program) CallSites(callee string) []CallSite {
	p.callsOnce.Do(func() {
		p.calls = map[string][]CallSite{}
		for _, m := range p.Methods() {
			WalkStmts(m.Body, func(s Stmt) {
				for _, call := range DirectCalls(s) {
					if name := p.CalleeName(m, call); name != "" {
						p.calls[name] = append(p.calls[name], CallSite{Method: m, Stmt: s, Call: call})
					}
				}
			})
		}
	})
	return p.calls[callee]
}

// CalleeName resolves the qualified "Class.method" name a call refers to,
// or "" when unresolvable. caller is the enclosing method (for unqualified
// sibling calls). The program must be resolved.
func (p *Program) CalleeName(caller *Method, call *Call) string {
	switch call.Kind {
	case CallSelf:
		return caller.Class.Name + "." + call.Name
	case CallStatic:
		if id, ok := call.Recv.(*Ident); ok {
			return id.Name + "." + call.Name
		}
	case CallInstance:
		rt := p.TypeOf(call.Recv)
		if rt.Kind == TypeObject {
			return rt.Class + "." + call.Name
		}
	case CallBuiltin:
		return "builtin." + call.Name
	}
	return ""
}

// DirectCalls returns the call expressions belonging to statement s itself,
// not to nested statements, so a target statement is the statement that
// directly performs the call. A for loop's clauses are not its own: init
// and post are statements of their own, and the condition belongs to the
// iterations.
func DirectCalls(s Stmt) []*Call {
	var out []*Call
	add := func(e Expr) { collectCalls(e, &out) }
	switch n := s.(type) {
	case *VarDecl:
		if n.Init != nil {
			add(n.Init)
		}
	case *Assign:
		add(n.Target)
		add(n.Value)
	case *If:
		add(n.Cond)
	case *While:
		add(n.Cond)
	case *ForEach:
		add(n.Iter)
	case *Return:
		if n.Value != nil {
			add(n.Value)
		}
	case *Throw:
		add(n.Value)
	case *Sync:
		add(n.Lock)
	case *ExprStmt:
		add(n.E)
	}
	return out
}

func collectCalls(e Expr, out *[]*Call) {
	switch n := e.(type) {
	case *Call:
		*out = append(*out, n)
		if n.Recv != nil {
			collectCalls(n.Recv, out)
		}
		for _, a := range n.Args {
			collectCalls(a, out)
		}
	case *FieldAccess:
		collectCalls(n.Recv, out)
	case *New:
		for _, a := range n.Args {
			collectCalls(a, out)
		}
	case *Unary:
		collectCalls(n.X, out)
	case *Binary:
		collectCalls(n.X, out)
		collectCalls(n.Y, out)
	}
}
