package concolic

import (
	"sort"
	"strings"

	"lisa/internal/callgraph"
	"lisa/internal/contract"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// maxChainStates bounds the symbolic states carried across each frame of a
// chain.
const maxChainStates = 64

// ChainStaticPaths enumerates static paths to a site along one
// execution-tree chain, inheriting guard conditions from caller frames:
// conditions recorded in a caller that constrain values passed as call
// arguments are renamed into the callee's parameter vocabulary and carried
// down — the interprocedural half of the paper's execution-tree assertion.
// An empty chain reduces to the intraprocedural StaticPaths.
func ChainStaticPaths(prog *minij.Program, site *contract.Site, chain callgraph.Path, opts Options) ([]*StaticPath, bool) {
	if len(chain) == 0 {
		return StaticPaths(prog, site, opts)
	}
	seeds := []*sframe{newSFrame(prog)}
	truncated := false
	for _, edge := range chain {
		stmt := stmtOfCall(prog, edge.Caller, edge.Call)
		if stmt == nil {
			// Should not happen for a well-formed chain; fall back to an
			// unconstrained entry into the callee.
			seeds = []*sframe{newSFrame(prog)}
			continue
		}
		states, trunc := walkStatesTo(prog, edge.Caller, stmt.ID(), maxChainStates, seeds, opts)
		truncated = truncated || trunc
		next := make([]*sframe, 0, len(states))
		dedup := map[string]bool{}
		for _, st := range states {
			child := inheritFrame(prog, st, edge.Callee, edge.Call)
			key := frameKey(child)
			if dedup[key] {
				continue
			}
			dedup[key] = true
			next = append(next, child)
		}
		if len(next) == 0 {
			// No caller path reaches the call site: nothing flows down.
			return nil, truncated
		}
		seeds = next
	}
	paths, trunc := staticPathsFrom(prog, site, opts, seeds)
	return paths, truncated || trunc
}

// stmtOfCall locates the statement of m that directly performs the given
// call expression.
func stmtOfCall(prog *minij.Program, m *minij.Method, call *minij.Call) minij.Stmt {
	var found minij.Stmt
	minij.WalkStmts(m.Body, func(s minij.Stmt) {
		if found != nil {
			return
		}
		minij.WalkExprs(s, func(e minij.Expr) {
			if e == minij.Expr(call) {
				// The *innermost* statement owning the call: refine by
				// checking nested statements later in the walk; WalkStmts
				// visits parents before children, so keep overwriting.
				found = s
			}
		})
	})
	if found == nil {
		return nil
	}
	// Refine to the innermost owning statement.
	inner := found
	minij.WalkStmts(found, func(s minij.Stmt) {
		owns := false
		for _, c := range minij.DirectCalls(s) {
			if c == call {
				owns = true
			}
		}
		if owns {
			inner = s
		}
	})
	return inner
}

// inheritFrame builds the callee's seed state from a caller state at a call
// site: caller conditions over argument values are renamed into parameter
// vocabulary; everything else is dropped (not expressible in the callee).
func inheritFrame(prog *minij.Program, caller *sframe, callee *minij.Method, call *minij.Call) *sframe {
	child := newSFrame(prog)
	// Argument path -> parameter name renames.
	renames := map[string]string{}
	for i, p := range callee.Params {
		if i >= len(call.Args) {
			break
		}
		if t, ok := translateTerm(call.Args[i], caller); ok {
			if t.isPath {
				renames[t.path] = p.Name
			} else if t.isConst {
				// A constant argument becomes a known constant of the
				// parameter (normalization across the call boundary).
				child.setConst(p.Name, t.c)
				child.markAssigned(p.Name)
			}
		}
	}
	// Carry renamed constants (caller facts about argument state).
	for path, c := range caller.consts {
		if renamed, ok := renamePath(path, renames); ok {
			child.setConst(renamed, c)
		}
	}
	// Carry conditions whose every root renames into parameter vocabulary.
	for _, rc := range caller.conds {
		f, ok := renameFormula(rc.f, renames)
		if !ok {
			continue
		}
		child.conds = append(child.conds, recordedCond{
			f: f,
			guard: GuardStep{
				Guard: rc.guard.Guard + " (inherited)",
				Taken: rc.guard.Taken,
				Pos:   rc.guard.Pos,
			},
			roots: condRoots(f),
		})
	}
	return child
}

// renamePath rewrites a dotted path whose prefix matches an argument path
// into parameter vocabulary.
func renamePath(path string, renames map[string]string) (string, bool) {
	if param, ok := renames[path]; ok {
		return param, true
	}
	for argPath, param := range renames {
		if strings.HasPrefix(path, argPath+".") {
			return param + path[len(argPath):], true
		}
	}
	return "", false
}

// renameFormula rewrites every path of f through renames; ok is false when
// any path does not rename (the condition is not expressible in the
// callee).
func renameFormula(f smt.Formula, renames map[string]string) (smt.Formula, bool) {
	ok := true
	out := smt.MapAtoms(f, func(a smt.Atom) smt.Atom {
		if p, k := renamePath(a.Path, renames); k {
			a.Path = p
		} else {
			ok = false
		}
		if a.Kind == smt.AtomCmpV {
			if p, k := renamePath(a.Path2, renames); k {
				a.Path2 = p
			} else {
				ok = false
			}
		}
		return a
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// frameKey fingerprints a seed state for deduplication.
func frameKey(st *sframe) string {
	var sb strings.Builder
	for _, rc := range st.conds {
		sb.WriteString(rc.f.String())
		sb.WriteByte(';')
	}
	keys := make([]string, 0, len(st.consts))
	for p := range st.consts {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, p := range keys {
		sb.WriteString(p)
		sb.WriteByte('=')
		sb.WriteString(FormatConst(st.consts[p]))
		sb.WriteByte(';')
	}
	return sb.String()
}
