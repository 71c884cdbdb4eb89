package contract

import (
	"sort"

	"lisa/internal/callgraph"
	"lisa/internal/interp"
	"lisa/internal/minij"
)

// NoNestedSync is a second structural rule demonstrating the framework's
// generality beyond the paper's blocking-I/O example: no synchronized block
// may be entered while another is already held, on any path — the classic
// lock-ordering deadlock risk. The zero value applies program-wide; Only
// restricts it to specific methods.
type NoNestedSync struct {
	// Only, when non-empty, restricts findings to outer synchronized
	// blocks inside the named methods ("Class.method").
	Only map[string]bool
}

// Name implements StructuralRule.
func (r NoNestedSync) Name() string {
	if len(r.Only) > 0 {
		return "no-nested-sync(scoped)"
	}
	return "no-nested-sync"
}

// Describe implements StructuralRule.
func (NoNestedSync) Describe() string {
	return "No synchronized block may be entered while another lock is held."
}

// Check implements StructuralRule with an interprocedural may-lock
// analysis: a method may lock if it contains a synchronized block or
// (transitively) calls a method that does. Every statement inside a
// synchronized block that is itself a synchronized block, or calls a
// may-lock method, is a finding.
func (r NoNestedSync) Check(prog *minij.Program) []*StructuralViolation {
	g := callgraph.Build(prog)

	directLock := map[*minij.Method]bool{}
	for _, m := range prog.Methods() {
		minij.WalkStmts(m.Body, func(s minij.Stmt) {
			if _, ok := s.(*minij.Sync); ok {
				directLock[m] = true
			}
		})
	}
	mayLock := map[*minij.Method]bool{}
	for m := range directLock {
		mayLock[m] = true
	}
	for changed := true; changed; {
		changed = false
		for _, m := range prog.Methods() {
			if mayLock[m] {
				continue
			}
			for _, e := range g.Callees[m] {
				if mayLock[e.Callee] {
					mayLock[m] = true
					changed = true
					break
				}
			}
		}
	}

	var lockChain func(m *minij.Method, seen map[*minij.Method]bool) []string
	lockChain = func(m *minij.Method, seen map[*minij.Method]bool) []string {
		if directLock[m] {
			return []string{m.FullName(), "synchronized"}
		}
		seen[m] = true
		for _, e := range g.Callees[m] {
			if seen[e.Callee] || !mayLock[e.Callee] {
				continue
			}
			if chain := lockChain(e.Callee, seen); chain != nil {
				return append([]string{m.FullName()}, chain...)
			}
		}
		return nil
	}

	var out []*StructuralViolation
	for _, m := range prog.Methods() {
		if len(r.Only) > 0 && !r.Only[m.FullName()] {
			continue
		}
		minij.WalkStmts(m.Body, func(s minij.Stmt) {
			sync, ok := s.(*minij.Sync)
			if !ok {
				return
			}
			minij.WalkStmts(sync.Body, func(inner minij.Stmt) {
				if _, nested := inner.(*minij.Sync); nested {
					out = append(out, &StructuralViolation{
						Rule:    r.Name(),
						Method:  m,
						Stmt:    inner,
						Builtin: "synchronized",
						Chain:   []string{"synchronized"},
					})
					return
				}
				for _, call := range minij.DirectCalls(inner) {
					if call.Kind == minij.CallBuiltin {
						continue
					}
					for _, edge := range calleesOf(g, m, call) {
						if !mayLock[edge] {
							continue
						}
						chain := lockChain(edge, map[*minij.Method]bool{})
						if chain == nil {
							continue
						}
						out = append(out, &StructuralViolation{
							Rule:    r.Name(),
							Method:  m,
							Stmt:    inner,
							Builtin: "synchronized",
							Chain:   chain,
						})
					}
				}
			})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Method.FullName() != out[j].Method.FullName() {
			return out[i].Method.FullName() < out[j].Method.FullName()
		}
		return out[i].Stmt.Pos().Before(out[j].Stmt.Pos())
	})
	return out
}

// RuntimeNestedLockMonitor records synchronized entries that occur while a
// lock is already held — the dynamic counterpart of NoNestedSync. It works
// off the interpreter's lock-depth accounting via a statement hook.
type RuntimeNestedLockMonitor struct {
	// Events records (method, position) pairs for nested acquisitions.
	Events []NestedLockEvent
}

// NestedLockEvent is one observed nested acquisition.
type NestedLockEvent struct {
	Method string
	Pos    minij.Pos
	Depth  int
}

// Attach chains the monitor onto the interpreter's OnStmt hook, preserving
// any existing hook.
func (mon *RuntimeNestedLockMonitor) Attach(in *interp.Interp) {
	prev := in.Hooks.OnStmt
	in.Hooks.OnStmt = func(s minij.Stmt, fr *interp.Frame) {
		if _, ok := s.(*minij.Sync); ok && in.LocksHeld() > 0 {
			mon.Events = append(mon.Events, NestedLockEvent{
				Method: fr.Method.FullName(),
				Pos:    s.Pos(),
				Depth:  in.LocksHeld() + 1,
			})
		}
		if prev != nil {
			prev(s, fr)
		}
	}
}

// Violated reports whether any nested acquisition was observed.
func (mon *RuntimeNestedLockMonitor) Violated() bool { return len(mon.Events) > 0 }
