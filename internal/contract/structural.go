package contract

import (
	"fmt"
	"sort"

	"lisa/internal/callgraph"
	"lisa/internal/interp"
	"lisa/internal/minij"
)

// StructuralRule is a generalized, pattern-level semantic: a system-wide
// behavior class abstracted from a site-specific rule (§3.1, Figure 6:
// "no blocking I/O within synchronized blocks"). Structural rules check
// program structure rather than per-path state predicates.
type StructuralRule interface {
	// Name identifies the rule.
	Name() string
	// Describe states the rule in natural language.
	Describe() string
	// Check statically scans a resolved program for violations.
	Check(prog *minij.Program) []*StructuralViolation
}

// StructuralViolation is one static finding of a structural rule.
type StructuralViolation struct {
	Rule    string
	Method  *minij.Method // method lexically containing the synchronized block
	Stmt    minij.Stmt    // offending statement
	Builtin string        // blocking builtin ultimately reached
	// Chain is the call chain from the synchronized block to the blocking
	// builtin; length 1 means the blocking call is lexically inside the
	// block.
	Chain []string
}

// String renders the violation.
func (v *StructuralViolation) String() string {
	return fmt.Sprintf("%s: %s @%s blocks on %s via %v",
		v.Rule, v.Method.FullName(), v.Stmt.Pos(), v.Builtin, v.Chain)
}

// NoBlockingInSync is the generalized Figure 6 rule: no blocking I/O may
// execute while a synchronized block is held, on any path. The zero value
// is ready to use and applies program-wide; setting Only restricts the rule
// to specific methods (the "literal", non-generalized form of the rule that
// the Figure 6 ablation compares against).
type NoBlockingInSync struct {
	// Only, when non-empty, restricts findings to synchronized blocks
	// inside the named methods ("Class.method").
	Only map[string]bool
}

// Name implements StructuralRule.
func (r NoBlockingInSync) Name() string {
	if len(r.Only) > 0 {
		return "no-blocking-io-in-sync(scoped)"
	}
	return "no-blocking-io-in-sync"
}

// Describe implements StructuralRule.
func (NoBlockingInSync) Describe() string {
	return "No blocking I/O call may execute while a synchronized block is held."
}

// Check implements StructuralRule with an interprocedural may-block
// analysis: a method may block if it directly invokes a blocking builtin or
// (transitively) calls a method that does. Every statement inside a
// synchronized block that directly blocks or calls a may-block method is a
// violation.
func (r NoBlockingInSync) Check(prog *minij.Program) []*StructuralViolation {
	g := callgraph.Build(prog)

	// directBlock maps each method to a blocking builtin it calls directly
	// (outside or inside sync; the lexical position matters only at the
	// sync site).
	directBlock := map[*minij.Method]string{}
	for _, m := range prog.Methods() {
		minij.WalkExprs(m.Body, func(e minij.Expr) {
			call, ok := e.(*minij.Call)
			if !ok || call.Kind != minij.CallBuiltin {
				return
			}
			if minij.IsBlockingBuiltin(call.Name) {
				if _, seen := directBlock[m]; !seen {
					directBlock[m] = call.Name
				}
			}
		})
	}

	// mayBlock fixpoint over the call graph.
	mayBlock := map[*minij.Method]bool{}
	for m := range directBlock {
		mayBlock[m] = true
	}
	for changed := true; changed; {
		changed = false
		for _, m := range prog.Methods() {
			if mayBlock[m] {
				continue
			}
			for _, e := range g.Callees[m] {
				if mayBlock[e.Callee] {
					mayBlock[m] = true
					changed = true
					break
				}
			}
		}
	}

	// blockChain finds a call chain from m to a blocking builtin.
	var blockChain func(m *minij.Method, seen map[*minij.Method]bool) []string
	blockChain = func(m *minij.Method, seen map[*minij.Method]bool) []string {
		if b, ok := directBlock[m]; ok {
			return []string{m.FullName(), "builtin." + b}
		}
		seen[m] = true
		for _, e := range g.Callees[m] {
			if seen[e.Callee] || !mayBlock[e.Callee] {
				continue
			}
			if chain := blockChain(e.Callee, seen); chain != nil {
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
				for _, call := range minij.DirectCalls(inner) {
					switch call.Kind {
					case minij.CallBuiltin:
						if minij.IsBlockingBuiltin(call.Name) {
							out = append(out, &StructuralViolation{
								Rule:    r.Name(),
								Method:  m,
								Stmt:    inner,
								Builtin: call.Name,
								Chain:   []string{"builtin." + call.Name},
							})
						}
					case minij.CallSelf, minij.CallStatic, minij.CallInstance:
						for _, edge := range calleesOf(g, m, call) {
							if !mayBlock[edge] {
								continue
							}
							chain := blockChain(edge, map[*minij.Method]bool{})
							if chain == nil {
								continue
							}
							out = append(out, &StructuralViolation{
								Rule:    r.Name(),
								Method:  m,
								Stmt:    inner,
								Builtin: chain[len(chain)-1],
								Chain:   chain,
							})
						}
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

// calleesOf returns the callee methods of one call expression within m.
func calleesOf(g *callgraph.Graph, m *minij.Method, call *minij.Call) []*minij.Method {
	var out []*minij.Method
	for _, e := range g.Callees[m] {
		if e.Call == call {
			out = append(out, e.Callee)
		}
	}
	return out
}

// RuntimeBlockingMonitor observes an interpreter run and records every
// blocking builtin executed while a lock is held — the dynamic counterpart
// of NoBlockingInSync, used by the CI gate to confirm static findings.
type RuntimeBlockingMonitor struct {
	Events []interp.IOEvent
}

// Attach chains the monitor onto the interpreter's OnBuiltin hook,
// preserving any existing hook.
func (mon *RuntimeBlockingMonitor) Attach(in *interp.Interp) {
	prev := in.Hooks.OnBuiltin
	in.Hooks.OnBuiltin = func(ev interp.IOEvent) {
		if ev.Blocking && ev.LocksHeld > 0 {
			mon.Events = append(mon.Events, ev)
		}
		if prev != nil {
			prev(ev)
		}
	}
}

// Violated reports whether any blocking-under-lock event was observed.
func (mon *RuntimeBlockingMonitor) Violated() bool { return len(mon.Events) > 0 }
