// Package infer extracts low-level semantics from failure tickets. It is
// the deterministic stand-in for the LLM in the paper's pipeline: given the
// same bundle the paper's prompt receives (failure description, code patch,
// post-patch source), it walks the same reasoning steps — identify the root
// cause, state the high-level semantic, state the implementation-local
// invariant, and translate it into a (condition statement, target
// statement) pair.
//
// The extraction is structural: the patch analyzer aligns the buggy and
// fixed ASTs, finds guards that the fix introduced or strengthened, works
// out which operation each guard protects, and emits the protection
// predicate as a contract over the operation's operands. A seeded
// StochasticInferencer wraps the analyzer to reproduce the §5 reliability
// study (non-determinism and hallucination), and CrossCheck implements the
// defence the paper proposes: validating mined semantics against actual
// system behavior.
package infer

import (
	"fmt"
	"sort"
	"strings"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// Result is the structured output of one inference run — the analogue of
// the JSON object the paper's prompt requests.
type Result struct {
	Ticket string
	// HighLevel is the system-level behavioral property.
	HighLevel string
	// Semantics are the extracted low-level semantics in checkable form.
	Semantics []*contract.Semantic
	// Reasoning records the derivation steps, one entry per step.
	Reasoning []string
}

// Inferencer produces semantics from a ticket bundle.
type Inferencer interface {
	Infer(tk *ticket.Ticket) (*Result, error)
}

// PatchAnalyzer is the deterministic inference engine.
type PatchAnalyzer struct {
	// Generalize enables pattern-level abstraction of site-specific rules
	// (e.g. lifting "no ioWrite inside serializeNode's synchronized block"
	// to "no blocking I/O inside any synchronized block", Figure 6).
	Generalize bool
}

// identityEnv resolves every identifier to itself (inference translates
// guards syntactically; constants are not tracked across the method here).
// It carries the resolved program so getter normalization applies to mined
// conditions exactly as it does to recorded path conditions.
type identityEnv struct{ prog *minij.Program }

func (identityEnv) PathOf(name string) (string, bool)        { return name, true }
func (identityEnv) ConstOf(string) (concolic.ConstVal, bool) { return concolic.ConstVal{}, false }
func (e identityEnv) Program() *minij.Program                { return e.prog }

// Infer implements Inferencer.
func (pa *PatchAnalyzer) Infer(tk *ticket.Ticket) (*Result, error) {
	buggy, err := compile(tk.BuggySource)
	if err != nil {
		return nil, fmt.Errorf("infer %s: buggy source: %w", tk.ID, err)
	}
	fixed, err := compile(tk.FixedSource)
	if err != nil {
		return nil, fmt.Errorf("infer %s: fixed source: %w", tk.ID, err)
	}
	res := &Result{Ticket: tk.ID}
	res.Reasoning = append(res.Reasoning,
		fmt.Sprintf("Step 1 (root cause): ticket %s reports %q; comparing the buggy and patched versions.", tk.ID, tk.Title))

	changed := changedMethods(buggy, fixed)
	if len(changed) == 0 {
		res.Reasoning = append(res.Reasoning, "No method-level changes detected; nothing to infer.")
		return res, nil
	}
	var names []string
	for _, m := range changed {
		names = append(names, m.FullName())
	}
	res.Reasoning = append(res.Reasoning,
		fmt.Sprintf("Changed methods: %s.", strings.Join(names, ", ")))

	seen := map[string]bool{}
	for _, m := range changed {
		for _, cand := range extractGuards(buggy, fixed, m) {
			sem, reasoning := pa.buildSemantic(tk, fixed, m, cand)
			if sem == nil {
				continue
			}
			key := sem.Target.Callee + "|" + sem.Pre.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			if err := sem.Validate(); err != nil {
				res.Reasoning = append(res.Reasoning, fmt.Sprintf("Discarded candidate: %v.", err))
				continue
			}
			res.Semantics = append(res.Semantics, sem)
			res.Reasoning = append(res.Reasoning, reasoning...)
		}
	}
	if pa.Generalize {
		if sems, reasoning := generalizeBlocking(tk, buggy, fixed); len(sems) > 0 {
			res.Semantics = append(res.Semantics, sems...)
			res.Reasoning = append(res.Reasoning, reasoning...)
		}
	}
	res.HighLevel = highLevelOf(tk, res.Semantics)
	res.Reasoning = append(res.Reasoning,
		fmt.Sprintf("Step 2 (high-level semantics): %s", res.HighLevel))
	return res, nil
}

// compile loads a ticket version through the shared snapshot cache:
// replaying the corpus re-infers from the same buggy/fixed pairs many
// times, and every pass after the first is a front-end cache hit.
func compile(src string) (*minij.Program, error) {
	snap, err := program.Load(src)
	if err != nil {
		return nil, err
	}
	return snap.Program(), nil
}

// changedMethods returns the fixed-version methods whose bodies differ from
// their buggy-version counterparts (including newly added methods).
func changedMethods(buggy, fixed *minij.Program) []*minij.Method {
	var out []*minij.Method
	for _, fm := range fixed.Methods() {
		bm := buggy.Method(fm.Class.Name, fm.Name)
		if bm == nil || methodText(bm) != methodText(fm) {
			out = append(out, fm)
		}
	}
	return out
}

func methodText(m *minij.Method) string {
	var parts []string
	minij.WalkStmts(m.Body, func(s minij.Stmt) {
		parts = append(parts, minij.CanonStmt(s))
	})
	return strings.Join(parts, "\n")
}

// guardCandidate is one guard the fix introduced or strengthened.
type guardCandidate struct {
	ifStmt *minij.If
	// rejection is true when the then-branch terminates (throw/return/
	// continue/break): the protection predicate is the guard's negation
	// and the protected operations follow the guard.
	rejection bool
	// protectedCalls are the candidate target operations, in order.
	protectedCalls []*minij.Call
	// pre is the protection predicate over local variable paths.
	pre smt.Formula
}

// extractGuards finds the new or strengthened guards of a changed method.
func extractGuards(buggy, fixed *minij.Program, m *minij.Method) []guardCandidate {
	// Conditions already present in the buggy version of this method.
	oldConds := map[string]bool{}
	if bm := buggy.Method(m.Class.Name, m.Name); bm != nil {
		minij.WalkStmts(bm.Body, func(s minij.Stmt) {
			if n, ok := s.(*minij.If); ok {
				oldConds[minij.CanonExpr(n.Cond)] = true
			}
		})
	}
	var out []guardCandidate
	// Visit every block exactly once; within each block, pair guards with
	// the statements that follow them.
	minij.WalkStmts(m.Body, func(s minij.Stmt) {
		b, ok := s.(*minij.Block)
		if !ok {
			return
		}
		for i, st := range b.Stmts {
			first, isIf := st.(*minij.If)
			if !isIf {
				continue
			}
			// Walk the whole else-if ladder: a guard strengthened in any
			// rung protects the statements after the ladder.
			for ladder := first; ladder != nil; {
				if !oldConds[minij.CanonExpr(ladder.Cond)] {
					if cand, valid := classifyGuard(fixed, ladder, b.Stmts[i+1:]); valid {
						out = append(out, cand)
					}
				}
				next, chained := ladder.Else.(*minij.If)
				if !chained {
					break
				}
				ladder = next
			}
		}
	})
	return out
}

// classifyGuard determines the protection shape of a fresh guard,
// translating its condition under the resolved program (for getter
// normalization).
func classifyGuard(prog *minij.Program, ifStmt *minij.If, following []minij.Stmt) (guardCandidate, bool) {
	cand := guardCandidate{ifStmt: ifStmt}
	f, ok := concolic.Translate(ifStmt.Cond, identityEnv{prog: prog})
	if !ok {
		return cand, false
	}
	if terminates(ifStmt.Then) {
		// Rejection guard: "if (bad) throw; protectedOp(...);"
		cand.rejection = true
		cand.pre = smt.NNF(smt.NewNot(f))
		for _, s := range following {
			cand.protectedCalls = append(cand.protectedCalls, allCallsIn(s)...)
		}
	} else {
		// Wrapping guard: "if (good) { protectedOp(...); }"
		cand.pre = smt.NNF(f)
		for _, s := range ifStmt.Then.Stmts {
			cand.protectedCalls = append(cand.protectedCalls, allCallsIn(s)...)
		}
	}
	if len(cand.protectedCalls) == 0 {
		return cand, false
	}
	return cand, true
}

// terminates reports whether a block always exits the enclosing control
// flow (ignoring trailing logs).
func terminates(b *minij.Block) bool {
	for _, s := range b.Stmts {
		switch s.(type) {
		case *minij.Throw, *minij.Return, *minij.Break, *minij.Continue:
			return true
		}
	}
	return false
}

func allCallsIn(s minij.Stmt) []*minij.Call {
	var out []*minij.Call
	minij.WalkExprs(s, func(e minij.Expr) {
		if c, ok := e.(*minij.Call); ok {
			out = append(out, c)
		}
	})
	return out
}

// buildSemantic converts a guard candidate into a validated contract,
// selecting the protected operation whose operands bind the guard's
// variables.
func (pa *PatchAnalyzer) buildSemantic(tk *ticket.Ticket, fixed *minij.Program, m *minij.Method, cand guardCandidate) (*contract.Semantic, []string) {
	roots := smt.Roots(cand.pre)
	type scored struct {
		call  *minij.Call
		bind  map[string]int
		bound map[string]bool
		score int
		order int
	}
	var best *scored
	for order, call := range cand.protectedCalls {
		if call.Kind == minij.CallBuiltin && !minij.IsBlockingBuiltin(call.Name) {
			continue // log/str/etc. are not semantic operations
		}
		bind := map[string]int{}
		bound := map[string]bool{}
		if call.Recv != nil {
			if p, ok := contract.ExprPath(call.Recv); ok && roots[smt.Root(p)] {
				bind[smt.Root(p)] = contract.ReceiverSlot
				bound[smt.Root(p)] = true
			}
		}
		for i, a := range call.Args {
			if p, ok := contract.ExprPath(a); ok && roots[smt.Root(p)] {
				r := smt.Root(p)
				if _, dup := bind[r]; !dup {
					bind[r] = i
					bound[r] = true
				}
			}
		}
		if len(bound) == 0 {
			continue
		}
		s := &scored{call: call, bind: bind, bound: bound, score: len(bound)*10 - order, order: order}
		if best == nil || s.score > best.score {
			best = s
		}
	}
	if best == nil {
		return nil, nil
	}
	callee := fixed.CalleeName(m, best.call)
	if callee == "" {
		return nil, nil
	}
	// Drop conjuncts whose roots could not be bound to operands (the
	// paper's placeholder-to-variable mapping succeeds only for operands).
	pre, dropped := restrictToRoots(cand.pre, best.bound)
	if pre == nil {
		return nil, nil
	}
	sem := &contract.Semantic{
		ID:          semanticID(tk.ID, callee),
		Kind:        contract.StateKind,
		Origin:      []string{tk.ID},
		Target:      contract.TargetPattern{Callee: callee, Bind: best.bind},
		Pre:         pre,
		Description: fmt.Sprintf("No caller may invoke %s unless %s.", callee, pre),
	}
	reasoning := []string{
		fmt.Sprintf("Step 3 (low-level semantics): the patch to %s guards %s with %q.",
			m.FullName(), minij.CanonExpr(best.call), cand.pre),
		fmt.Sprintf("Step 4 (checkable form): condition %q must hold at every call to %s (slots %v).",
			pre, callee, bindSummary(best.bind)),
	}
	if len(dropped) > 0 {
		reasoning = append(reasoning, fmt.Sprintf(
			"Dropped conjuncts over unbindable variables: %s.", strings.Join(dropped, ", ")))
	}
	return sem, reasoning
}

func bindSummary(bind map[string]int) []string {
	var out []string
	for slot, idx := range bind {
		if idx == contract.ReceiverSlot {
			out = append(out, slot+"=receiver")
		} else {
			out = append(out, fmt.Sprintf("%s=arg%d", slot, idx))
		}
	}
	sort.Strings(out)
	return out
}

// restrictToRoots keeps only the parts of an NNF formula whose roots are
// all bound, returning the pruned formula and the dropped fragments. A
// top-level conjunction prunes per conjunct; any other shape is kept or
// dropped atomically.
func restrictToRoots(f smt.Formula, bound map[string]bool) (smt.Formula, []string) {
	allBound := func(g smt.Formula) bool {
		for r := range smt.Roots(g) {
			if !bound[r] {
				return false
			}
		}
		return true
	}
	if and, ok := f.(*smt.And); ok {
		var keep []smt.Formula
		var dropped []string
		for _, x := range and.Xs {
			if allBound(x) {
				keep = append(keep, x)
			} else {
				dropped = append(dropped, x.String())
			}
		}
		if len(keep) == 0 {
			return nil, dropped
		}
		return smt.NewAnd(keep...), dropped
	}
	if allBound(f) {
		return f, nil
	}
	return nil, []string{f.String()}
}

func semanticID(ticketID, callee string) string {
	return strings.ToLower(ticketID) + "-" + strings.ToLower(strings.ReplaceAll(callee, ".", "-"))
}

// generalizeBlocking detects the Figure 6 pattern: the fix moved blocking
// I/O out of a synchronized block. It emits both the literal rule (scoped
// to the fixed method) and the generalized system-wide rule; the ablation
// compares their reach.
func generalizeBlocking(tk *ticket.Ticket, buggy, fixed *minij.Program) ([]*contract.Semantic, []string) {
	buggyViolations := contract.NoBlockingInSync{}.Check(buggy)
	if len(buggyViolations) == 0 {
		return nil, nil
	}
	fixedViolations := contract.NoBlockingInSync{}.Check(fixed)
	if len(fixedViolations) >= len(buggyViolations) {
		return nil, nil
	}
	// Methods whose violations the fix removed.
	fixedSet := map[string]int{}
	for _, v := range fixedViolations {
		fixedSet[v.Method.FullName()]++
	}
	removed := map[string]bool{}
	for _, v := range buggyViolations {
		name := v.Method.FullName()
		if fixedSet[name] > 0 {
			fixedSet[name]--
			continue
		}
		removed[name] = true
	}
	if len(removed) == 0 {
		return nil, nil
	}
	var methods []string
	for m := range removed {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	literal := &contract.Semantic{
		ID:          strings.ToLower(tk.ID) + "-no-blocking-in-sync-literal",
		Kind:        contract.StructuralKind,
		Origin:      []string{tk.ID},
		Structural:  contract.NoBlockingInSync{Only: removed},
		Description: fmt.Sprintf("No blocking I/O inside the synchronized blocks of %s.", strings.Join(methods, ", ")),
	}
	general := &contract.Semantic{
		ID:          strings.ToLower(tk.ID) + "-no-blocking-in-sync",
		Kind:        contract.StructuralKind,
		Origin:      []string{tk.ID},
		Structural:  contract.NoBlockingInSync{},
		Description: "No blocking I/O within synchronized blocks, anywhere in the system.",
	}
	reasoning := []string{
		fmt.Sprintf("Step 3 (low-level semantics): the patch moved blocking I/O out of synchronized blocks in %s.",
			strings.Join(methods, ", ")),
		"Step 5 (generalization): the direct rule is specific to the patched function; abstracting to " +
			"the behavior class \"no blocking I/O within synchronized blocks\" captures the developer intent " +
			"and applies across code changes.",
	}
	return []*contract.Semantic{literal, general}, reasoning
}

// highLevelOf synthesizes the high-level semantic statement.
func highLevelOf(tk *ticket.Ticket, sems []*contract.Semantic) string {
	if len(sems) == 0 {
		return fmt.Sprintf("Behavior reported in %s must not recur.", tk.ID)
	}
	return fmt.Sprintf("The system-level property behind %s (%s) must hold on every execution path, not only the one patched.",
		tk.ID, tk.Title)
}
