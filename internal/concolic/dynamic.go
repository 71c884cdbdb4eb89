package concolic

import (
	"fmt"
	"strings"

	"lisa/internal/contract"
	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// SiteHit records one dynamic execution of a target statement: the
// relevance-filtered conjunction of branch conditions recorded in the
// site's frame up to that point, plus where the execution came from.
type SiteHit struct {
	Site *contract.Site
	// Cond is the frame-local path condition over operand paths.
	Cond smt.Formula
	// Bindings maps slot names to operand paths at the hit.
	Bindings map[string]string
	// CallChain lists the qualified method names on the stack, outermost
	// first, ending with the site's enclosing method.
	CallChain []string
	// TestName labels the concrete input (set by the runner's caller).
	TestName string
	// ConcreteChecker is the checker formula evaluated against the actual
	// runtime state at the hit — the runtime-monitor view. TriFalse means
	// this concrete execution really did reach the target in a
	// rule-violating state.
	ConcreteChecker Tri
	// PostHolds is the contract's postcondition Q evaluated against the
	// runtime state immediately after the target statement executed
	// (TriUnknown when the semantic has no Q or the state was not
	// resolvable).
	PostHolds Tri
}

// Verdict applies the complement check to this hit.
func (h *SiteHit) Verdict() Verdict {
	return h.VerdictLim(smt.Limits{})
}

// VerdictLim is Verdict under explicit solver limits; a degraded query
// yields VerdictInconclusive.
func (h *SiteHit) VerdictLim(lim smt.Limits) Verdict {
	checker, ok := CheckerFor(h.Site.Semantic, h.Bindings)
	if !ok {
		return VerdictUnknown
	}
	v, _ := CheckPathLim(h.Cond, checker, lim)
	return v
}

// String renders the hit.
func (h *SiteHit) String() string {
	return fmt.Sprintf("%s [%s] cond=%s", h.Site, strings.Join(h.CallChain, " -> "), h.Cond)
}

// Runner replays concrete inputs (tests) through the interpreter while
// recording, per stack frame, the translated form of every branch condition
// taken — the dynamic half of the paper's concolic assertion step. The
// injected "code snippet right after all selected branches" of §3.2
// corresponds to the OnBranch hook; the per-target check corresponds to the
// OnStmt hook firing on a registered site statement.
type Runner struct {
	Prog *minij.Program
	In   *interp.Interp

	// Hits collects every dynamic execution of a registered site.
	Hits []*SiteHit
	// StmtsCovered records executed statement IDs (coverage metrics).
	StmtsCovered map[int]bool
	// BranchesCovered records (stmt ID, direction) pairs.
	BranchesCovered map[int]map[bool]bool

	sitesByStmt map[int][]*contract.Site
	shadow      []*dframe
	methodStack []*minij.Method
	testName    string
	noPrune     bool
}

// dframe is the shadow symbolic state of one runtime frame.
type dframe struct {
	env   *sframe
	order []int // guard stmt IDs in first-recorded order
	conds map[int]recordedCond
	// inherited carries caller-frame conditions over values passed as call
	// arguments, renamed into this frame's parameter vocabulary —
	// the dynamic counterpart of chain analysis.
	inherited []recordedCond
	// pendingPost holds hits whose postcondition Q awaits evaluation at
	// the next observation point in this frame (the state "after s").
	pendingPost []*pendingPost
}

type pendingPost struct {
	hit *SiteHit
	q   smt.Formula
	// roots captures the runtime values of the postcondition's root
	// variables at the target statement; heap references stay live, so a
	// later field read observes the post-statement state even after the
	// frame's scopes unwind.
	roots map[string]interp.Value
}

// flushPost evaluates any pending postconditions against the frame's
// current state (the first observation point after the target statement).
func (d *dframe) flushPost() {
	for _, p := range d.pendingPost {
		roots := p.roots
		p.hit.PostHolds = EvalConcreteWith(p.q, func(root string) (interp.Value, bool) {
			v, ok := roots[root]
			return v, ok
		})
	}
	d.pendingPost = nil
}

// allConds returns inherited conditions followed by this frame's own, in
// recording order.
func (d *dframe) allConds() []recordedCond {
	out := make([]recordedCond, 0, len(d.inherited)+len(d.order))
	out = append(out, d.inherited...)
	for _, id := range d.order {
		out = append(out, d.conds[id])
	}
	return out
}

// NewRunner builds a runner over prog with the given registered sites,
// creating a fresh interpreter with the supplied options.
func NewRunner(prog *minij.Program, sites []*contract.Site, opts interp.Options) *Runner {
	r := &Runner{
		Prog:            prog,
		In:              interp.NewWithOptions(prog, opts),
		StmtsCovered:    map[int]bool{},
		BranchesCovered: map[int]map[bool]bool{},
		sitesByStmt:     map[int][]*contract.Site{},
	}
	for _, s := range sites {
		r.sitesByStmt[s.Stmt.ID()] = append(r.sitesByStmt[s.Stmt.ID()], s)
	}
	r.install()
	return r
}

// SetNoPrune disables relevance filtering of recorded conditions (the
// pruning ablation).
func (r *Runner) SetNoPrune(v bool) { r.noPrune = v }

func (r *Runner) install() {
	r.In.Hooks.OnEnter = func(m *minij.Method, fr *interp.Frame, call *minij.Call) {
		child := &dframe{env: newSFrame(r.Prog), conds: map[int]recordedCond{}}
		if call != nil {
			if caller := r.top(); caller != nil {
				renames := map[string]string{}
				for i, p := range m.Params {
					if i >= len(call.Args) {
						break
					}
					if t, ok := translateTerm(call.Args[i], caller.env); ok {
						if t.isPath {
							renames[t.path] = p.Name
						} else if t.isConst {
							child.env.setConst(p.Name, t.c)
							child.env.markAssigned(p.Name)
						}
					}
				}
				for _, rc := range caller.allConds() {
					if rf, ok := renameFormula(rc.f, renames); ok {
						child.inherited = append(child.inherited, recordedCond{
							f: rf,
							guard: GuardStep{
								Guard: strings.TrimSuffix(rc.guard.Guard, " (inherited)") + " (inherited)",
								Taken: rc.guard.Taken,
								Pos:   rc.guard.Pos,
							},
						})
					}
				}
				for path, c := range caller.env.consts {
					if rp, ok := renamePath(path, renames); ok {
						child.env.setConst(rp, c)
					}
				}
			}
		}
		r.methodStack = append(r.methodStack, m)
		r.shadow = append(r.shadow, child)
	}
	r.In.Hooks.OnExit = func(m *minij.Method) {
		if top := r.top(); top != nil {
			top.flushPost()
		}
		r.methodStack = r.methodStack[:len(r.methodStack)-1]
		r.shadow = r.shadow[:len(r.shadow)-1]
	}
	r.In.Hooks.OnBranch = func(s minij.Stmt, cond minij.Expr, taken bool, fr *interp.Frame) {
		id := s.ID()
		if r.BranchesCovered[id] == nil {
			r.BranchesCovered[id] = map[bool]bool{}
		}
		r.BranchesCovered[id][taken] = true
		top := r.top()
		if top == nil {
			return
		}
		f, ok := Translate(cond, top.env)
		if !ok {
			return
		}
		if !taken {
			f = smt.NNF(smt.NewNot(f))
		}
		if _, isConst := f.(*smt.Const); isConst {
			return
		}
		if _, seen := top.conds[id]; !seen {
			top.order = append(top.order, id)
		}
		// Keep the latest recording: inside loops the most recent decision
		// reflects the state that reaches the target.
		top.conds[id] = recordedCond{
			f:     f,
			guard: GuardStep{Guard: minij.CanonExpr(cond), Taken: taken, Pos: cond.Pos()},
		}
	}
	r.In.Hooks.OnStmt = func(s minij.Stmt, fr *interp.Frame) {
		r.StmtsCovered[s.ID()] = true
		top := r.top()
		if top == nil {
			return
		}
		// A new statement in this frame means the previous (site)
		// statement finished: evaluate pending postconditions.
		top.flushPost()
		if sites := r.sitesByStmt[s.ID()]; len(sites) > 0 {
			for _, site := range sites {
				r.recordHit(site, top, fr)
			}
		}
		// Apply assignment effects to the shadow environment.
		switch n := s.(type) {
		case *minij.VarDecl:
			if n.Init != nil {
				top.env.store(n.Name, n.Init)
			} else {
				top.env.store(n.Name, zeroLiteral(n.Type))
			}
		case *minij.Assign:
			switch t := n.Target.(type) {
			case *minij.Ident:
				top.env.store(t.Name, n.Value)
			case *minij.FieldAccess:
				if term, ok := translateTerm(t, top.env); ok && term.isPath {
					top.env.storePath(term.path, n.Value)
				}
			}
		}
	}
}

func (r *Runner) top() *dframe {
	if len(r.shadow) == 0 {
		return nil
	}
	return r.shadow[len(r.shadow)-1]
}

func (r *Runner) recordHit(site *contract.Site, top *dframe, fr *interp.Frame) {
	bindings := map[string]string{}
	relevant := map[string]bool{}
	for slot := range site.Semantic.Target.Bind {
		operand, ok := site.Bindings[slot]
		if !ok {
			continue
		}
		if t, tok := translateTerm(operand, top.env); tok && t.isPath {
			bindings[slot] = t.path
			relevant[smt.Root(t.path)] = true
		}
	}
	var conds []smt.Formula
	for _, rc := range top.allConds() {
		keep := r.noPrune
		if !keep {
			for root := range smt.Roots(rc.f) {
				if relevant[root] {
					keep = true
					break
				}
			}
		}
		if keep {
			conds = append(conds, rc.f)
		}
	}
	if r.noPrune {
		all := map[string]bool{}
		for path := range top.env.consts {
			all[smt.Root(path)] = true
		}
		conds = append(conds, constFacts(top.env, all)...)
	} else {
		conds = append(conds, constFacts(top.env, relevant)...)
	}
	chain := make([]string, len(r.methodStack))
	for i, m := range r.methodStack {
		chain[i] = m.FullName()
	}
	hit := &SiteHit{
		Site:      site,
		Cond:      smt.NewAnd(conds...),
		Bindings:  bindings,
		CallChain: chain,
		TestName:  r.testName,
	}
	if checker, ok := CheckerFor(site.Semantic, bindings); ok {
		hit.ConcreteChecker = EvalConcrete(checker, fr)
	}
	if site.Semantic.Post != nil {
		q := site.Semantic.Post
		for slot := range site.Semantic.Target.Bind {
			if path, ok := bindings[slot]; ok {
				q = smt.RenameRoot(q, slot, path)
			}
		}
		resolve := FrameResolver(fr)
		roots := map[string]interp.Value{}
		for r := range smt.Roots(q) {
			if v, ok := resolve(r); ok {
				roots[r] = v
			}
		}
		top.pendingPost = append(top.pendingPost, &pendingPost{hit: hit, q: q, roots: roots})
	}
	r.Hits = append(r.Hits, hit)
}

// RunStatic invokes a static entry method as one concrete input, labeling
// resulting hits with testName. Uncaught MiniJ exceptions are returned but
// do not invalidate hits recorded before the unwind.
func (r *Runner) RunStatic(testName, class, method string, args ...interp.Value) error {
	r.testName = testName
	_, err := r.In.CallStatic(class, method, args...)
	return err
}

// CoverageRatio returns the fraction of program statements executed so far.
func (r *Runner) CoverageRatio() float64 {
	n := r.Prog.NumStmts()
	if n == 0 {
		return 0
	}
	return float64(len(r.StmtsCovered)) / float64(n)
}
