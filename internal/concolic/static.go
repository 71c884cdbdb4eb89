package concolic

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"

	"lisa/internal/contract"
	"lisa/internal/faultinject"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// GuardStep records one branch decision along a static path, for reports.
type GuardStep struct {
	Guard string // canonical guard text
	Taken bool
	Pos   minij.Pos
}

// String renders the step.
func (g GuardStep) String() string {
	if g.Taken {
		return g.Guard
	}
	return "!(" + g.Guard + ")"
}

// StaticPath is one intraprocedural branch path from the entry of the
// site's enclosing method to the target statement.
type StaticPath struct {
	Site *contract.Site
	// Cond is the relevance-filtered path condition: the conjunction of
	// recorded guard formulas whose roots intersect the slot operand roots
	// (the paper's pruning).
	Cond smt.Formula
	// FullCond is the unfiltered path condition (for the pruning ablation).
	FullCond smt.Formula
	// Bindings maps slot names to their operand paths at emission.
	Bindings map[string]string
	// Guards lists the branch decisions along the path in order.
	Guards []GuardStep
}

// String renders the path's decisions.
func (p *StaticPath) String() string {
	if len(p.Guards) == 0 {
		return "(unconditional)"
	}
	parts := make([]string, len(p.Guards))
	for i, g := range p.Guards {
		parts[i] = g.String()
	}
	return strings.Join(parts, " ; ")
}

// Options configure static path enumeration.
type Options struct {
	// MaxPaths bounds emitted paths per site (0 = DefaultMaxPaths).
	MaxPaths int
	// NoPrune disables relevance filtering, so Cond equals FullCond
	// (the pruning ablation).
	NoPrune bool
	// Ctx, when non-nil, is polled during enumeration; cancellation stops
	// the walk early and reports the result as truncated (callers check
	// the context themselves to distinguish cancellation from a full
	// budget).
	Ctx context.Context
	// Lim bounds the prefix-pruning satisfiability queries issued during
	// enumeration (zero value: solver defaults, no cancellation).
	Lim smt.Limits
	// NoPrefixPrune disables unsat-prefix subtree pruning (the ablation):
	// statically infeasible branch suffixes are then enumerated and
	// discharged path by path as before.
	NoPrefixPrune bool
}

// ctxPollMask throttles the walker's cooperative-cancellation poll: the
// context is checked whenever states&ctxPollMask == 0. The 256-state
// cadence mirrors smt's search poll (and interp's wider step poll) —
// frequent enough that cancellation lands promptly, rare enough that the
// select stays off the enumeration hot path.
const ctxPollMask = 1<<8 - 1

// DefaultMaxPaths bounds path enumeration per site.
const DefaultMaxPaths = 512

// StaticPaths enumerates the intraprocedural branch paths of the site's
// enclosing method that reach the target statement, collecting translated
// guard conditions. Loops contribute at most one iteration per path (their
// guards are recorded once on entry); guards outside the predicate fragment
// fork without contributing a constraint, exactly like the paper's
// "skipped" branches. Paths are deduplicated by their contribution: two
// branch histories with the same filtered condition and bindings are one
// logical path.
func StaticPaths(prog *minij.Program, site *contract.Site, opts Options) (paths []*StaticPath, truncated bool) {
	return staticPathsFrom(prog, site, opts, []*sframe{newSFrame(prog)})
}

// staticPathsFrom enumerates paths to the site's statement starting from
// the given seed states (each carrying conditions inherited from callers).
func staticPathsFrom(prog *minij.Program, site *contract.Site, opts Options, seeds []*sframe) (paths []*StaticPath, truncated bool) {
	if faultinject.Armed() {
		if k, ok := faultinject.At("concolic.paths:" + site.Method.FullName()); ok && k == faultinject.Panic {
			panic("faultinject: concolic.paths " + site.Method.FullName())
		}
	}
	maxPaths := opts.MaxPaths
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	collector := &siteCollector{site: site, opts: opts, seen: map[string]bool{}}
	trunc := false
	for _, seed := range seeds {
		w := &staticWalker{
			prog:      prog,
			method:    site.Method,
			targetID:  site.Stmt.ID(),
			maxPaths:  maxPaths,
			ctx:       opts.Ctx,
			lim:       opts.Lim,
			prune:     !opts.NoPrefixPrune,
			seedPrune: !opts.NoPrefixPrune,
			emit:      collector.emit,
		}
		// A seed carrying an unsatisfiable inherited prefix can reach
		// nothing; one query kills the whole walk.
		if w.seedPrune && len(seed.conds) > 0 && !w.prefixSat(seed) {
			continue
		}
		w.walkSeq(site.Method.Body.Stmts, 0, seed, walkCtx{}, func(*sframe) {})
		trunc = trunc || w.trunc
	}
	sort.Slice(collector.out, func(i, j int) bool {
		return collector.out[i].Cond.String() < collector.out[j].Cond.String()
	})
	return collector.out, trunc
}

// walkStatesTo enumerates the symbolic states reaching an arbitrary target
// statement of a method from the given seeds (used by chain analysis to
// reach call sites of the next frame).
func walkStatesTo(prog *minij.Program, m *minij.Method, targetID, maxStates int, seeds []*sframe, opts Options) (states []*sframe, truncated bool) {
	trunc := false
	for _, seed := range seeds {
		w := &staticWalker{
			prog:     prog,
			method:   m,
			targetID: targetID,
			maxPaths: maxStates,
			ctx:      opts.Ctx,
			lim:      opts.Lim,
			// Fork-level pruning is deliberately off here: chain states
			// carrying an unsatisfiable prefix die at the next frame's
			// seed check (one query per seed), which costs far less than
			// checking every fork of every intermediate state.
			seedPrune: !opts.NoPrefixPrune,
			emit: func(st *sframe) {
				if len(states) < maxStates {
					states = append(states, st.clone())
				}
			},
		}
		if w.seedPrune && len(seed.conds) > 0 && !w.prefixSat(seed) {
			continue
		}
		w.walkSeq(m.Body.Stmts, 0, seed, walkCtx{}, func(*sframe) {})
		trunc = trunc || w.trunc
		if len(states) >= maxStates {
			return states, true
		}
	}
	return states, trunc
}

// siteCollector converts emitted walker states into deduplicated
// StaticPaths with slot bindings and relevance filtering.
type siteCollector struct {
	site *contract.Site
	opts Options
	seen map[string]bool
	out  []*StaticPath
}

func (c *siteCollector) emit(st *sframe) {
	bindings := map[string]string{}
	relevant := map[string]bool{}
	for slot := range c.site.Semantic.Target.Bind {
		operand, ok := c.site.Bindings[slot]
		if !ok {
			continue
		}
		if t, tok := translateTerm(operand, st); tok && t.isPath {
			bindings[slot] = t.path
			relevant[smt.Root(t.path)] = true
		}
	}
	var filtered, full []smt.Formula
	var guards []GuardStep
	for _, rc := range st.conds {
		full = append(full, rc.f)
		keep := c.opts.NoPrune
		if !keep {
			for r := range smt.Roots(rc.f) {
				if relevant[r] {
					keep = true
					break
				}
			}
		}
		if keep {
			filtered = append(filtered, rc.f)
			guards = append(guards, rc.guard)
		}
	}
	// Known constants over relevant paths are state facts guaranteed on
	// this path (a guard mentioning them folded during translation); they
	// belong in the path condition or the complement check would treat
	// them as unconstrained.
	facts := constFacts(st, relevant)
	filtered = append(filtered, facts...)
	full = append(full, facts...)
	p := &StaticPath{
		Site:     c.site,
		Cond:     smt.NewAnd(filtered...),
		FullCond: smt.NewAnd(full...),
		Bindings: bindings,
		Guards:   guards,
	}
	key := p.dedupKey()
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.out = append(c.out, p)
}

// constFacts materializes the environment's constant knowledge about
// relevant paths as formulas, in deterministic order.
func constFacts(st *sframe, relevant map[string]bool) []smt.Formula {
	var keys []string
	for path := range st.consts {
		if relevant[smt.Root(path)] {
			keys = append(keys, path)
		}
	}
	sort.Strings(keys)
	var out []smt.Formula
	for _, path := range keys {
		c := st.consts[path]
		switch c.Kind {
		case minij.TypeBool:
			if c.Bool {
				out = append(out, smt.NewAtom(smt.BoolAtom(path)))
			} else {
				out = append(out, smt.NewNot(smt.NewAtom(smt.BoolAtom(path))))
			}
		case minij.TypeInt:
			out = append(out, smt.NewAtom(smt.CmpCAtom(path, smt.OpEq, c.Int)))
		case minij.TypeString:
			out = append(out, smt.NewAtom(smt.StrEqAtom(path, smt.OpEq, c.Str)))
		case minij.TypeNull:
			out = append(out, smt.NewAtom(smt.NullAtom(path)))
		}
	}
	return out
}

// sframe is the symbolic state of one enumeration branch. Frames are
// copy-on-write: clone shares every map and the condition prefix with the
// new frame, and a frame copies a map only when it first writes it while
// shared, so a branch that records a guard and nothing else copies nothing.
// A nil map reads as empty and is allocated on first write. Every map
// write goes through the setters below (and invalidate).
type sframe struct {
	prog     *minij.Program
	aliases  map[string]string
	consts   map[string]ConstVal
	versions map[string]int
	assigned map[string]bool
	// shared flags the maps that another frame may also hold.
	shared uint8
	// conds is the recorded condition prefix. Frames share its backing
	// array; only the frame whose slice has spare capacity may append in
	// place, and clone hands that right to the new frame (see clone).
	conds []recordedCond
}

// Bits of sframe.shared.
const (
	sharedAliases uint8 = 1 << iota
	sharedConsts
	sharedVersions
	sharedAssigned
	sharedAll = sharedAliases | sharedConsts | sharedVersions | sharedAssigned
)

// owned returns a map st may write in place of m: m itself when st owns
// it, else a private copy (or a new map for a nil one), clearing bit.
func owned[V any](st *sframe, m map[string]V, bit uint8) map[string]V {
	switch {
	case m == nil:
		m = map[string]V{}
	case st.shared&bit != 0:
		m = maps.Clone(m)
	}
	st.shared &^= bit
	return m
}

func (st *sframe) setAlias(name, path string) {
	st.aliases = owned(st, st.aliases, sharedAliases)
	st.aliases[name] = path
}

func (st *sframe) dropAlias(name string) {
	if _, ok := st.aliases[name]; ok {
		st.aliases = owned(st, st.aliases, sharedAliases)
		delete(st.aliases, name)
	}
}

func (st *sframe) setConst(path string, c ConstVal) {
	st.consts = owned(st, st.consts, sharedConsts)
	st.consts[path] = c
}

func (st *sframe) bumpVersion(name string) {
	st.versions = owned(st, st.versions, sharedVersions)
	st.versions[name]++
}

// markAssigned records an assignment to name and reports whether it was
// the first.
func (st *sframe) markAssigned(name string) bool {
	if st.assigned[name] {
		return false
	}
	st.assigned = owned(st, st.assigned, sharedAssigned)
	st.assigned[name] = true
	return true
}

type recordedCond struct {
	f     smt.Formula
	guard GuardStep
	// roots memoizes f's variable roots at record time so the
	// prefix-pruning disjointness test in fork does not rewalk every prior
	// condition. A small sorted slice: guards mention a handful of roots,
	// so linear scans beat map allocation on this hot path.
	roots []string
}

// condRoots collects f's distinct variable roots as a sorted slice without
// allocating intermediate maps (unlike smt.Roots).
func condRoots(f smt.Formula) []string {
	var roots []string
	add := func(p string) {
		r := smt.Root(p)
		for _, have := range roots {
			if have == r {
				return
			}
		}
		roots = append(roots, r)
	}
	smt.VisitAtoms(f, func(a smt.Atom) bool {
		add(a.Path)
		if a.Kind == smt.AtomCmpV {
			add(a.Path2)
		}
		return true
	})
	sort.Strings(roots)
	return roots
}

func newSFrame(prog *minij.Program) *sframe { return &sframe{prog: prog} }

// clone forks st. The two frames share every map until one writes it. The
// new frame also takes over st's right to append to the shared condition
// array in place, and st's slice is clipped to its length, so when st later
// appends (or is cloned again) it reallocates rather than overwrite the
// elements the new frame appends.
func (st *sframe) clone() *sframe {
	st.shared = sharedAll
	c := *st
	st.conds = st.conds[:len(st.conds):len(st.conds)]
	return &c
}

// PathOf implements Env: locals resolve through aliases and versioning;
// unknown names are their own root.
func (st *sframe) PathOf(name string) (string, bool) {
	if p, ok := st.aliases[name]; ok {
		return p, true
	}
	if v := st.versions[name]; v > 0 {
		return fmt.Sprintf("%s#%d", name, v), true
	}
	return name, true
}

// ConstOf implements Env.
func (st *sframe) ConstOf(path string) (ConstVal, bool) {
	c, ok := st.consts[path]
	return c, ok
}

// Program implements ProgramProvider, enabling getter normalization.
func (st *sframe) Program() *minij.Program { return st.prog }

// store records the effect of an assignment to name (a bare identifier).
func (st *sframe) store(name string, value minij.Expr) {
	// Invalidate previous knowledge about the old path of this name.
	st.dropAlias(name)
	cur, _ := st.PathOf(name)
	st.invalidate(cur)
	first := st.markAssigned(name)
	if c, ok := LiteralConst(value); ok {
		st.setConst(cur, c)
		return
	}
	if t, ok := translateTerm(value, st); ok && t.isPath {
		st.setAlias(name, t.path)
		return
	}
	// Opaque: the first binding keeps the bare name as its root; a
	// rebinding bumps the version so stale atoms do not conflate values.
	if !first {
		st.bumpVersion(name)
	}
}

// storePath records the effect of an assignment to a field path.
func (st *sframe) storePath(path string, value minij.Expr) {
	st.invalidate(path)
	if c, ok := LiteralConst(value); ok {
		st.setConst(path, c)
	}
}

// invalidate forgets constants for path and everything below it.
func (st *sframe) invalidate(path string) {
	below := func(k string) bool {
		return len(k) > len(path) && k[len(path)] == '.' && strings.HasPrefix(k, path)
	}
	hit := false
	for k := range st.consts {
		if k == path || below(k) {
			hit = true
			break
		}
	}
	if !hit {
		return
	}
	st.consts = owned(st, st.consts, sharedConsts)
	for k := range st.consts {
		if k == path || below(k) {
			delete(st.consts, k)
		}
	}
}

// walkCtx carries control-flow context: the continuation after the
// innermost loop and the active catch handlers.
type walkCtx struct {
	loopExit func(*sframe)
	handlers []handler
}

type handler struct {
	catch *minij.Block
	ctx   walkCtx
	k     func(*sframe)
}

type staticWalker struct {
	prog      *minij.Program
	method    *minij.Method
	targetID  int
	maxPaths  int
	ctx       context.Context
	lim       smt.Limits
	prune     bool
	seedPrune bool
	emit      func(*sframe)
	emitted   int
	states    int
	trunc     bool
	cancelled bool
}

// prefixCond conjoins the state's recorded (unfiltered) conditions.
func prefixCond(st *sframe) smt.Formula {
	fs := make([]smt.Formula, len(st.conds))
	for i, rc := range st.conds {
		fs[i] = rc.f
	}
	return smt.NewAnd(fs...)
}

// prefixDisjoint reports whether f shares no variable roots with the
// state's recorded conditions. Models over disjoint roots merge, so
// conjoining a root-disjoint condition onto a satisfiable prefix is
// satisfiable iff the condition alone is — fork can then discharge the
// much cheaper (and far more cacheable) single-condition query instead of
// re-solving the whole prefix.
// prefixOverlaps reports whether any recorded condition mentions one of
// roots. Both sides are small sorted slices; linear scans allocate nothing.
func prefixOverlaps(roots []string, conds []recordedCond) bool {
	for _, rc := range conds {
		if intersects(rc.roots, roots) {
			return true
		}
	}
	return false
}

// trivSat reports formulas satisfiable by construction, so fork can skip
// the solver for the overwhelmingly common case of a fresh guard over
// untouched variables: a lone literal always has a model (pick the
// variable's value), and a disjunction is satisfiable when any disjunct
// is. The only literal without a model is a self-comparison like x < x —
// those (and anything structurally richer, like a conjunction) fall
// through to the solver.
func trivSat(f smt.Formula) bool {
	switch n := f.(type) {
	case *smt.AtomF:
		return n.Atom.Kind != smt.AtomCmpV || n.Atom.Path != n.Atom.Path2
	case *smt.Not:
		if a, ok := n.X.(*smt.AtomF); ok {
			return a.Atom.Kind != smt.AtomCmpV || a.Atom.Path != a.Atom.Path2
		}
	case *smt.Or:
		for _, x := range n.Xs {
			if trivSat(x) {
				return true
			}
		}
	case *smt.And:
		// A conjunction of bool/null literals is satisfiable whenever no
		// proposition appears in both polarities: distinct propositional
		// atoms never interact through a theory, unlike integer or string
		// comparisons over a shared path (which fall through to the
		// solver). Quadratic over a handful of conjuncts — still far
		// cheaper than rendering a cache key.
		for i, x := range n.Xs {
			a, neg, ok := literalAtom(x)
			if !ok || (a.Kind != smt.AtomBool && a.Kind != smt.AtomNull) {
				return false
			}
			for _, y := range n.Xs[:i] {
				if b, bneg, _ := literalAtom(y); b.Kind == a.Kind && b.Path == a.Path && bneg != neg {
					return false
				}
			}
		}
		return true
	}
	return false
}

// literalAtom unwraps a literal — an atom or a negated atom.
func literalAtom(f smt.Formula) (a smt.Atom, neg, ok bool) {
	switch n := f.(type) {
	case *smt.AtomF:
		return n.Atom, false, true
	case *smt.Not:
		if x, isAtom := n.X.(*smt.AtomF); isAtom {
			return x.Atom, true, true
		}
	}
	return smt.Atom{}, false, false
}

// componentCond conjoins the prefix conditions transitively root-connected
// to the state's newest condition (which must be last in st.conds).
// Conditions over disjoint root sets constrain independent variables, so
// the full prefix is satisfiable iff every root-connected component is —
// and every *other* component was already verified satisfiable when its own
// newest condition was appended. Querying just the newest component is
// therefore as strong as re-solving the whole prefix, while rendering a
// much shorter (and far more cacheable) formula: sibling subtrees that
// differ only in unrelated guards share the component query verbatim.
func componentCond(st *sframe) smt.Formula {
	conds := st.conds
	last := len(conds) - 1
	inComp := make([]bool, len(conds))
	inComp[last] = true
	roots := append([]string(nil), conds[last].roots...)
	for changed := true; changed; {
		changed = false
		for i, rc := range conds[:last] {
			if inComp[i] || !intersects(rc.roots, roots) {
				continue
			}
			inComp[i] = true
			changed = true
			for _, r := range rc.roots {
				if !contains(roots, r) {
					roots = append(roots, r)
				}
			}
		}
	}
	fs := make([]smt.Formula, 0, len(conds))
	for i, rc := range conds {
		if inComp[i] {
			fs = append(fs, rc.f)
		}
	}
	return smt.NewAnd(fs...)
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func intersects(xs, ys []string) bool {
	for _, x := range xs {
		if contains(ys, x) {
			return true
		}
	}
	return false
}

// prefixSat reports whether the state's path-condition prefix is
// satisfiable. Every path in the subtree below this state carries the
// prefix, so one UNSAT query kills the whole subtree instead of letting
// each descendant path be enumerated and discharged separately; shared
// prefixes across sibling subtrees resolve out of the solver's result
// cache. Solver errors — budget, cancellation, injected faults — keep the
// subtree: pruning is an optimization and must not change which paths
// exist under degraded semantics.
func (w *staticWalker) prefixSat(st *sframe) bool {
	sat, err := smt.SATLim(prefixCond(st), w.lim)
	if err != nil {
		return true
	}
	return sat
}

func (w *staticWalker) full() bool {
	return w.cancelled || w.emitted >= w.maxPaths || w.states > w.maxPaths*64
}

// walkSeq walks stmts[i:], calling k when the sequence completes normally.
func (w *staticWalker) walkSeq(stmts []minij.Stmt, i int, st *sframe, ctx walkCtx, k func(*sframe)) {
	w.states++
	if w.ctx != nil && w.states&ctxPollMask == 0 {
		select {
		case <-w.ctx.Done():
			w.cancelled = true
		default:
		}
	}
	if w.full() {
		w.trunc = true
		return
	}
	if i >= len(stmts) {
		k(st)
		return
	}
	s := stmts[i]
	next := func(st2 *sframe) { w.walkSeq(stmts, i+1, st2, ctx, k) }
	if s.ID() == w.targetID {
		w.emitted++
		w.emit(st)
		return
	}
	switch n := s.(type) {
	case *minij.Block:
		w.walkSeq(n.Stmts, 0, st, ctx, next)
	case *minij.VarDecl:
		if n.Init != nil {
			st.store(n.Name, n.Init)
		} else {
			st.store(n.Name, zeroLiteral(n.Type))
		}
		next(st)
	case *minij.Assign:
		switch t := n.Target.(type) {
		case *minij.Ident:
			st.store(t.Name, n.Value)
		case *minij.FieldAccess:
			if term, ok := translateTerm(t, st); ok && term.isPath {
				st.storePath(term.path, n.Value)
			}
		}
		next(st)
	case *minij.If:
		w.fork(n, n.Cond, st, true, func(st2 *sframe) {
			w.walkSeq(n.Then.Stmts, 0, st2, ctx, next)
		})
		w.fork(n, n.Cond, st, false, func(st2 *sframe) {
			if n.Else != nil {
				w.walkSeq([]minij.Stmt{n.Else}, 0, st2, ctx, next)
			} else {
				next(st2)
			}
		})
	case *minij.While:
		w.walkLoop(n, n.Cond, n.Body, st, ctx, next)
	case *minij.For:
		st2 := st.clone()
		if n.Init != nil {
			w.applyEffect(n.Init, st2)
		}
		w.walkLoop(n, n.Cond, n.Body, st2, ctx, next)
	case *minij.ForEach:
		// Skip the loop entirely...
		next(st.clone())
		// ...or take one iteration with an opaque element binding.
		st2 := st.clone()
		if !st2.markAssigned(n.Var) {
			st2.bumpVersion(n.Var)
		}
		st2.dropAlias(n.Var)
		w.walkSeq(n.Body.Stmts, 0, st2, walkCtx{loopExit: next, handlers: ctx.handlers}, next)
	case *minij.Return:
		// The path leaves the method without reaching the target: drop.
	case *minij.Throw:
		w.unwind(st, ctx)
	case *minij.Try:
		inner := ctx
		inner.handlers = append(append([]handler{}, ctx.handlers...), handler{catch: n.Catch, ctx: ctx, k: next})
		w.walkSeq(n.Body.Stmts, 0, st, inner, next)
	case *minij.Sync:
		w.walkSeq(n.Body.Stmts, 0, st, ctx, next)
	case *minij.ExprStmt:
		next(st)
	case *minij.Break, *minij.Continue:
		// One-iteration unrolling: both exit the loop body.
		if ctx.loopExit != nil {
			ctx.loopExit(st)
		}
	default:
		next(st)
	}
}

// applyEffect applies a simple statement's state effect (for-init/post).
func (w *staticWalker) applyEffect(s minij.Stmt, st *sframe) {
	switch n := s.(type) {
	case *minij.VarDecl:
		if n.Init != nil {
			st.store(n.Name, n.Init)
		}
	case *minij.Assign:
		if t, ok := n.Target.(*minij.Ident); ok {
			st.store(t.Name, n.Value)
		}
	}
}

// walkLoop unrolls a condition-guarded loop zero-or-one times.
func (w *staticWalker) walkLoop(s minij.Stmt, cond minij.Expr, body *minij.Block, st *sframe, ctx walkCtx, next func(*sframe)) {
	if cond != nil {
		// Skip the loop: condition false.
		w.fork(s, cond, st, false, next)
		// One iteration: condition true, then exit unconditionally (the
		// exit test after an executed iteration is deliberately not
		// recorded; it would contradict the entry condition for loops
		// whose counters we do not model).
		w.fork(s, cond, st, true, func(st2 *sframe) {
			w.walkSeq(body.Stmts, 0, st2, walkCtx{loopExit: next, handlers: ctx.handlers}, next)
		})
		return
	}
	// for(;;): the body must reach the target or the path dies.
	w.walkSeq(body.Stmts, 0, st.clone(), walkCtx{loopExit: next, handlers: ctx.handlers}, next)
}

// fork explores one direction of a branch, recording the guard when it is
// translatable.
func (w *staticWalker) fork(s minij.Stmt, cond minij.Expr, st *sframe, taken bool, k func(*sframe)) {
	st2 := st.clone()
	if f, ok := Translate(cond, st2); ok {
		if !taken {
			f = smt.NNF(smt.NewNot(f))
		}
		// Constant-folded guards prune impossible directions outright.
		if c, isConst := f.(*smt.Const); isConst {
			if !c.Value {
				return
			}
		} else {
			var roots []string
			if w.prune {
				roots = condRoots(f)
			}
			st2.conds = append(st2.conds, recordedCond{
				f:     f,
				guard: GuardStep{Guard: minij.CanonExpr(cond), Taken: taken, Pos: cond.Pos()},
				roots: roots,
			})
			if w.prune {
				// Solver errors keep the subtree, exactly as in prefixSat.
				check := f
				if prefixOverlaps(roots, st.conds) {
					check = componentCond(st2)
				}
				if !trivSat(check) {
					if sat, err := smt.SATLim(check, w.lim); err == nil && !sat {
						return
					}
				}
			}
		}
	}
	k(st2)
}

// unwind transfers control to the innermost catch handler, or drops the
// path when the exception escapes the method.
func (w *staticWalker) unwind(st *sframe, ctx walkCtx) {
	if len(ctx.handlers) == 0 {
		return
	}
	h := ctx.handlers[len(ctx.handlers)-1]
	w.walkSeq(h.catch.Stmts, 0, st.clone(), h.ctx, h.k)
}

// Key fingerprints the path's logical contribution (bindings plus filtered
// condition); paths from different chains with the same key are one
// finding.
func (p *StaticPath) Key() string { return p.dedupKey() }

func (p *StaticPath) dedupKey() string {
	var sb strings.Builder
	slots := make([]string, 0, len(p.Bindings))
	for s := range p.Bindings {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	for _, s := range slots {
		sb.WriteString(s)
		sb.WriteByte('=')
		sb.WriteString(p.Bindings[s])
		sb.WriteByte(';')
	}
	sb.WriteString(p.Cond.String())
	return sb.String()
}

// zeroLiteral synthesizes the literal for a declared type's zero value.
func zeroLiteral(t minij.Type) minij.Expr {
	switch t.Kind {
	case minij.TypeInt:
		return &minij.IntLit{Value: 0}
	case minij.TypeBool:
		return &minij.BoolLit{Value: false}
	case minij.TypeString:
		return &minij.StrLit{Value: ""}
	default:
		return &minij.NullLit{}
	}
}
