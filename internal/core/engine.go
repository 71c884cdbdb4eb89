// Package core implements the LISA engine: the end-to-end workflow of
// Figure 5. The engine iterates over failure tickets, infers low-level
// semantics from each bundle, optionally cross-checks them against actual
// behavior, registers the survivors as executable contracts, and asserts
// every registered contract across a codebase — statically (execution
// trees + path conditions + the complement check) and dynamically
// (test-driven concolic replay with RAG-style test selection).
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/infer"
	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/smt"
	"lisa/internal/testsel"
	"lisa/internal/ticket"
)

// Engine is the LISA pipeline.
type Engine struct {
	// Inferencer extracts semantics from tickets (stage 1 of Figure 5).
	Inferencer infer.Inferencer
	// Registry stores the executable contracts.
	Registry *contract.Registry
	// CrossCheck validates mined semantics against the ticket's fixed
	// source before registering them (the §5 defence).
	CrossCheck bool
	// TestTopK is how many tests the selector picks per path (default 3).
	TestTopK int
	// MaxStaticPaths bounds per-site path enumeration.
	MaxStaticPaths int
	// NoPrune disables relevant-variable pruning (ablation).
	NoPrune bool
	// NoPrefixPrune disables unsat-prefix subtree pruning during path
	// enumeration (ablation): statically infeasible subtrees are then
	// enumerated and discharged path by path.
	NoPrefixPrune bool
	// IntraOnly disables interprocedural condition inheritance along
	// execution-tree chains (ablation: guards in callers are then
	// invisible, flagging internal helpers their callers protect).
	IntraOnly bool
	// RunAllTests skips similarity-based selection and replays the whole
	// suite (ablation for the test-selection stage).
	RunAllTests bool
	// Budget bounds assertion runs (deadlines, solver nodes, interpreter
	// steps). The zero value means "no deadlines, package defaults".
	Budget Budget
	// Snapshots, when set, is a private snapshot cache for this engine;
	// when nil the process-wide cache is used. Fault-injection experiments
	// use a private cache so corrupted snapshots never poison other runs.
	Snapshots *program.Cache
	// VerifySnapshots re-checks each snapshot against its content address
	// before asserting over it, turning silent cache corruption into an
	// explicit program.ErrMutated failure.
	VerifySnapshots bool
	// Solver, when set, is a private solver result cache for this engine;
	// when nil the process-wide cache is used. A private instance gives
	// exact per-engine query/hit accounting (the daemon's /stats deltas)
	// and can carry its own disk tier.
	Solver *smt.QueryCache
}

// New returns an engine with the deterministic patch analyzer (with
// generalization enabled), an empty registry, and cross-checking on.
func New() *Engine {
	return &Engine{
		Inferencer: &infer.PatchAnalyzer{Generalize: true},
		Registry:   contract.NewRegistry(),
		CrossCheck: true,
		TestTopK:   3,
	}
}

// TicketReport is the outcome of processing one failure ticket.
type TicketReport struct {
	Ticket     *ticket.Ticket
	Result     *infer.Result
	Registered []*contract.Semantic
	Rejected   []infer.CrossCheckResult
	// AlreadyKnown lists semantics equivalent to ones inferred from an
	// earlier ticket — the paper's recurring pattern: the regression
	// violated the same low-level semantic as the original incident.
	AlreadyKnown []*contract.Semantic
}

// ProcessTicket runs inference on a ticket bundle and registers the
// resulting contracts (stages "infer" and "translate" of the workflow).
// Semantics equivalent to an already-registered rule are reported as
// already known rather than registered twice.
func (e *Engine) ProcessTicket(tk *ticket.Ticket) (*TicketReport, error) {
	res, err := e.Inferencer.Infer(tk)
	if err != nil {
		return nil, err
	}
	rep := &TicketReport{Ticket: tk, Result: res}
	sems := res.Semantics
	if e.CrossCheck {
		kept, rejected := infer.FilterGrounded(res, tk)
		sems = kept
		rep.Rejected = rejected
	}
	for _, sem := range sems {
		if known := e.findEquivalent(sem); known != nil {
			known.Origin = append(known.Origin, sem.Origin...)
			rep.AlreadyKnown = append(rep.AlreadyKnown, known)
			continue
		}
		if err := e.Registry.Add(sem); err != nil {
			return nil, fmt.Errorf("register %s: %w", sem.ID, err)
		}
		rep.Registered = append(rep.Registered, sem)
	}
	return rep, nil
}

// findEquivalent returns a registered semantic equivalent to sem, if any.
func (e *Engine) findEquivalent(sem *contract.Semantic) *contract.Semantic {
	for _, ex := range e.Registry.All() {
		if ex.Kind != sem.Kind {
			continue
		}
		switch sem.Kind {
		case contract.StructuralKind:
			if ex.Structural.Name() != sem.Structural.Name() {
				continue
			}
			if stringSetsEqual(structuralScope(ex.Structural), structuralScope(sem.Structural)) {
				return ex
			}
		case contract.StateKind:
			if ex.Target.Callee != sem.Target.Callee {
				continue
			}
			if !bindingsIntEqual(ex.Target.Bind, sem.Target.Bind) {
				continue
			}
			eq, err := smt.EquivErr(canonicalPre(ex), canonicalPre(sem))
			if err == nil && eq {
				// A solver failure means equivalence could not be shown;
				// registering the rule separately is the safe direction.
				return ex
			}
		}
	}
	return nil
}

// canonicalPre renames slot roots to their operand positions so two rules
// over differently named slots compare structurally.
func canonicalPre(sem *contract.Semantic) smt.Formula {
	f := sem.Pre
	for slot, idx := range sem.Target.Bind {
		f = smt.RenameRoot(f, slot, fmt.Sprintf("$op%d", idx))
	}
	return f
}

// structuralScope extracts a structural rule's method restriction, if any.
func structuralScope(rule contract.StructuralRule) map[string]bool {
	switch r := rule.(type) {
	case contract.NoBlockingInSync:
		return r.Only
	case contract.NoNestedSync:
		return r.Only
	}
	return nil
}

func stringSetsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func bindingsIntEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	// Compare the multisets of operand positions.
	counts := map[int]int{}
	for _, v := range a {
		counts[v]++
	}
	for _, v := range b {
		counts[v]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// PathReport is the assertion outcome of one static path to one site.
type PathReport struct {
	Static  *concolic.StaticPath
	Verdict concolic.Verdict
	// CoveredBy lists tests whose dynamic execution matched this path.
	CoveredBy []string
	// DynamicVerdicts maps test name to its hit verdict on this path.
	DynamicVerdicts map[string]concolic.Verdict
	// PostViolatedBy lists tests whose replay reached this path but left
	// the contract's postcondition Q false afterwards.
	PostViolatedBy []string
}

// Covered reports whether any test exercised this path.
func (p *PathReport) Covered() bool { return len(p.CoveredBy) > 0 }

// SiteReport is the assertion outcome of one target-statement site.
type SiteReport struct {
	Site *contract.Site
	// Chains are the entry→site call chains from the execution tree.
	Chains        []callgraph.Path
	TreeTruncated bool
	Paths         []*PathReport
	// SelectedTests are the tests chosen for this site, in rank order.
	SelectedTests []string
}

// SemanticReport is the assertion outcome of one contract.
type SemanticReport struct {
	Semantic   *contract.Semantic
	Sites      []*SiteReport
	Structural []*contract.StructuralViolation
	// StructuralConfirmedBy maps an index into Structural to the tests
	// whose replay dynamically blocked inside the flagged method while a
	// lock was held (the runtime-monitor confirmation of a static finding).
	StructuralConfirmedBy map[int][]string
	// SanityOK means at least one path verified — the paper keeps the
	// "fixed" paths in the tree precisely so that a correct rule shows at
	// least one verified path; a rule with none is suspect.
	SanityOK bool
	// Failures are the contained job failures (panics, timeouts, budget
	// exhaustion) recorded while asserting this semantic, in job order.
	Failures []*JobFailure
}

// Per-semantic outcomes. A definite violation outranks degradation; only a
// fully clean semantic is a PASS.
const (
	OutcomeViolated     = "VIOLATED"
	OutcomeInconclusive = "INCONCLUSIVE"
	OutcomePass         = "PASS"
)

// Outcome classifies the semantic. VIOLATED when any structural finding,
// violating static path, or dynamic postcondition violation surfaced.
// Otherwise INCONCLUSIVE when any job failed, any verdict (static or
// dynamic) is INCONCLUSIVE, or any site is bounded (TreeTruncated: a path
// or call-chain bound cut exploration short, so paths went unchecked) —
// the run degraded, so the absence of a violation proves nothing.
// Otherwise PASS.
func (sr *SemanticReport) Outcome() string {
	violated := len(sr.Structural) > 0
	inconclusive := len(sr.Failures) > 0
	for _, siteRep := range sr.Sites {
		inconclusive = inconclusive || siteRep.TreeTruncated
		for _, p := range siteRep.Paths {
			switch p.Verdict {
			case concolic.VerdictViolation:
				violated = true
			case concolic.VerdictInconclusive:
				inconclusive = true
			}
			if len(p.PostViolatedBy) > 0 {
				violated = true
			}
			for _, v := range p.DynamicVerdicts {
				if v == concolic.VerdictInconclusive {
					inconclusive = true
				}
			}
		}
	}
	if violated {
		return OutcomeViolated
	}
	if inconclusive {
		return OutcomeInconclusive
	}
	return OutcomePass
}

// Counts aggregates verdicts.
type Counts struct {
	Verified   int
	Violations int
	Unknown    int
	Uncovered  int
	// PostViolations counts dynamic hits whose postcondition Q failed.
	PostViolations int
	// Inconclusive counts static paths whose complement check degraded
	// (solver budget, cancellation) instead of deciding.
	Inconclusive int
	// Failures counts contained job failures across all semantics.
	Failures int
}

// StageTimings accumulates wall-clock per workflow stage. A nil map is a
// valid no-op sink, so stage primitives can run untimed.
type StageTimings map[string]time.Duration

// Time runs f and charges its wall-clock to the named stage.
func (t StageTimings) Time(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t[name] += time.Since(t0)
}

// AddAll merges another timing map into this one (stage totals add up).
func (t StageTimings) AddAll(other StageTimings) {
	if t == nil {
		return
	}
	for name, d := range other {
		t[name] += d
	}
}

// AssertReport is the outcome of asserting every registered contract over
// one codebase version.
type AssertReport struct {
	Semantics []*SemanticReport
	Counts    Counts
	// StageTimings records wall-clock per workflow stage.
	StageTimings StageTimings
	// TestsRun counts dynamic test executions.
	TestsRun int
	// StaticOnly marks reports produced without any test corpus.
	StaticOnly bool
}

// Violations returns every violating path and structural finding rendered
// as strings (for gates and logs).
func (r *AssertReport) Violations() []string {
	var out []string
	for _, sr := range r.Semantics {
		for _, v := range sr.Structural {
			out = append(out, fmt.Sprintf("[%s] %s", sr.Semantic.ID, v))
		}
		for _, site := range sr.Sites {
			for _, p := range site.Paths {
				if p.Verdict == concolic.VerdictViolation {
					out = append(out, fmt.Sprintf("[%s] %s path {%s}", sr.Semantic.ID, site.Site, p.Static))
				}
			}
		}
	}
	return out
}

// Semantic returns the per-semantic report with the given ID, or nil when
// the run did not assert it.
func (r *AssertReport) Semantic(id string) *SemanticReport {
	for _, sr := range r.Semantics {
		if sr.Semantic.ID == id {
			return sr
		}
	}
	return nil
}

// AssertContext is the shared, read-only state one assertion run operates
// over: the compiled programs, the call graph, and the test index. It is
// built once by Prepare and consumed by the stage primitives below —
// sequentially by Assert, or fanned out across goroutines by the scheduler
// in internal/sched. After Prepare returns, nothing in the context mutates,
// so concurrent stage execution is safe.
type AssertContext struct {
	Source string
	Tests  []ticket.TestCase
	// Snapshot is the system version under assertion; SnapshotAll covers
	// system plus tests, linked onto Snapshot's program rather than parsed
	// again. Both are shared, content-addressed compilations — repeated
	// runs over one version reuse them instead of re-parsing.
	Snapshot    *program.Snapshot
	SnapshotAll *program.Snapshot
	// ProgSys is the system alone (the class inventory); ProgAll is system
	// plus tests (the analysis program, so statement IDs align between
	// static and dynamic stages).
	ProgSys *minij.Program
	ProgAll *minij.Program
	Graph   *callgraph.Graph
	// Selector indexes the test corpus for similarity selection.
	Selector *testsel.Selector

	systemClasses map[string]bool
}

// MethodCanon returns the canonical text of a method of the analysis
// program, memoized on the snapshot so fingerprinting the same method
// across jobs and across runs renders it once.
func (c *AssertContext) MethodCanon(m *minij.Method) string {
	if s := c.SnapshotAll.MethodCanon(m.FullName()); s != "" {
		return s
	}
	return minij.FormatMethod(m)
}

// SystemClass reports whether the named class belongs to the system source
// (as opposed to test code).
func (c *AssertContext) SystemClass(name string) bool { return c.systemClasses[name] }

// IsEntry reports whether m is an entry function: a system method not
// called from system code (test callers do not disqualify it).
func (c *AssertContext) IsEntry(m *minij.Method) bool {
	if !c.systemClasses[m.Class.Name] {
		return false
	}
	for _, cs := range c.Graph.Callers[m] {
		if c.systemClasses[cs.Caller.Class.Name] {
			return false
		}
	}
	return true
}

// Prepare loads the target source as a shared snapshot (with and without
// tests), builds the call graph, and indexes the test corpus — the shared
// setup every assertion stage depends on. Snapshots are memoized by content
// hash, so replaying a version that was prepared before skips the parse,
// resolve, and call-graph stages entirely.
func (e *Engine) Prepare(source string, tests []ticket.TestCase, tm StageTimings) (*AssertContext, error) {
	var snap *program.Snapshot
	var err error
	tm.Time("compile", func() { snap, err = e.LoadSnapshot(source) })
	if err != nil {
		return nil, fmt.Errorf("system source: %w", err)
	}
	return e.PrepareSnapshot(snap, tests, tm)
}

// LoadSnapshot loads source through the engine's snapshot cache — the
// private one when Snapshots is set, the process-wide cache otherwise.
func (e *Engine) LoadSnapshot(source string) (*program.Snapshot, error) {
	return e.snapshots().Load(source)
}

func (e *Engine) snapshots() *program.Cache {
	if e.Snapshots != nil {
		return e.Snapshots
	}
	return program.DefaultCache()
}

// PrepareSnapshot is Prepare for an already-loaded system snapshot (the CI
// gate loads head and proposed change once and shares them across jobs).
// Only the test text is parsed: it is linked onto snap's resolved program
// (program.Cache.LoadWithTests).
func (e *Engine) PrepareSnapshot(snap *program.Snapshot, tests []ticket.TestCase, tm StageTimings) (*AssertContext, error) {
	if e.VerifySnapshots {
		if err := snap.Verify(); err != nil {
			return nil, err
		}
	}
	ctx := &AssertContext{Source: snap.Source(), Snapshot: snap, Tests: tests}
	ctx.ProgSys = snap.Program()
	var err error
	tm.Time("compile", func() {
		if len(tests) == 0 {
			// No test code: the analysis program is the system program.
			ctx.SnapshotAll = snap
			return
		}
		ctx.SnapshotAll, err = e.snapshots().LoadWithTests(snap, tests)
		if err != nil {
			err = fmt.Errorf("system+tests: %w", err)
		}
	})
	if err != nil {
		return nil, err
	}
	if e.VerifySnapshots && ctx.SnapshotAll != snap {
		if verr := ctx.SnapshotAll.Verify(); verr != nil {
			return nil, verr
		}
	}
	ctx.ProgAll = ctx.SnapshotAll.Program()
	ctx.systemClasses = map[string]bool{}
	for _, c := range ctx.ProgSys.Classes {
		ctx.systemClasses[c.Name] = true
	}
	tm.Time("callgraph", func() { ctx.Graph = ctx.SnapshotAll.Graph() })
	tm.Time("test-index", func() { ctx.Selector = testsel.New(tests) })
	return ctx, nil
}

// StructuralReport runs the structural check for sem over the system
// program and, when violations surface and tests exist, confirms them under
// the runtime blocking monitor. rctx bounds the confirmation replays.
func (e *Engine) StructuralReport(rctx context.Context, ctx *AssertContext, sem *contract.Semantic, tm StageTimings) *SemanticReport {
	sr := &SemanticReport{Semantic: sem}
	tm.Time("structural", func() { sr.Structural = sem.Structural.Check(ctx.ProgSys) })
	if len(sr.Structural) > 0 && len(ctx.Tests) > 0 {
		tm.Time("structural-replay", func() {
			sr.StructuralConfirmedBy = e.confirmStructural(rctx, ctx.ProgAll, sr.Structural, ctx.Tests)
		})
	}
	sr.SanityOK = true
	return sr
}

// MatchSites finds sem's target sites in system code (calls from test code
// are not production paths), in deterministic match order.
func (e *Engine) MatchSites(ctx *AssertContext, sem *contract.Semantic, tm StageTimings) []*contract.Site {
	var sites []*contract.Site
	tm.Time("match", func() {
		for _, site := range contract.Match(sem, ctx.ProgAll) {
			if ctx.systemClasses[site.Method.Class.Name] {
				sites = append(sites, site)
			}
		}
	})
	return sites
}

// SiteChains starts a site report by enumerating the entry→site call chains
// of the execution tree.
func (e *Engine) SiteChains(ctx *AssertContext, site *contract.Site, tm StageTimings) *SiteReport {
	siteRep := &SiteReport{Site: site}
	tm.Time("exec-tree", func() {
		tree := ctx.Graph.ExecutionTree(site.Method, callgraph.TreeOptions{IsEntry: ctx.IsEntry})
		siteRep.Chains = tree.Paths
		siteRep.TreeTruncated = tree.Truncated
	})
	return siteRep
}

// SitePaths enumerates the static paths reaching siteRep's site along its
// chains and records per-path complement-check verdicts. rctx cancellation
// and budget errors abort the stage; the caller (SiteJob) then discards
// the partial site.
func (e *Engine) SitePaths(rctx context.Context, ctx *AssertContext, siteRep *SiteReport, tm StageTimings) error {
	site := siteRep.Site
	var stageErr error
	tm.Time("static-paths", func() {
		lim := e.solverLimits(rctx)
		opts := concolic.Options{
			MaxPaths:      e.MaxStaticPaths,
			NoPrune:       e.NoPrune,
			Ctx:           rctx,
			Lim:           lim,
			NoPrefixPrune: e.NoPrefixPrune,
		}
		chains := siteRep.Chains
		if e.IntraOnly || len(chains) == 0 {
			chains = []callgraph.Path{nil}
		}
		// Enumerate first, then submit every complement check as one
		// solver batch: identical instantiated queries across the site's
		// paths dedup onto a single solve, and the cache is consulted in
		// one lock pass instead of one round trip per path.
		seen := map[string]bool{}
		var pending []*concolic.StaticPath
		for _, chain := range chains {
			var paths []*concolic.StaticPath
			var truncated bool
			if e.IntraOnly {
				paths, truncated = concolic.StaticPaths(ctx.ProgAll, site, opts)
			} else {
				paths, truncated = concolic.ChainStaticPaths(ctx.ProgAll, site, chain, opts)
			}
			siteRep.TreeTruncated = siteRep.TreeTruncated || truncated
			for _, p := range paths {
				if seen[p.Key()] {
					continue
				}
				seen[p.Key()] = true
				pending = append(pending, p)
			}
		}
		verdicts, err := concolic.CheckStaticPathsLim(pending, lim)
		if err != nil {
			stageErr = err
			return
		}
		for i, p := range pending {
			siteRep.Paths = append(siteRep.Paths, &PathReport{
				Static:          p,
				Verdict:         verdicts[i],
				DynamicVerdicts: map[string]concolic.Verdict{},
			})
		}
		// Path enumeration swallows cancellation into truncation; surface
		// it so a cancelled run fails the job instead of shipping a
		// quietly shorter path set.
		stageErr = rctx.Err()
	})
	return stageErr
}

// SiteStatic runs the full static pipeline for one site: execution tree,
// then path enumeration with verdicts — unbounded, for callers outside an
// assertion run (tools and tests).
func (e *Engine) SiteStatic(ctx *AssertContext, site *contract.Site, tm StageTimings) *SiteReport {
	siteRep := e.SiteChains(ctx, site, tm)
	_ = e.SitePaths(context.Background(), ctx, siteRep, tm)
	return siteRep
}

// DynamicReplay selects tests per site, replays them concolically, and
// attributes hits to static paths. It returns the number of distinct tests
// run; a non-nil error means the stage degraded (step budget, deadline,
// cancellation) and the caller must not trust the partial overlay.
func (e *Engine) DynamicReplay(rctx context.Context, ctx *AssertContext, sr *SemanticReport, tm StageTimings) (int, error) {
	if len(ctx.Tests) == 0 {
		return 0, nil
	}
	var selected []ticket.TestCase
	tm.Time("test-select", func() {
		seen := map[string]bool{}
		for _, siteRep := range sr.Sites {
			var statics []*concolic.StaticPath
			for _, p := range siteRep.Paths {
				statics = append(statics, p.Static)
			}
			var chosen []ticket.TestCase
			if e.RunAllTests {
				chosen = ctx.Selector.All()
			} else {
				chosen = ctx.Selector.SelectForSite(siteRep.Site, siteRep.Chains, statics, e.topK())
			}
			for _, tc := range chosen {
				siteRep.SelectedTests = append(siteRep.SelectedTests, tc.Name)
				if !seen[tc.Name] {
					seen[tc.Name] = true
					selected = append(selected, tc)
				}
			}
		}
	})
	var err error
	tm.Time("concolic", func() { err = e.runDynamic(rctx, ctx.ProgAll, sr, selected) })
	return len(selected), err
}

// Absorb appends a finished semantic report and folds its verdicts into the
// aggregate counts (including the per-rule sanity check).
func (r *AssertReport) Absorb(sr *SemanticReport) {
	r.Semantics = append(r.Semantics, sr)
	r.Counts.Failures += len(sr.Failures)
	if sr.Semantic.Kind == contract.StructuralKind {
		r.Counts.Violations += len(sr.Structural)
		return
	}
	for _, siteRep := range sr.Sites {
		for _, p := range siteRep.Paths {
			switch p.Verdict {
			case concolic.VerdictVerified:
				r.Counts.Verified++
				sr.SanityOK = true
			case concolic.VerdictViolation:
				r.Counts.Violations++
			case concolic.VerdictInconclusive:
				r.Counts.Inconclusive++
			default:
				r.Counts.Unknown++
			}
			if !p.Covered() && !r.StaticOnly {
				r.Counts.Uncovered++
			}
			r.Counts.PostViolations += len(p.PostViolatedBy)
		}
	}
}

// Assert checks every registered contract against a codebase, optionally
// replaying tests for dynamic confirmation. The returned report carries
// per-path verdicts, coverage, and sanity status. This is the sequential
// reference run; internal/sched produces byte-identical reports by fanning
// the same stage primitives out across a worker pool.
func (e *Engine) Assert(source string, tests []ticket.TestCase) (*AssertReport, error) {
	return e.AssertCtx(context.Background(), source, tests)
}

// AssertCtx is Assert under an external context: cancelling ctx promptly
// aborts the run, failing in-flight jobs with reason "cancelled".
func (e *Engine) AssertCtx(ctx context.Context, source string, tests []ticket.TestCase) (*AssertReport, error) {
	tm := StageTimings{}
	actx, err := e.Prepare(source, tests, tm)
	if err != nil {
		return nil, err
	}
	rctx, cancel := e.Budget.RunContext(ctx)
	defer cancel()
	return e.assertOver(rctx, actx, tm), nil
}

// AssertSnapshot is Assert over an already-loaded program snapshot.
func (e *Engine) AssertSnapshot(snap *program.Snapshot, tests []ticket.TestCase) (*AssertReport, error) {
	return e.AssertSnapshotCtx(context.Background(), snap, tests)
}

// AssertSnapshotCtx is AssertSnapshot under an external context.
func (e *Engine) AssertSnapshotCtx(ctx context.Context, snap *program.Snapshot, tests []ticket.TestCase) (*AssertReport, error) {
	tm := StageTimings{}
	actx, err := e.PrepareSnapshot(snap, tests, tm)
	if err != nil {
		return nil, err
	}
	rctx, cancel := e.Budget.RunContext(ctx)
	defer cancel()
	return e.assertOver(rctx, actx, tm), nil
}

// assertOver runs the sequential stage loop over a prepared context. Every
// stage executes as a contained job — the same decomposition, names, and
// failure handling as the scheduler's worker pool — so a fault degrades
// both execution strategies to byte-identical reports.
func (e *Engine) assertOver(rctx context.Context, ctx *AssertContext, tm StageTimings) *AssertReport {
	report := &AssertReport{StageTimings: tm, StaticOnly: len(ctx.Tests) == 0}
	for _, sem := range e.Registry.All() {
		var sr *SemanticReport
		if sem.Kind == contract.StructuralKind {
			sr = e.StructuralJob(rctx, ctx, JobNameStructural(sem.ID), sem, tm)
		} else {
			sr = &SemanticReport{Semantic: sem}
			for i, site := range e.MatchSites(ctx, sem, tm) {
				siteRep := e.SiteChains(ctx, site, tm)
				sr.Sites = append(sr.Sites, siteRep)
				if fail := e.SiteJob(rctx, ctx, JobNameSite(sem.ID, i), siteRep, tm); fail != nil {
					sr.Failures = append(sr.Failures, fail)
				}
			}
			if len(ctx.Tests) > 0 {
				n, fail := e.DynamicJob(rctx, ctx, JobNameDynamic(sem.ID), sr, tm)
				report.TestsRun += n
				if fail != nil {
					sr.Failures = append(sr.Failures, fail)
				}
			}
		}
		report.Absorb(sr)
	}
	return report
}

// confirmStructural replays the test suite under the runtime blocking
// monitor and attributes blocking-under-lock events to the statically
// flagged methods.
func (e *Engine) confirmStructural(rctx context.Context, prog *minij.Program, violations []*contract.StructuralViolation, tests []ticket.TestCase) map[int][]string {
	confirmed := map[int][]string{}
	for _, tc := range tests {
		if rctx.Err() != nil {
			// StructuralJob turns the truncation into a job failure.
			break
		}
		in := interp.NewWithOptions(prog, interp.Options{Ctx: rctx, StepBudget: e.Budget.StepBudget})
		mon := &contract.RuntimeBlockingMonitor{}
		mon.Attach(in)
		// Expected exceptions do not invalidate observed events.
		_, _ = in.CallStatic(tc.Class, tc.Method)
		for _, ev := range mon.Events {
			for i, v := range violations {
				if ev.Method == v.Method.FullName() && !containsString(confirmed[i], tc.Name) {
					confirmed[i] = append(confirmed[i], tc.Name)
				}
			}
		}
	}
	return confirmed
}

func (e *Engine) topK() int {
	if e.TestTopK <= 0 {
		return 3
	}
	return e.TestTopK
}

// runDynamic replays the selected tests, then attributes each site hit to
// the static path it instantiates (matching bindings, and a dynamic
// condition that entails the static one). Tests that exhaust the step or
// stack budget degrade the stage deterministically: the aggregated error
// names them in selection order.
func (e *Engine) runDynamic(rctx context.Context, prog *minij.Program, sr *SemanticReport, selected []ticket.TestCase) error {
	var sites []*contract.Site
	siteReps := map[*contract.Site]*SiteReport{}
	for _, siteRep := range sr.Sites {
		sites = append(sites, siteRep.Site)
		siteReps[siteRep.Site] = siteRep
	}
	if len(sites) == 0 {
		return nil
	}
	runner := concolic.NewRunner(prog, sites, interp.Options{Ctx: rctx, StepBudget: e.Budget.StepBudget})
	runner.SetNoPrune(e.NoPrune)
	var degraded []string
	for _, tc := range selected {
		if err := runner.RunStatic(tc.Name, tc.Class, tc.Method); err != nil {
			var ue *interp.UncaughtError
			switch {
			case errors.As(err, &ue):
				// Tests may end in expected exceptions; hits before unwind
				// count.
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				return err
			case errors.Is(err, interp.ErrStepBudget), errors.Is(err, interp.ErrStackDepth):
				degraded = append(degraded, tc.Name)
			default:
				return fmt.Errorf("replay %s: %w", tc.Name, err)
			}
		}
	}
	lim := e.solverLimits(rctx)
	for _, hit := range runner.Hits {
		siteRep := siteReps[hit.Site]
		if siteRep == nil {
			continue
		}
		best := matchHitToPath(hit, siteRep.Paths, lim)
		if best == nil {
			continue
		}
		if !containsString(best.CoveredBy, hit.TestName) {
			best.CoveredBy = append(best.CoveredBy, hit.TestName)
		}
		best.DynamicVerdicts[hit.TestName] = hit.VerdictLim(lim)
		if hit.PostHolds == concolic.TriFalse && !containsString(best.PostViolatedBy, hit.TestName) {
			best.PostViolatedBy = append(best.PostViolatedBy, hit.TestName)
		}
	}
	if len(degraded) > 0 {
		return fmt.Errorf("replay degraded for %s: %w", strings.Join(degraded, ", "), interp.ErrStepBudget)
	}
	return nil
}

// matchHitToPath finds the most specific static path whose condition the
// hit's condition entails, with matching slot bindings. A solver failure
// on a candidate skips it — conservatively leaving the hit unattributed.
func matchHitToPath(hit *concolic.SiteHit, paths []*PathReport, lim smt.Limits) *PathReport {
	var best *PathReport
	bestAtoms := -1
	for _, p := range paths {
		if !bindingsEqual(hit.Bindings, p.Static.Bindings) {
			continue
		}
		ok, err := smt.ImpliesLim(hit.Cond, p.Static.Cond, lim)
		if err != nil || !ok {
			continue
		}
		n := len(smt.Atoms(p.Static.Cond))
		if n > bestAtoms {
			best, bestAtoms = p, n
		}
	}
	return best
}

func bindingsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// SortedStageNames returns the timing keys in deterministic order.
func (r *AssertReport) SortedStageNames() []string {
	var names []string
	for n := range r.StageTimings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
