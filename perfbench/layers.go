package main

// Per-layer accounting shared by the workloads' traced runs.

import (
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/minij"
	"lisa/internal/sched"
	"lisa/internal/ticket"
)

// lexParse times the front end's own functions on source, outside the op.
func lexParse(t *tracer, trace int, source string, acc map[string]float64) {
	root := t.begin(trace, 0, "outside")
	defer t.finish(root)
	t.do(trace, root, "minij.lex", func() { _, _ = minij.Lex(source) })
	u0 := readUsage()
	t.do(trace, root, "minij.parse", func() { _, _ = minij.Parse(source) })
	acc["minij.parse_alloc_mb"] += float64(readUsage().sub(u0).alloc) / (1 << 20)
}

// planLayers times, outside the op, the planning stages the scheduler runs
// untimed: matching every semantic and walking every site's execution tree.
// e is the op's engine, so the snapshots are cached and only those stages
// run here.
func planLayers(t *tracer, trace int, e *core.Engine, source string, tests []ticket.TestCase) error {
	root := t.begin(trace, 0, "outside")
	defer t.finish(root)
	snap, err := e.LoadSnapshot(source)
	if err != nil {
		return err
	}
	actx, err := e.PrepareSnapshot(snap, tests, nil)
	if err != nil {
		return err
	}
	for _, sem := range e.Registry.All() {
		var sites []*contract.Site
		t.do(trace, root, "contract.match", func() { sites = e.MatchSites(actx, sem, nil) })
		t.do(trace, root, "callgraph.exec_tree", func() {
			for _, site := range sites {
				e.SiteChains(actx, site, nil)
			}
		})
	}
	return nil
}

// stageCounts adds the stages only reachable inside the scheduler, from the
// op's own stage ledger.
func stageCounts(rep *core.AssertReport, acc map[string]float64) {
	tm := rep.StageTimings
	acc["concolic.static_paths_ms"] += ms(tm["static-paths"])
	acc["testsel.select_ms"] += ms(tm["test-select"])
	acc["concolic.replay_ms"] += ms(tm["concolic"])
	acc["testsel.index_ms"] += ms(tm["test-index"])
}

// assertCounts adds the report's work counts to acc.
func assertCounts(rep *core.AssertReport, acc map[string]float64) {
	for _, sr := range rep.Semantics {
		acc["contract.sites"] += float64(len(sr.Sites))
		for _, site := range sr.Sites {
			acc["callgraph.chains"] += float64(len(site.Chains))
			acc["concolic.paths"] += float64(len(site.Paths))
			acc["testsel.selected"] += float64(len(site.SelectedTests))
		}
	}
}

// schedCounts adds a scheduled run's job counters to acc.
func schedCounts(stats *sched.Stats, acc map[string]float64) {
	acc["sched.jobs"] += float64(stats.Jobs)
	acc["sched.executed"] += float64(stats.Executed)
	acc["sched.cache_hits"] += float64(stats.CacheHits)
	acc["sched.disk_hits"] += float64(stats.DiskHits)
}

// engineCounts adds the engine's private cache counters to acc (each op
// owns fresh caches, so the totals are the op's own).
func engineCounts(e *core.Engine, acc map[string]float64) {
	q := e.Solver.Stats()
	acc["smt.queries"] += float64(q.Queries)
	acc["smt.hits"] += float64(q.Hits)
	acc["smt.solves"] += float64(q.Solves)
	acc["smt.nodes"] += float64(q.Nodes)
	p := e.Snapshots.Stats()
	acc["program.compiles"] += float64(p.Compiles)
	acc["program.restores_decoded"] += float64(p.RestoresDecoded)
}

// finishLayers turns per-op sums into per-op averages and ratios.
func finishLayers(acc map[string]float64, t *tracer, ops int, log *opLog) map[string]float64 {
	n := float64(max(ops, 1))
	out := map[string]float64{}
	for k, v := range acc {
		out[k] = v / n
	}
	for _, name := range []string{
		"minij.lex", "minij.parse", "program.load", "program.restore", "program.graph",
		"contract.match", "callgraph.exec_tree", "diffutil.diff", "sched.dirty", "sched.assert", "store.open",
		"store.flush", "report.render",
	} {
		if v := t.totalMS(name); v > 0 {
			out[name+"_ms"] = v / n
		}
	}
	if acc["smt.queries"] > 0 {
		out["smt.hit_ratio"] = acc["smt.hits"] / acc["smt.queries"]
	}
	if acc["sched.jobs"] > 0 {
		out["sched.hit_ratio"] = acc["sched.cache_hits"] / acc["sched.jobs"]
	}
	if acc["store.gets"] > 0 {
		out["store.hit_ratio"] = acc["store.hits"] / acc["store.gets"]
	}
	all := float64(max(log.ops, 1))
	out["runtime.gc_cpu_ms_per_op"] = log.total.gcCPU * 1000 / all
	out["runtime.gc_cycles"] = float64(log.total.gcCycles) / all
	out["bench.span_gap_pct"] = t.worstGapPct("op")
	return out
}

// maxSpanGapPct bounds how much of an op's wall clock its top-level spans
// may leave uncovered.
const maxSpanGapPct = 5

// checkSpans fails the run when an op's top-level spans do not reconcile
// with its wall clock.
func checkSpans(res *result) {
	if gap := res.metrics["bench.span_gap_pct"]; gap > maxSpanGapPct {
		res.fail("top-level spans leave %.1f%% of an op uncovered (limit %d%%)", gap, maxSpanGapPct)
	}
}
