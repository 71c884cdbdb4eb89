package main

// ci-gate: a CI runner gating a seeded stream of edits to the clean head.
// Each op is what a fresh `lisa gate -store DIR -incremental` process does:
// open the store set-up primed with the head, build a fresh engine and
// scheduler over it, gate the change, render the gate log and close the
// store. The primed store is restored, untimed, before every gate, so the
// log does not grow across the run.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lisa/internal/ci"
	"lisa/internal/core"
	"lisa/internal/diffutil"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/store"
)

type ciGateState struct {
	sys    *System
	head   string
	primed []byte // the primed store.log image
	live   string // the store directory gates run against
}

// ciGateSetup generates the system, primes a store with a scheduled
// assertion of the clean head at one worker, and keeps the log image.
func ciGateSetup(seed int64) (*ciGateState, error) {
	sys := GenerateSystem(seed, systemSize)
	st := &ciGateState{sys: sys, head: sys.Render(true, nil)}
	dir := filepath.Join(workDir, "ci-gate")
	primedDir := filepath.Join(dir, "primed")
	st.live = filepath.Join(dir, "live")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s, err := store.Open(primedDir)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	e, err := newEngine(sys.Spec)
	if err != nil {
		return nil, err
	}
	e.Snapshots.SetStore(s)
	e.Solver.SetStore(s)
	sc := sched.New()
	sc.Cache().SetStore(s)
	rep, _, err := sc.Assert(e, st.head, sys.Tests, sched.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	if err := checkOutcomes(rep, sys.Answers(true)); err != nil {
		return nil, fmt.Errorf("primed head: %w", err)
	}
	snap, err := e.LoadSnapshot(st.head)
	if err != nil {
		return nil, err
	}
	snap.Graph() // persist the head's record with its call graph
	if err := s.Flush(); err != nil {
		return nil, err
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	st.primed, err = os.ReadFile(filepath.Join(primedDir, "store.log"))
	return st, err
}

// restore resets the live store to the primed image.
func (st *ciGateState) restore() error {
	if err := os.RemoveAll(st.live); err != nil {
		return err
	}
	if err := os.MkdirAll(st.live, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(st.live, "store.log"), st.primed, 0o644)
}

type gateRun struct {
	res     *ci.Result
	engine  *core.Engine
	store   store.Stats
	summary string
}

// ciGateOp is one gate. With a tracer, the snapshot loads GateWith would
// make are made first, each in its own span, so the gate finds them cached.
func ciGateOp(t *tracer, trace int, st *ciGateState, ed GateEdit) (*gateRun, error) {
	root := t.begin(trace, 0, "op")
	defer t.finish(root)
	run := &gateRun{}
	var s *store.Store
	var err error
	t.do(trace, root, "store.open", func() { s, err = store.Open(st.live) })
	if err != nil {
		return nil, err
	}
	var sc *sched.Scheduler
	t.do(trace, root, "engine.build", func() {
		if run.engine, err = newEngine(st.sys.Spec); err == nil {
			run.engine.Snapshots.SetStore(s)
			run.engine.Solver.SetStore(s)
			sc = sched.New()
			sc.Cache().SetStore(s)
		}
	})
	e := run.engine
	if err == nil && t != nil {
		t.do(trace, root, "program.restore", func() { _, err = e.LoadSnapshot(st.head) })
		t.do(trace, root, "program.load", func() { _, err = e.LoadSnapshot(ed.Source) })
		var all *program.Snapshot
		t.do(trace, root, "program.load", func() { all, err = e.LoadSnapshot(withTests(ed.Source, st.sys.Tests)) })
		if err == nil {
			t.do(trace, root, "program.graph", func() { all.Graph() })
		}
	}
	if err == nil {
		t.do(trace, root, "ci.gate", func() {
			run.res, err = ci.GateWith(e, ci.Change{Summary: ed.Name, OldSource: st.head, NewSource: ed.Source},
				st.sys.Tests, ci.GateOptions{Scheduler: sc, Incremental: true})
		})
	}
	if err == nil {
		t.do(trace, root, "report.render", func() { run.summary = run.res.Summary() })
	}
	run.store = s.Stats()
	t.do(trace, root, "store.flush", func() {
		if ferr := s.Flush(); err == nil {
			err = ferr
		}
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	})
	return run, err
}

// checkGate compares a gate with the edit's known answer.
func checkGate(run *gateRun, ed GateEdit, sys *System) error {
	res := run.res
	answers := sys.Answers(true)
	if ed.Feature >= 0 {
		answers[sys.Features[ed.Feature].RuleID()] = answerViolated
	}
	if want := ed.Class != editWeaken; res.Pass != want {
		return fmt.Errorf("%s: gate pass=%v, want %v", ed.Name, res.Pass, want)
	}
	if res.Report == nil || res.Sched == nil {
		return fmt.Errorf("%s: gate ran no scheduled assertion", ed.Name)
	}
	if err := checkOutcomes(res.Report, answers); err != nil {
		return fmt.Errorf("%s: %w", ed.Name, err)
	}
	if ed.Class == editWhitespace && res.Sched.Executed != 0 {
		return fmt.Errorf("%s: whitespace-only change executed %d jobs", ed.Name, res.Sched.Executed)
	}
	return nil
}

// coldGate runs the same change through a cold, non-incremental gate with
// no store; the incremental gate must equal it: the same pass/block, the
// same report, the same findings (only the coverage warnings may follow a
// report that drifted in test selection).
func coldGate(res *result, st *ciGateState, ed GateEdit, run *gateRun) error {
	e, err := newEngine(st.sys.Spec)
	if err != nil {
		return err
	}
	cold, err := ci.GateWith(e, ci.Change{Summary: ed.Name, OldSource: st.head, NewSource: ed.Source},
		st.sys.Tests, ci.GateOptions{Scheduler: sched.New()})
	if err != nil {
		return err
	}
	if cold.Pass != run.res.Pass {
		return fmt.Errorf("%s: incremental gate pass=%v, cold gate pass=%v", ed.Name, run.res.Pass, cold.Pass)
	}
	before := res.drift
	if err := res.identical(ed.Name+" incremental vs cold gate", run.res.Report.Render(), cold.Report.Render()); err != nil {
		return err
	}
	drifted := res.drift > before
	findings := func(r *ci.Result) string {
		var sb strings.Builder
		for _, f := range r.Findings {
			if !drifted || f.Severity == "BLOCK" {
				sb.WriteString(f.Severity + " " + f.Text + "\n")
			}
		}
		return sb.String()
	}
	if findings(cold) != findings(run.res) {
		return fmt.Errorf("%s: incremental gate findings differ from a cold gate", ed.Name)
	}
	return nil
}

// gateLayers times, outside the op, the layer functions GateWith hides,
// on the op's own inputs, and reads the op's counters.
func gateLayers(t *tracer, trace int, st *ciGateState, ed GateEdit, run *gateRun, acc map[string]float64) error {
	lexParse(t, trace, ed.Source, acc)
	root := t.begin(trace, 0, "outside")
	defer t.finish(root)
	u0 := readUsage()
	t.do(trace, root, "diffutil.diff", func() { diffutil.Diff(st.head, ed.Source) })
	acc["diffutil.diff_alloc_mb"] += float64(readUsage().sub(u0).alloc) / (1 << 20)

	if err := planLayers(t, trace, run.engine, ed.Source, st.sys.Tests); err != nil {
		return err
	}
	acc["sched.dirty_ms"] += ms(run.res.Report.StageTimings["dirty-set"])
	stageCounts(run.res.Report, acc)
	assertCounts(run.res.Report, acc)
	schedCounts(run.res.Sched, acc)
	engineCounts(run.engine, acc)
	acc["store.gets"] += float64(run.store.Gets)
	acc["store.hits"] += float64(run.store.Hits)
	acc["store.rescans"] += float64(run.store.Rescans)
	acc["store.puts"] += float64(run.store.Puts)
	if fi, err := os.Stat(filepath.Join(st.live, "store.log")); err == nil {
		acc["store.mb_written"] += float64(fi.Size()-int64(len(st.primed))) / (1 << 20)
	}
	return nil
}

func runCIGate(cfg config) (*result, error) {
	st, setup, err := timeSetup(setupReps, func() (*ciGateState, error) { return ciGateSetup(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	res := &result{notes: []string{fmt.Sprintf("ci-gate: %d sites, head %d bytes, primed store %d bytes, edits in blocks of %d",
		st.sys.Sites(), len(st.head), len(st.primed), len(editBlock))}}
	stream := NewEditStream(st.sys, st.head, cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	type opRec struct {
		wall time.Duration
		use  usage
	}
	var recs []opRec
	acc := map[string]float64{}
	var traced, untraced []float64
	tracedOps := 0
	end := cfg.deadline(time.Now())
	for i := 0; time.Now().Before(end); i++ {
		ed := stream.Next()
		// The traced run gates each edit twice, untraced then traced, so
		// the tracing overhead compares like with like.
		passes := []*tracer{nil}
		if tr != nil {
			passes = append(passes, tr)
		}
		for _, t := range passes {
			if err := st.restore(); err != nil {
				return nil, err
			}
			u0 := readUsage()
			t0 := time.Now()
			run, err := ciGateOp(t, i, st, ed)
			wall := time.Since(t0)
			recs = append(recs, opRec{wall, readUsage().sub(u0)})
			res.attempted++
			if err == nil {
				err = checkGate(run, ed, st.sys)
			}
			if err != nil {
				res.fail("op %d: %v", i, err)
				continue
			}
			if tr == nil {
				continue
			}
			if t == nil {
				untraced = append(untraced, ms(wall))
				continue
			}
			traced = append(traced, ms(wall))
			tracedOps++
			if err := gateLayers(tr, i, st, ed, run, acc); err != nil {
				res.fail("op %d: layer timing: %v", i, err)
			}
			if err := coldGate(res, st, ed, run); err != nil {
				res.fail("op %d: %v", i, err)
			}
		}
	}
	// Only whole blocks count, so every run measures the same edit mix.
	whole := len(recs) / len(editBlock) * len(editBlock)
	if whole == 0 {
		return nil, fmt.Errorf("ci-gate: no whole block of %d edits in %ds", len(editBlock), cfg.seconds)
	}
	log := &opLog{tailPct: 75} // about 95 gates in 30 s: p90 would have 9 beyond
	for _, r := range recs[:whole] {
		log.add(r.wall, r.use)
	}
	res.notes = append(res.notes, fmt.Sprintf("ci-gate: %d gates, %d in whole blocks", len(recs), whole))
	if tr == nil {
		var note string
		res.metrics, note = log.endToEnd(setup)
		res.notes = append(res.notes, note)
		return res, nil
	}
	res.metrics = finishLayers(acc, tr, tracedOps, log)
	res.metrics["sched.assert_ms"] = tr.totalMS("ci.gate") / float64(max(tracedOps, 1))
	res.metrics["bench.trace_overhead_pct"] = overheadPct(traced, untraced)
	checkSpans(res)
	writeTrace(cfg, tr)
	return res, nil
}
