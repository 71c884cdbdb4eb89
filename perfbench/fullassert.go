package main

// full-assert: the nightly full assertion of the generated system. Each op
// is a cold scheduled assertion (fresh engine, private snapshot and solver
// caches, GOMAXPROCS workers) followed by rendering the report, run closed
// loop one op at a time.

import (
	"fmt"
	"time"

	"lisa/internal/core"
	"lisa/internal/program"
	"lisa/internal/sched"
)

type fullAssertState struct {
	sys     *System
	src     string
	answers map[string]string
	ref     string // sequential Engine.Assert rendering
	refErr  error
}

// fullAssertSetup generates the system and runs the sequential reference
// assertion every scheduled op must render byte-identically to.
func fullAssertSetup(seed int64) (*fullAssertState, error) {
	sys := GenerateSystem(seed, systemSize)
	st := &fullAssertState{sys: sys, src: sys.Render(false, nil), answers: sys.Answers(false)}
	e, err := newEngine(sys.Spec)
	if err != nil {
		return nil, err
	}
	rep, err := e.Assert(st.src, sys.Tests)
	if err != nil {
		return nil, err
	}
	st.ref = rep.Render()
	st.refErr = checkOutcomes(rep, st.answers)
	return st, nil
}

// fullAssertOp is one op. With a tracer it records the op's public calls as
// top-level spans under root; without one it makes the single scheduler
// call an untraced user would.
func fullAssertOp(t *tracer, trace int, st *fullAssertState) (*core.AssertReport, *sched.Stats, *core.Engine, string, error) {
	root := t.begin(trace, 0, "op")
	defer t.finish(root)
	var e *core.Engine
	var err error
	t.do(trace, root, "engine.build", func() { e, err = newEngine(st.sys.Spec) })
	if err != nil {
		return nil, nil, nil, "", err
	}
	var rep *core.AssertReport
	var stats *sched.Stats
	if t == nil {
		rep, stats, err = sched.New().Assert(e, st.src, st.sys.Tests, sched.Options{})
	} else {
		var snap *program.Snapshot
		t.do(trace, root, "program.load", func() { snap, err = e.LoadSnapshot(st.src) })
		if err == nil {
			var all *program.Snapshot
			t.do(trace, root, "program.load", func() { all, err = e.LoadSnapshot(withTests(st.src, st.sys.Tests)) })
			if err == nil {
				t.do(trace, root, "program.graph", func() { all.Graph() })
			}
		}
		if err == nil {
			t.do(trace, root, "sched.assert", func() {
				rep, stats, err = sched.New().AssertSnapshot(e, snap, st.sys.Tests, sched.Options{})
			})
		}
	}
	if err != nil {
		return nil, nil, nil, "", err
	}
	var out string
	t.do(trace, root, "report.render", func() { out = rep.Render() })
	return rep, stats, e, out, nil
}

func runFullAssert(cfg config) (*result, error) {
	st, setup, err := timeSetup(setupReps, func() (*fullAssertState, error) { return fullAssertSetup(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	res := &result{notes: []string{fmt.Sprintf("full-assert: %d sites, %d features, %d tests, %d semantics expected VIOLATED",
		st.sys.Sites(), len(st.sys.Features), len(st.sys.Tests), countViolated(st.answers))}}
	if st.refErr != nil {
		res.attempted++
		res.fail("sequential reference: %v", st.refErr)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	log := &opLog{tailPct: 75} // about 75 ops in 30 s
	acc := map[string]float64{}
	var traced, untraced []float64
	tracedOps := 0
	end := cfg.deadline(time.Now())
	for i := 0; time.Now().Before(end); i++ {
		var t *tracer
		if tr != nil && i%2 == 0 {
			t = tr
		}
		u0 := readUsage()
		t0 := time.Now()
		rep, stats, e, out, err := fullAssertOp(t, i, st)
		wall := time.Since(t0)
		log.add(wall, readUsage().sub(u0))
		res.attempted++
		if err == nil {
			err = res.identical(fmt.Sprintf("op %d vs sequential Engine.Assert", i), out, st.ref)
		}
		if err == nil {
			err = checkOutcomes(rep, st.answers)
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
		assertCounts(rep, acc)
		schedCounts(stats, acc)
		engineCounts(e, acc)
		stageCounts(rep, acc)
		lexParse(tr, i, st.src, acc)
		if err := planLayers(tr, i, e, st.src, st.sys.Tests); err != nil {
			res.fail("op %d: layer timing: %v", i, err)
		}
	}
	if tr == nil {
		var note string
		res.metrics, note = log.endToEnd(setup)
		res.notes = append(res.notes, note)
		return res, nil
	}
	res.metrics = finishLayers(acc, tr, tracedOps, log)
	res.metrics["bench.trace_overhead_pct"] = overheadPct(traced, untraced)
	checkSpans(res)
	writeTrace(cfg, tr)
	return res, nil
}
