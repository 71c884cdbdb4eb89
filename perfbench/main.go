// Command perfbench is the repository benchmark: one command that takes a
// workload name and a seed, generates that workload's inputs, drives the
// LISA layers through their exported APIs, checks every verdict against an
// answer known by construction, and prints the end-to-end metrics (untraced
// run, -trace 0) or the per-layer metrics (traced run, -trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload ci-gate --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workDir holds everything a run writes (stores, traces), relative to the
// directory the benchmark runs in.
const workDir = ".bench_build/work"

// setupReps is how many times each workload's set-up runs; setup_s is the
// median.
const setupReps = 5

type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerDefs lists the traced run's metrics. Times, counts and bytes are
// per op unless the name says otherwise (a ratio, a percentile, a worst
// case); a layer a workload does not reach reports 0.
var perLayerDefs = []metricDef{
	{"minij.lex_ms", "ms"}, {"minij.parse_ms", "ms"}, {"minij.parse_alloc_mb", "MB"},
	{"program.load_ms", "ms"}, {"program.restore_ms", "ms"}, {"program.graph_ms", "ms"},
	{"program.compiles", "count"}, {"program.restores_decoded", "count"},
	{"contract.match_ms", "ms"}, {"contract.sites", "count"},
	{"callgraph.exec_tree_ms", "ms"}, {"callgraph.chains", "count"},
	{"concolic.static_paths_ms", "ms"}, {"concolic.paths", "count"}, {"concolic.replay_ms", "ms"},
	{"smt.queries", "count"}, {"smt.hit_ratio", "ratio"}, {"smt.solves", "count"}, {"smt.nodes", "count"},
	{"testsel.index_ms", "ms"}, {"testsel.select_ms", "ms"}, {"testsel.selected", "count"},
	{"diffutil.diff_ms", "ms"}, {"diffutil.diff_alloc_mb", "MB"},
	{"sched.dirty_ms", "ms"}, {"sched.assert_ms", "ms"}, {"sched.jobs", "count"},
	{"sched.executed", "count"}, {"sched.hit_ratio", "ratio"}, {"sched.disk_hits", "count"},
	{"store.open_ms", "ms"}, {"store.flush_ms", "ms"}, {"store.gets", "count"},
	{"store.hit_ratio", "ratio"}, {"store.rescans", "count"}, {"store.puts", "count"}, {"store.mb_written", "MB"},
	{"server.handler_ms_p50", "ms"}, {"server.overhead_ms_p50", "ms"}, {"server.executed_per_req", "count"},
	{"server.snapshot_miss_ratio", "ratio"}, {"server.shed", "count"},
	{"report.render_ms", "ms"},
	{"runtime.gc_cpu_ms_per_op", "ms"}, {"runtime.gc_cycles", "count"},
	{"bench.late_ms_p99", "ms"}, {"bench.trace_overhead_pct", "%"}, {"bench.span_gap_pct", "%"},
	{"bench.render_drift_ratio", "ratio"}, {"bench.steal_pct", "%"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func (c config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds) * time.Second)
}

// result is what a workload reports.
type result struct {
	attempted int
	failed    int
	// compared counts reports checked for identity with a reference;
	// drift counts those that differed only in tied test selection.
	compared int
	drift    int
	// invalid, when set, says why the run cannot be trusted (for example
	// the open-loop generator fell behind its schedule).
	invalid string
	metrics map[string]float64
	notes   []string
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"full-assert": runFullAssert,
	"ci-gate":     runCIGate,
	"serve-mix":   runServeMix,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "full-assert, ci-gate or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	s0, t0 := cpuTicks()
	res, err := run(cfg)
	if err == nil {
		steal := stealPct(s0, t0)
		res.notes = append(res.notes, fmt.Sprintf("CPU steal during the run: %.1f%% (timings of runs with much steal are not comparable)", steal))
		if cfg.trace {
			res.metrics["bench.steal_pct"] = steal
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(report(cfg, res))
}

// report prints the human-readable lines and the final JSON line, and
// returns the exit code.
func report(cfg config, res *result) int {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	if res.compared > 0 {
		res.metrics["bench.render_drift_ratio"] = float64(res.drift) / float64(res.compared)
		fmt.Printf("report identity: %d reports compared, %d byte-identical, %d differ only in tied test selection\n",
			res.compared, res.compared-res.drift, res.drift)
	}
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]mv{}
	for _, d := range defs {
		v := res.metrics[d.name]
		out[d.name] = mv{v, d.unit}
		fmt.Printf("%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	ratio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("%-28s %14.4f ratio (%d of %d ops)\n", "failed_ratio", ratio, res.failed, res.attempted)
	correct := res.failed == 0 && res.invalid == "" && res.attempted > 0
	if res.invalid != "" {
		fmt.Println("INVALID RUN:", res.invalid)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// writeTrace stores a traced run's spans under the work directory.
func writeTrace(cfg config, t *tracer) {
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := t.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
	}
}

// overheadPct compares traced against untraced op wall times of the traced
// run (ops alternate between the two).
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	u := median(untraced)
	return (median(traced) - u) / u * 100
}
