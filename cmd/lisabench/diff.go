package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"lisa/internal/experiments"
	"lisa/internal/program"
	"lisa/internal/report"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// The perf-regression gate compares a fresh full-sweep snapshot against a
// committed BENCH_*.json baseline and fails on growth in the tracked
// *cost counters* of the hot paths: solver work (queries, searches, search
// nodes), snapshot front-end work (compiles, call-graph builds), and the
// heap the sweep allocates, which between them account for the
// scheduled-assert cost the benchmarks track. Counters are compared rather
// than wall clocks because they reproduce run to run (the sweep is
// deterministic; heap bytes vary by a few percent, far inside the
// threshold), so the gate never flakes on machine load; wall clocks and
// hit rates are printed for context but do not gate.
const (
	// diffGrowthFactor is the tracked-counter regression threshold: fail
	// when fresh > base × 1.25.
	diffGrowthFactor = 1.25
	// diffSlack is an absolute floor under the relative threshold so tiny
	// baselines (a counter of 4 growing to 6) do not trip the gate.
	diffSlack = 32
)

// trackedCounter is one gated metric extracted from a benchOutput. An
// optional counter is skipped, with a note, when the baseline predates it.
type trackedCounter struct {
	name     string
	get      func(benchOutput) uint64
	optional bool
}

var trackedCounters = []trackedCounter{
	{name: "solver.queries", get: func(b benchOutput) uint64 { return b.Solver.Queries }},
	{name: "solver.solves", get: func(b benchOutput) uint64 { return b.Solver.Solves }},
	{name: "solver.nodes", get: func(b benchOutput) uint64 { return b.Solver.Nodes }},
	{name: "snapshot.compiles", get: func(b benchOutput) uint64 { return b.Snapshot.Compiles }},
	{name: "snapshot.graph_builds", get: func(b benchOutput) uint64 { return b.Snapshot.GraphBuilds }},
	{name: "sweep.heap_alloc_mb", get: func(b benchOutput) uint64 { return b.HeapAllocMB }, optional: true},
}

// runDiff executes the full experiment sweep quietly, snapshots the
// counters, and diffs them against the committed baseline. It returns the
// number of regressions (the caller exits non-zero on any).
func runDiff(baselinePath string, c *ticket.Corpus) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lisabench: read baseline:", err)
		return 1
	}
	var base benchOutput
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintln(os.Stderr, "lisabench: parse baseline:", err)
		return 1
	}

	tm := report.NewTimings()
	alloc0 := heapAllocBytes()
	for _, e := range experiments.Registry {
		tm.Time(e.Name, func() { _ = e.Run(c) })
	}
	fresh := benchOutput{
		ExperimentsMS: map[string]float64{},
		Snapshot:      program.Stats(),
		Solver:        smt.Stats(),
		HeapAllocMB:   (heapAllocBytes() - alloc0) >> 20,
	}
	for _, name := range tm.Names() {
		fresh.ExperimentsMS[name] = float64(tm.Get(name)) / float64(time.Millisecond)
	}
	return diffBench(baselinePath, base, fresh)
}

// diffBench prints the comparison and returns the regression count.
func diffBench(baselinePath string, base, fresh benchOutput) int {
	fmt.Printf("perf diff vs %s (gate: tracked counters, fail above ×%.2f%+d)\n",
		baselinePath, diffGrowthFactor, diffSlack)
	regressions := 0
	fmt.Printf("  %-24s %12s %12s %8s\n", "tracked counter", "baseline", "fresh", "ratio")
	for _, tc := range trackedCounters {
		b, f := tc.get(base), tc.get(fresh)
		if tc.optional && b == 0 {
			fmt.Printf("  %-24s %12s %12d %8s  skipped: the baseline predates this counter\n", tc.name, "—", f, "—")
			continue
		}
		verdict := "ok"
		if regressedCounter(b, f) {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-24s %12d %12d %8s  %s\n", tc.name, b, f, ratio(float64(b), float64(f)), verdict)
	}

	// Cache effectiveness, for context: a counter regression above usually
	// shows up here first as a falling hit rate.
	fmt.Printf("  %-24s %12s %12s\n", "hit rate (info)", "baseline", "fresh")
	fmt.Printf("  %-24s %12s %12s\n", "solver cache",
		pct(base.Solver.CacheHits, base.Solver.Queries), pct(fresh.Solver.CacheHits, fresh.Solver.Queries))
	fmt.Printf("  %-24s %12s %12s\n", "snapshot cache",
		pct(base.Snapshot.Hits, base.Snapshot.Hits+base.Snapshot.Misses),
		pct(fresh.Snapshot.Hits, fresh.Snapshot.Hits+fresh.Snapshot.Misses))

	// Wall clocks are machine- and load-dependent, so they inform but
	// never gate.
	var names []string
	for name := range base.ExperimentsMS {
		if _, ok := fresh.ExperimentsMS[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Printf("  %-24s %12s %12s %8s\n", "wall clock ms (info)", "baseline", "fresh", "ratio")
		for _, name := range names {
			b, f := base.ExperimentsMS[name], fresh.ExperimentsMS[name]
			fmt.Printf("  %-24s %12.1f %12.1f %8s\n", name, b, f, ratio(b, f))
		}
	}

	// Committed go-test benchmark numbers (merged into BENCH_*.json by
	// hand) are compared only when both sides carry them — a fresh sweep
	// does not re-run go test.
	benchNames := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if _, ok := fresh.Benchmarks[name]; ok {
			benchNames = append(benchNames, name)
		}
	}
	sort.Strings(benchNames)
	for _, name := range benchNames {
		b, berr := parseNsPerOp(base.Benchmarks[name])
		f, ferr := parseNsPerOp(fresh.Benchmarks[name])
		if berr != nil || ferr != nil {
			continue
		}
		verdict := "ok"
		if f > b*diffGrowthFactor {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-40s %12.0f %12.0f %8s  %s\n", name, b, f, ratio(b, f), verdict)
	}

	if regressions > 0 {
		fmt.Printf("perf diff: %d regression(s) past the ×%.2f threshold\n", regressions, diffGrowthFactor)
	} else {
		fmt.Println("perf diff: ok")
	}
	return regressions
}

// regressedCounter applies the gate threshold: relative growth past
// diffGrowthFactor that also clears the absolute slack.
func regressedCounter(base, fresh uint64) bool {
	return float64(fresh) > float64(base)*diffGrowthFactor && fresh-base > diffSlack
}

func ratio(base, fresh float64) string {
	if base == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2f", fresh/base)
}

func pct(hit, total uint64) string {
	if total == 0 {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hit)/float64(total))
}

// parseNsPerOp parses a go-test benchmark value like "17690 ns/op".
func parseNsPerOp(s string) (float64, error) {
	fields := strings.Fields(s)
	if len(fields) < 2 || fields[1] != "ns/op" {
		return 0, fmt.Errorf("not a ns/op value: %q", s)
	}
	return strconv.ParseFloat(fields[0], 64)
}
