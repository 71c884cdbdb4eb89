package main

import (
	"fmt"
	"strings"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/program"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// systemSize is the generated system both full-assert and ci-gate run on:
// 384 guarded sites in 24 features, 6 of them with 2 weakened sites.
var systemSize = SystemSize{Features: 24, Handlers: 16, Violated: 6, BadSites: 2, Tests: 2}

// newEngine builds an engine over spec with private snapshot and solver
// caches, so every op starts cold and its counters are exact.
func newEngine(spec string) (*core.Engine, error) {
	sems, err := contract.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	e := core.New()
	e.Snapshots = program.NewCache(program.DefaultCapacity)
	e.Solver = smt.NewQueryCache(0)
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// withTests is the analysis source the engine compiles when tests are
// present (system plus every test appended, as Engine.PrepareSnapshot
// builds it).
func withTests(src string, tests []ticket.TestCase) string {
	var sb strings.Builder
	sb.WriteString(src)
	for _, tc := range tests {
		sb.WriteString("\n")
		sb.WriteString(tc.Source)
	}
	return sb.String()
}

// checkOutcomes compares every semantic's outcome with the known answer.
func checkOutcomes(rep *core.AssertReport, answers map[string]string) error {
	if len(rep.Semantics) != len(answers) {
		return fmt.Errorf("%d semantics reported, %d expected", len(rep.Semantics), len(answers))
	}
	for _, sr := range rep.Semantics {
		if got, want := sr.Outcome(), answers[sr.Semantic.ID]; got != want {
			return fmt.Errorf("%s: %s, want %s", sr.Semantic.ID, got, want)
		}
	}
	return nil
}

func countViolated(answers map[string]string) int {
	n := 0
	for _, a := range answers {
		if a == answerViolated {
			n++
		}
	}
	return n
}
