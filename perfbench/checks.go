package main

import (
	"fmt"
	"strings"
)

// Report identity. Reports must render byte-identically across worker
// counts, the store and the daemon, and the benchmark checks that. One
// known defect breaks it without touching a verdict: test selection ranks
// tests by a cosine similarity whose vector norm is summed in map order
// (embedding.(*Index).vectorize), so tests whose scores tie exactly swap
// places from one run to the next. The tests chosen for a site, and what
// those tests cover, then differ between two runs of the same input. Such
// a report is counted as drift and printed; any other difference, in
// particular in a verdict, a path or a site, fails the op.

// verdictView keeps the lines of a rendered report that do not depend on
// which tests were selected: outcomes, failures, structural findings,
// sites, chains, and static paths with their verdicts.
func verdictView(render string) string {
	var sb strings.Builder
	for _, line := range strings.Split(render, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		switch {
		case strings.HasPrefix(line, "counts: "):
			// uncovered and post-violations come from the replayed tests.
			for _, f := range strings.Fields(line) {
				if !strings.HasPrefix(f, "uncovered=") && !strings.HasPrefix(f, "post-violations=") {
					sb.WriteString(f + " ")
				}
			}
		case strings.HasPrefix(line, "tests-run="), strings.HasPrefix(trimmed, "dynamic "):
			continue
		case strings.HasPrefix(trimmed, "site "):
			line, _, _ = strings.Cut(line, " selected=")
			sb.WriteString(line)
		case strings.HasPrefix(trimmed, "path "):
			line, _, _ = strings.Cut(line, " covered-by ")
			line, _, _ = strings.Cut(line, " post-violated-by ")
			sb.WriteString(line)
		case strings.HasPrefix(trimmed, "structural "):
			line, _, _ = strings.Cut(line, " confirmed-by ")
			sb.WriteString(line)
		default:
			sb.WriteString(line)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// compareReports checks got against want. It returns drift = true when the
// two differ only in test selection (the known tie-break defect), and an
// error when they differ in anything else.
func compareReports(what, got, want string) (drift bool, err error) {
	if got == want {
		return false, nil
	}
	if verdictView(got) == verdictView(want) {
		return true, nil
	}
	return false, fmt.Errorf("%s: report differs beyond test selection", what)
}

// identical compares a report with its reference, counting drift.
func (r *result) identical(what, got, want string) error {
	drift, err := compareReports(what, got, want)
	r.compared++
	if drift {
		r.driftNote(what)
	}
	return err
}

// driftNote records a drifted report in the run's output.
func (r *result) driftNote(what string) {
	r.drift++
	if r.drift <= 3 {
		r.notes = append(r.notes, "DRIFT: "+what+": report differs only in tied test selection (known nondeterminism)")
	}
}
