package core

import (
	"strings"
	"testing"
)

// zkHalfGuarded has one site with two paths to it: a guarded one (checked)
// and an unguarded one (!checked). The walker reaches the guarded path
// first, so a one-path bound enumerates only it.
var zkHalfGuarded = strings.Replace(zkFixed, `	void processCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}`, `	void processCreate(string path, Session s, bool checked) {
		if (checked) {
			if (s == null || s.closing) {
				throw "KeeperException";
			}
		}`, 1)

// TestBoundedSiteIsInconclusive pins the soundness rule that a bounded
// exploration never reads as PASS: with MaxStaticPaths = 1 the engine sees
// only the guarded path and marks the site truncated, and the semantic
// must then be INCONCLUSIVE, not PASS. Unbounded, the same program is
// VIOLATED.
func TestBoundedSiteIsInconclusive(t *testing.T) {
	if zkHalfGuarded == zkFixed {
		t.Fatal("probe source was not rewritten")
	}
	for _, tc := range []struct {
		maxPaths int
		want     string
	}{
		{1, OutcomeInconclusive},
		{0, OutcomeViolated},
	} {
		e := New()
		if _, err := e.ProcessTicket(zkTicket()); err != nil {
			t.Fatal(err)
		}
		e.MaxStaticPaths = tc.maxPaths
		rep, err := e.Assert(zkHalfGuarded, nil)
		if err != nil {
			t.Fatal(err)
		}
		sr := rep.Semantics[0]
		if got := sr.Outcome(); got != tc.want {
			t.Errorf("MaxStaticPaths=%d: outcome %s, want %s\n%s", tc.maxPaths, got, tc.want, rep.Render())
		}
		if tc.maxPaths == 1 {
			if len(sr.Sites) != 1 || !sr.Sites[0].TreeTruncated || rep.Counts.Violations != 0 {
				t.Errorf("probe no longer reproduces the bounded run:\n%s", rep.Render())
			}
		}
	}
}
