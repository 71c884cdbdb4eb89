package testsel_test

import (
	"strings"
	"testing"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/minij"
	"lisa/internal/testsel"
	"lisa/internal/ticket"
)

// pathFeature renders the feature description SelectForSite queries with,
// as text: the methods from the entry function to the target, the target
// statement, the guards along the path, and the semantic's description,
// space-separated. It is the reference the memoized fragment queries must
// reproduce.
func pathFeature(target *contract.Site, chain callgraph.Path, static *concolic.StaticPath) string {
	var sb strings.Builder
	for _, m := range callgraph.MethodsOnPath(chain, target.Method) {
		sb.WriteString(m.FullName())
		sb.WriteByte(' ')
	}
	sb.WriteString(minij.CanonStmt(target.Stmt))
	sb.WriteByte(' ')
	if static != nil {
		for _, g := range static.Guards {
			sb.WriteString(g.Guard)
			sb.WriteByte(' ')
		}
	}
	if target.Semantic != nil {
		sb.WriteString(target.Semantic.Description)
	}
	return sb.String()
}

// selectByText is SelectForSite through the text path: render each
// (chain, static path) feature and query it.
func selectByText(s *testsel.Selector, site *contract.Site, chains []callgraph.Path, statics []*concolic.StaticPath, k int) []string {
	if len(chains) == 0 {
		chains = []callgraph.Path{nil}
	}
	if len(statics) == 0 {
		statics = []*concolic.StaticPath{nil}
	}
	seen := map[string]bool{}
	var out []string
	for _, ch := range chains {
		for _, sp := range statics {
			for _, tc := range s.Select(pathFeature(site, ch, sp), k) {
				if !seen[tc.Name] {
					seen[tc.Name] = true
					out = append(out, tc.Name)
				}
			}
		}
	}
	return out
}

func names(tcs []ticket.TestCase) []string {
	var out []string
	for _, tc := range tcs {
		out = append(out, tc.Name)
	}
	return out
}

// TestSelectForSiteMatchesTextQueries pins the memoized fragment queries to
// the rendered-text queries on every site of every corpus case, at several
// k, including a repeat over the warm memo.
func TestSelectForSiteMatchesTextQueries(t *testing.T) {
	checked := 0
	for _, cs := range corpus.Load().Cases {
		e := core.New()
		for _, tk := range cs.Tickets {
			if _, err := e.ProcessTicket(tk); err != nil {
				t.Fatalf("%s/%s: %v", cs.ID, tk.ID, err)
			}
		}
		actx, err := e.Prepare(cs.Head(), cs.Tests, nil)
		if err != nil {
			t.Fatalf("%s: %v", cs.ID, err)
		}
		sel := testsel.New(cs.Tests)
		for _, sem := range e.Registry.All() {
			for _, site := range e.MatchSites(actx, sem, nil) {
				rep := e.SiteStatic(actx, site, nil)
				var statics []*concolic.StaticPath
				for _, p := range rep.Paths {
					statics = append(statics, p.Static)
				}
				for _, k := range []int{1, 3, 0} {
					for round := 0; round < 2; round++ {
						got := names(sel.SelectForSite(site, rep.Chains, statics, k))
						want := selectByText(sel, site, rep.Chains, statics, k)
						if strings.Join(got, ",") != strings.Join(want, ",") {
							t.Errorf("%s %s k=%d round %d: fragments selected %v, text selected %v", cs.ID, site, k, round, got, want)
						}
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no corpus sites checked")
	}
}
