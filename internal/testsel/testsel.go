// Package testsel selects the tests that exercise a given execution path —
// the paper's RAG-style "LLM-based similarity search over test embeddings"
// (§3.2). A path is summarized as a feature description (its entry
// function, the methods traversed, and the guard conditions along it), and
// the test corpus is ranked against that description. Selected tests are
// over-approximations: they drive the concolic engine with concrete inputs
// likely to cover the path.
package testsel

import (
	"sync"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/embedding"
	"lisa/internal/minij"
	"lisa/internal/ticket"
)

// Selector ranks tests against path features. It is safe for concurrent
// use: the per-site selections of one run share it, and with it the memo of
// each feature fragment's term IDs.
type Selector struct {
	tests []ticket.TestCase
	index *embedding.Index // document i is tests[i]

	mu      sync.Mutex
	methods map[*minij.Method][]int32
	stmts   map[minij.Stmt][]int32
	texts   map[string][]int32
}

// New builds a selector over the test corpus. Each test is embedded from
// its name, natural-language description, and source identifiers.
func New(tests []ticket.TestCase) *Selector {
	docs := make([]embedding.Doc, len(tests))
	for i, tc := range tests {
		docs[i] = embedding.Doc{ID: tc.Name, Text: tc.Name + " " + tc.Description + " " + tc.Source}
	}
	return &Selector{
		tests:   tests,
		index:   embedding.NewIndex(docs),
		methods: map[*minij.Method][]int32{},
		stmts:   map[minij.Stmt][]int32{},
		texts:   map[string][]int32{},
	}
}

// Len returns the corpus size.
func (s *Selector) Len() int { return len(s.tests) }

// Select returns the top-k tests for a feature description, in rank order.
func (s *Selector) Select(feature string, k int) []ticket.TestCase {
	top := s.index.Ranker().Top(s.index.Terms(feature), k)
	out := make([]ticket.TestCase, len(top))
	for i, d := range top {
		out[i] = s.tests[d]
	}
	return out
}

// SelectForSite unions the top-k tests across every (chain, static path)
// pair of a site, preserving first-seen rank order — the per-path selection
// of §3.2 rolled up to the site. Each pair's query is the path feature:
// the methods from the entry function to the target, the target statement,
// the guards along the path, and the semantic's description. The query is
// assembled from the memoized term IDs of those fragments rather than
// rendered and tokenized per pair.
func (s *Selector) SelectForSite(site *contract.Site, chains []callgraph.Path, statics []*concolic.StaticPath, k int) []ticket.TestCase {
	if len(chains) == 0 {
		chains = []callgraph.Path{nil}
	}
	if len(statics) == 0 {
		statics = []*concolic.StaticPath{nil}
	}
	s.mu.Lock()
	target := s.stmtTerms(site.Stmt)
	var desc []int32
	if site.Semantic != nil {
		desc = s.textTerms(site.Semantic.Description)
	}
	chainTerms := make([][]int32, len(chains))
	for i, ch := range chains {
		for _, m := range callgraph.MethodsOnPath(ch, site.Method) {
			chainTerms[i] = append(chainTerms[i], s.methodTerms(m)...)
		}
	}
	guardTerms := make([][]int32, len(statics))
	for i, sp := range statics {
		if sp == nil {
			continue
		}
		for _, g := range sp.Guards {
			guardTerms[i] = append(guardTerms[i], s.textTerms(g.Guard)...)
		}
	}
	s.mu.Unlock()

	ranker := s.index.Ranker()
	seen := make([]bool, len(s.tests))
	var out []ticket.TestCase
	var query []int32
	for _, ct := range chainTerms {
		for _, gt := range guardTerms {
			query = append(append(append(append(query[:0], ct...), target...), gt...), desc...)
			for _, d := range ranker.Top(query, k) {
				if !seen[d] {
					seen[d] = true
					out = append(out, s.tests[d])
				}
			}
		}
	}
	return out
}

// The fragment memos; callers hold s.mu.

func (s *Selector) methodTerms(m *minij.Method) []int32 {
	ids, ok := s.methods[m]
	if !ok {
		ids = s.index.Terms(m.FullName())
		s.methods[m] = ids
	}
	return ids
}

func (s *Selector) stmtTerms(st minij.Stmt) []int32 {
	ids, ok := s.stmts[st]
	if !ok {
		ids = s.index.Terms(minij.CanonStmt(st))
		s.stmts[st] = ids
	}
	return ids
}

func (s *Selector) textTerms(text string) []int32 {
	ids, ok := s.texts[text]
	if !ok {
		ids = s.index.Terms(text)
		s.texts[text] = ids
	}
	return ids
}

// All returns every test in corpus order (the no-selection baseline for the
// test-selection ablation).
func (s *Selector) All() []ticket.TestCase {
	out := make([]ticket.TestCase, len(s.tests))
	copy(out, s.tests)
	return out
}
