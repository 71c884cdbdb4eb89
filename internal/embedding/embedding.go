// Package embedding provides TF-IDF text embeddings with cosine-similarity
// retrieval. It substitutes for the hosted embedding model the paper uses
// (text-embedding-3-large) in the RAG-style test-selection stage: the only
// property that stage needs is a similarity ranking between a path's
// feature description and the test corpus, which TF-IDF preserves at this
// scale.
package embedding

import (
	"math"
	"slices"
	"strings"
	"unicode"
)

// Doc is one indexed document.
type Doc struct {
	ID   string
	Text string
}

// Match is one retrieval result.
type Match struct {
	ID    string
	Score float64
}

// Index is an immutable TF-IDF index over a document set. Documents are
// stored as an inverted index: per term, the documents containing it, in
// document order, with the term's weight in each document's unit vector.
type Index struct {
	docs     []Doc
	vocab    map[string]int32
	idf      []float64
	postings [][]posting
}

type posting struct {
	doc int
	w   float64
}

type sparseEntry struct {
	term int32
	w    float64
}

// Tokenize splits text into lowercase terms, breaking camelCase and
// punctuation, so code identifiers ("createEphemeralNode") share terms with
// prose descriptions ("create an ephemeral node").
func Tokenize(text string) []string {
	var terms []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			terms = append(terms, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	prevLower := false
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			if unicode.IsUpper(r) && prevLower {
				flush()
			}
			cur.WriteRune(r)
			prevLower = unicode.IsLower(r)
		case unicode.IsDigit(r):
			cur.WriteRune(r)
			prevLower = false
		default:
			flush()
			prevLower = false
		}
	}
	flush()
	return terms
}

// NewIndex builds an index over docs.
func NewIndex(docs []Doc) *Index {
	ix := &Index{docs: docs, vocab: map[string]int32{}}
	// Document frequencies.
	docTerms := make([][]int32, len(docs))
	df := []int{}
	for i, d := range docs {
		seen := map[int32]bool{}
		for _, term := range Tokenize(d.Text) {
			id, ok := ix.vocab[term]
			if !ok {
				id = int32(len(ix.vocab))
				ix.vocab[term] = id
				df = append(df, 0)
			}
			if !seen[id] {
				seen[id] = true
				df[id]++
			}
			docTerms[i] = append(docTerms[i], id)
		}
	}
	n := float64(len(docs))
	ix.idf = make([]float64, len(df))
	for t, c := range df {
		// Smoothed IDF keeps ubiquitous terms from zeroing out entirely.
		ix.idf[t] = math.Log((n+1)/(float64(c)+1)) + 1
	}
	ix.postings = make([][]posting, len(df))
	for i, terms := range docTerms {
		slices.Sort(terms)
		for _, e := range ix.vector(nil, terms) {
			ix.postings[e.term] = append(ix.postings[e.term], posting{doc: i, w: e.w})
		}
	}
	return ix
}

// vector appends to dst the unit-norm sparse TF-IDF vector of a sorted
// bag of term IDs (repeats count as term frequency). Every sum runs in term
// order, so equal bags give bit-identical vectors however they were
// assembled, and tied scores stay tied on every build.
func (ix *Index) vector(dst []sparseEntry, sorted []int32) []sparseEntry {
	vec := dst
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		t := sorted[i]
		vec = append(vec, sparseEntry{term: t, w: (1 + math.Log(float64(j-i))) * ix.idf[t]})
		i = j
	}
	var norm float64
	for _, e := range vec[len(dst):] {
		norm += e.w * e.w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := len(dst); i < len(vec); i++ {
			vec[i].w /= norm
		}
	}
	return vec
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.docs) }

// Terms returns the vocabulary IDs of text's tokens in token order, repeats
// kept; tokens outside the vocabulary are dropped. Concatenating the Terms
// of texts joined by spaces gives the Terms of the joined text, which lets
// a caller memoize a query's recurring fragments and assemble it from them.
func (ix *Index) Terms(text string) []int32 {
	var ids []int32
	for _, term := range Tokenize(text) {
		if id, ok := ix.vocab[term]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// cosine of two unit-norm sorted sparse vectors.
func cosine(a, b []sparseEntry) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].term < b[j].term:
			i++
		case a[i].term > b[j].term:
			j++
		default:
			dot += a[i].w * b[j].w
			i++
			j++
		}
	}
	return dot
}

// Query returns the top-k documents by cosine similarity to text, ties
// broken by document order. Documents with zero similarity are omitted; k
// <= 0 returns every match.
func (ix *Index) Query(text string, k int) []Match {
	r := ix.Ranker()
	top := r.Top(ix.Terms(text), k)
	matches := make([]Match, len(top))
	for i, d := range top {
		matches[i] = Match{ID: ix.docs[d].ID, Score: r.scores[d]}
	}
	return matches
}

// Ranker ranks queries against an index, reusing its buffers from one query
// to the next. It is not safe for concurrent use.
type Ranker struct {
	ix     *Index
	scores []float64
	vec    []sparseEntry
	top    []int
}

// Ranker returns a ranker over ix.
func (ix *Index) Ranker() *Ranker {
	return &Ranker{ix: ix, scores: make([]float64, len(ix.docs))}
}

// Top is Query for a text given by its Terms, returning document indices
// (positions in the indexed document slice) in rank order. It sorts terms
// in place, and the result is valid until the next call. Scores accumulate
// through the postings of the query's terms in term order — the same sums,
// in the same order, as a cosine against each document vector.
func (r *Ranker) Top(terms []int32, k int) []int {
	slices.Sort(terms)
	clear(r.scores)
	r.vec = r.ix.vector(r.vec[:0], terms)
	for _, e := range r.vec {
		for _, p := range r.ix.postings[e.term] {
			r.scores[p.doc] += e.w * p.w
		}
	}
	r.top = r.top[:0]
	for d, s := range r.scores {
		if s > 0 {
			r.top = append(r.top, d)
		}
	}
	slices.SortFunc(r.top, func(a, b int) int {
		switch {
		case r.scores[a] > r.scores[b]:
			return -1
		case r.scores[a] < r.scores[b]:
			return 1
		}
		return a - b
	})
	if k > 0 && len(r.top) > k {
		r.top = r.top[:k]
	}
	return r.top
}

// Similarity returns the cosine similarity between two texts in this
// index's space.
func (ix *Index) Similarity(a, b string) float64 {
	ta, tb := ix.Terms(a), ix.Terms(b)
	slices.Sort(ta)
	slices.Sort(tb)
	return cosine(ix.vector(nil, ta), ix.vector(nil, tb))
}
