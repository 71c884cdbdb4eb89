package embedding

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"createEphemeralNode", []string{"create", "ephemeral", "node"}},
		{"session.isClosing()", []string{"session", "is", "closing"}},
		{"HBase snapshot TTL", []string{"hbase", "snapshot", "ttl"}},
		{"getBatchedListing v2", []string{"get", "batched", "listing", "v2"}},
		{"", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func testDocs() []Doc {
	return []Doc{
		{ID: "t1", Text: "create ephemeral node on live session and verify it exists"},
		{ID: "t2", Text: "close session and verify ephemeral node removed"},
		{ID: "t3", Text: "snapshot restore rejects expired snapshot with TTL elapsed"},
		{ID: "t4", Text: "observer namenode returns block locations for listing"},
		{ID: "t5", Text: "compaction purges tombstones after gc grace period"},
	}
}

func TestQueryRanking(t *testing.T) {
	ix := NewIndex(testDocs())
	got := ix.Query("ephemeral node created while session closing", 2)
	if len(got) != 2 {
		t.Fatalf("matches = %v", got)
	}
	if got[0].ID != "t2" && got[0].ID != "t1" {
		t.Errorf("top match = %s, want an ephemeral/session test", got[0].ID)
	}
	for _, m := range got {
		if m.ID == "t5" {
			t.Error("tombstone test should not match an ephemeral query strongly")
		}
	}

	got = ix.Query("expired snapshot TTL check", 1)
	if len(got) == 0 || got[0].ID != "t3" {
		t.Errorf("snapshot query top = %v, want t3", got)
	}

	got = ix.Query("block locations observer", 1)
	if len(got) == 0 || got[0].ID != "t4" {
		t.Errorf("observer query top = %v, want t4", got)
	}
}

func TestQueryNoMatches(t *testing.T) {
	ix := NewIndex(testDocs())
	if got := ix.Query("zzzz qqqq", 5); len(got) != 0 {
		t.Errorf("unknown-term query = %v, want empty", got)
	}
}

func TestSelfSimilarityIsMaximal(t *testing.T) {
	ix := NewIndex(testDocs())
	for _, d := range testDocs() {
		got := ix.Query(d.Text, 1)
		if len(got) == 0 || got[0].ID != d.ID {
			t.Errorf("self query for %s = %v", d.ID, got)
		}
		if math.Abs(got[0].Score-1.0) > 1e-9 {
			t.Errorf("self similarity = %v, want 1.0", got[0].Score)
		}
	}
}

// Property: cosine similarity is symmetric and within [0, 1] for any pair
// of texts drawn from a small vocabulary.
func TestSimilarityProperties(t *testing.T) {
	ix := NewIndex(testDocs())
	vocab := []string{"session", "node", "snapshot", "ttl", "observer", "block", "purge"}
	mk := func(sel []uint8) string {
		var words []string
		for _, s := range sel {
			words = append(words, vocab[int(s)%len(vocab)])
		}
		if len(words) == 0 {
			return "empty"
		}
		out := words[0]
		for _, w := range words[1:] {
			out += " " + w
		}
		return out
	}
	f := func(aw, bw []uint8) bool {
		a, b := mk(aw), mk(bw)
		s1 := ix.Similarity(a, b)
		s2 := ix.Similarity(b, a)
		return math.Abs(s1-s2) < 1e-9 && s1 >= -1e-9 && s1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueryLimitAndOrder(t *testing.T) {
	ix := NewIndex(testDocs())
	all := ix.Query("session node snapshot observer", 0)
	for i := 1; i < len(all); i++ {
		if all[i].Score > all[i-1].Score {
			t.Errorf("matches not sorted: %v", all)
		}
	}
	limited := ix.Query("session node snapshot observer", 2)
	if len(limited) > 2 {
		t.Errorf("limit ignored: %v", limited)
	}
}

// TestVectorsBitIdenticalAcrossBuilds pins deterministic document vectors:
// every weight of every build of the same corpus has the same bits. The
// norm used to be summed in map order, so a document with many terms could
// normalize to vectors a few ulps apart from build to build, and tests tied
// on score swapped ranks between otherwise identical runs.
func TestVectorsBitIdenticalAcrossBuilds(t *testing.T) {
	docs := testDocs()
	var long []string
	for i := 0; i < 200; i++ {
		long = append(long, fmt.Sprintf("term%d", i%61), fmt.Sprintf("word%d", i%37))
	}
	docs = append(docs, Doc{ID: "long", Text: strings.Join(long, " ")}, Doc{ID: "long2", Text: strings.Join(long[7:], " ")})
	bits := func(ix *Index) []uint64 {
		var out []uint64
		for _, ps := range ix.postings {
			for _, p := range ps {
				out = append(out, uint64(p.doc), math.Float64bits(p.w))
			}
		}
		return out
	}
	want := bits(NewIndex(docs))
	query := strings.Join(long[3:90], " ")
	wantTop := NewIndex(docs).Query(query, 0)
	for i := 0; i < 50; i++ {
		ix := NewIndex(docs)
		if got := bits(ix); !slices.Equal(got, want) {
			t.Fatalf("build %d: document vectors differ from the first build", i)
		}
		top := ix.Query(query, 0)
		for j := range top {
			if math.Float64bits(top[j].Score) != math.Float64bits(wantTop[j].Score) || top[j].ID != wantTop[j].ID {
				t.Fatalf("build %d: query ranking differs: %v vs %v", i, top, wantTop)
			}
		}
	}
}
