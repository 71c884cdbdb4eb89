package diffutil_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lisa/internal/corpus"
	"lisa/internal/diffutil"
)

// referenceDiff is the earlier Myers implementation, kept as the reference
// for the compact-trace one: it snapshots the whole 2(n+m)+1 diagonal array
// on every step.
func referenceDiff(a, b string) []diffutil.Edit {
	al, bl := diffutil.SplitLines(a), diffutil.SplitLines(b)
	n, m := len(al), len(bl)
	maxD := n + m
	if maxD == 0 {
		return nil
	}
	v := make([]int, 2*maxD+1)
	var trace [][]int
	var endD int
found:
	for d := 0; d <= maxD; d++ {
		vc := make([]int, len(v))
		copy(vc, v)
		trace = append(trace, vc)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[maxD+k-1] < v[maxD+k+1]) {
				x = v[maxD+k+1]
			} else {
				x = v[maxD+k-1] + 1
			}
			y := x - k
			for x < n && y < m && al[x] == bl[y] {
				x++
				y++
			}
			v[maxD+k] = x
			if x >= n && y >= m {
				endD = d
				break found
			}
		}
	}
	var rev []diffutil.Edit
	x, y := n, m
	for d := endD; d > 0; d-- {
		vPrev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[maxD+k-1] < vPrev[maxD+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[maxD+prevK]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			rev = append(rev, diffutil.Edit{Kind: diffutil.Keep, Text: al[x-1], ALine: x, BLine: y})
			x--
			y--
		}
		if x == prevX {
			rev = append(rev, diffutil.Edit{Kind: diffutil.Insert, Text: bl[y-1], BLine: y})
			y--
		} else {
			rev = append(rev, diffutil.Edit{Kind: diffutil.Delete, Text: al[x-1], ALine: x})
			x--
		}
	}
	for x > 0 && y > 0 {
		rev = append(rev, diffutil.Edit{Kind: diffutil.Keep, Text: al[x-1], ALine: x, BLine: y})
		x--
		y--
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func checkSameScript(t *testing.T, name, a, b string) {
	t.Helper()
	got, want := diffutil.Diff(a, b), referenceDiff(a, b)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: edit script differs from the reference\ngot:  %v\nwant: %v", name, got, want)
	}
}

// TestDiffMatchesReferenceOnCorpus diffs every ordered pair of versions a
// corpus case carries (each ticket's buggy and fixed source, and the head)
// both ways, against the reference.
func TestDiffMatchesReferenceOnCorpus(t *testing.T) {
	pairs := 0
	for _, cs := range corpus.Load().Cases {
		versions := []string{cs.Head()}
		for _, tk := range cs.Tickets {
			versions = append(versions, tk.BuggySource, tk.FixedSource)
		}
		for i, a := range versions {
			for j, b := range versions {
				checkSameScript(t, fmt.Sprintf("%s %d->%d", cs.ID, i, j), a, b)
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no corpus pairs")
	}
}

// TestDiffMatchesReferenceOnRandomPairs covers shapes the corpus lacks:
// empty sides, total rewrites, and heavy repetition (many equal lines, so
// many tied snake choices), from a fixed seed.
func TestDiffMatchesReferenceOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lines := func(n, alphabet int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "l%d\n", rng.Intn(alphabet))
		}
		return sb.String()
	}
	for i := 0; i < 500; i++ {
		alphabet := 1 + rng.Intn(8)
		a, b := lines(rng.Intn(40), alphabet), lines(rng.Intn(40), alphabet)
		checkSameScript(t, fmt.Sprintf("random %d", i), a, b)
	}
}
