package main

// The ci-gate edit stream: seeded edits of the clean head, each with its
// verdict known by construction. Edits come in blocks of ten with a fixed
// class × size mix, shuffled per block, so any whole number of blocks costs
// the same whatever the seed.

import (
	"fmt"
	"math/rand"
	"strings"
)

// Edit classes.
const (
	editWeaken     = "weaken"     // drops one guard conjunct: must BLOCK
	editBenign     = "benign"     // adds body statements: must PASS
	editWhitespace = "whitespace" // re-indents lines: must PASS with 0 executed jobs
)

// editBlock is one block's class × size mix. Nine of its ten edits follow
// the 54 consecutive-version diffs of the study corpus (internal/corpus):
//
//   - must BLOCK, 3 of 9: the corpus's 18 regressions (a fixed version to
//     the next buggy one) are a third of its edits; 4 of them change one
//     line and 14 change 15–23 lines (median 17).
//   - must PASS, 6 of 9: its 34 fixes and 2 head evolutions change one
//     line (26 of 36), 2–6 lines (8, median 5) or 23–30 lines (2).
//
// The tenth, a 200-line whitespace-only re-indent, is an assumption: the
// corpus holds no whitespace-only edit and none of hundreds of lines. It
// exercises the diff's per-line cost and the canonical-AST fingerprints
// that let a reformatting gate execute no job. Sizes are fixed so the cost
// of a block does not depend on the seed.
var editBlock = []struct {
	class string
	lines int
}{
	{editWeaken, 1}, {editWeaken, 17}, {editWeaken, 17},
	{editBenign, 1}, {editBenign, 1}, {editBenign, 1}, {editBenign, 1}, {editBenign, 5}, {editBenign, 26},
	{editWhitespace, 200},
}

// GateEdit is one proposed change of the head.
type GateEdit struct {
	Name    string
	Class   string
	Source  string
	Feature int // the weakened feature (weaken edits), else -1
}

// EditStream yields the seeded edits of sys's clean head.
type EditStream struct {
	sys   *System
	head  string
	lines []string
	rng   *rand.Rand
	block []int
	n     int
}

// NewEditStream starts the stream for seed.
func NewEditStream(sys *System, head string, seed int64) *EditStream {
	return &EditStream{sys: sys, head: head, lines: strings.Split(head, "\n"), rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next edit.
func (s *EditStream) Next() GateEdit {
	if len(s.block) == 0 {
		s.block = s.rng.Perm(len(editBlock))
	}
	kind := editBlock[s.block[0]]
	s.block = s.block[1:]
	s.n++
	ed := GateEdit{Class: kind.class, Feature: -1}
	f := s.sys.Features[s.rng.Intn(len(s.sys.Features))]
	h := s.rng.Intn(len(f.Sites))
	switch kind.class {
	case editWeaken:
		// Only multi-conjunct guards can lose a conjunct on one line.
		for len(f.Atoms) < 2 {
			f = s.sys.Features[s.rng.Intn(len(s.sys.Features))]
		}
		e := Edit{Guard: guardWeakened, Filler: kind.lines - 1}
		ed.Feature = f.Index
		ed.Source = s.sys.Render(true, map[[2]int]Edit{{f.Index, h}: e})
	case editBenign:
		e := Edit{Guard: -1, Filler: kind.lines}
		ed.Source = s.sys.Render(true, map[[2]int]Edit{{f.Index, h}: e})
	default:
		ed.Source = s.reindent(kind.lines)
	}
	ed.Name = fmt.Sprintf("edit %d: %s, %d lines", s.n, kind.class, kind.lines)
	return ed
}

// reindent replaces the leading tab of n consecutive tab-indented lines
// with spaces: a whitespace-only change of n lines.
func (s *EditStream) reindent(n int) string {
	out := append([]string(nil), s.lines...)
	i := s.rng.Intn(len(out))
	for done := 0; done < n; i = (i + 1) % len(out) {
		if strings.HasPrefix(out[i], "\t") {
			out[i] = "  " + out[i][1:]
			done++
		}
	}
	return strings.Join(out, "\n")
}
