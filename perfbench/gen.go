package main

// The synthetic system behind full-assert and ci-gate. Every feature is an
// independent service: a state class, a target method guarded by one
// contract, and a set of handlers that each reach the target once, at the
// bottom of a branching caller chain. Guard shape (atoms and conjunct
// count), chain depth, guard placement, constants and the weakened sites
// vary with the seed; the multiset of shapes and the count of weakened
// sites do not, so the work per assertion is steady across seeds while the
// solver still sees distinct queries per feature. Every verdict is known by
// construction: a site is VERIFIED when its full guard dominates it on
// every path, and VIOLATED when one conjunct is dropped or the guard is
// removed. No shape has a loop, since the path walker unrolls loops at most
// once.

import (
	"fmt"
	"math/rand"
	"strings"

	"lisa/internal/ticket"
)

// Atom kinds a guard conjunct is drawn from.
const (
	atomNull = iota
	atomBool
	atomInt
	atomString
	numAtomKinds
)

// Site states. A feature whose sites are all guardFull passes; any other
// state makes its semantic VIOLATED.
const (
	guardFull = iota
	guardWeakened
	guardNone
)

// Answers known by construction.
const (
	answerPass     = "PASS"
	answerViolated = "VIOLATED"
)

// SystemSize fixes the shape of a generated system.
type SystemSize struct {
	Features int // a multiple of 4, so every depth and conjunct count appears equally often
	Handlers int // guarded call sites per feature
	Violated int // features with weakened sites
	BadSites int // weakened or unguarded sites per violated feature
	Tests    int // tests per feature
}

// Feature is one generated service and its contract.
type Feature struct {
	Index     int
	Atoms     []int // atom kinds of the guard, null first
	Depth     int   // caller hops from the entry to the site's method
	GuardTop  []bool
	IntBound  int
	Mode      string
	Sites     []int // per handler: guardFull, guardWeakened or guardNone
	DropAtom  []int // per handler: the conjunct a weakened site drops
	TestEntry []int // handlers the tests drive
}

// RuleID is the contract's registry ID.
func (f *Feature) RuleID() string { return fmt.Sprintf("pb-f%d", f.Index) }

// Answer is the semantic's verdict known by construction.
func (f *Feature) Answer() string {
	for _, st := range f.Sites {
		if st != guardFull {
			return answerViolated
		}
	}
	return answerPass
}

// System is a generated system: feature definitions plus rendered source,
// contract spec and tests.
type System struct {
	Features []*Feature
	Spec     string
	Tests    []ticket.TestCase
}

// GenerateSystem builds the seeded system at the given size.
func GenerateSystem(seed int64, size SystemSize) *System {
	rng := rand.New(rand.NewSource(seed))
	n := size.Features
	// Stratified shapes: each conjunct count 1–4 and each depth 1–4 on a
	// quarter of the features, paired through independent permutations.
	conj := rng.Perm(n)
	depth := rng.Perm(n)
	bad := rng.Perm(n)
	sys := &System{}
	for i := 0; i < n; i++ {
		f := &Feature{
			Index:    i,
			Depth:    depth[i]%4 + 1,
			IntBound: 1 + rng.Intn(90),
			Mode:     fmt.Sprintf("m%d", rng.Intn(1000)),
		}
		kinds := rng.Perm(numAtomKinds)[:conj[i]%4+1]
		for k := 0; k < numAtomKinds; k++ {
			for _, c := range kinds {
				if c == k {
					f.Atoms = append(f.Atoms, k)
				}
			}
		}
		f.Sites = make([]int, size.Handlers)
		f.DropAtom = make([]int, size.Handlers)
		f.GuardTop = make([]bool, size.Handlers)
		for h := range f.GuardTop {
			f.GuardTop[h] = rng.Intn(2) == 0
			f.DropAtom[h] = rng.Intn(len(f.Atoms))
		}
		if bad[i] < size.Violated {
			for j, h := range rng.Perm(size.Handlers)[:size.BadSites] {
				if j%2 == 0 && len(f.Atoms) > 1 {
					f.Sites[h] = guardWeakened
				} else {
					f.Sites[h] = guardNone
				}
			}
		}
		// Tests drive fully guarded handlers only, with a state that
		// satisfies the contract, so replay confirms and never refutes.
		for _, h := range rng.Perm(size.Handlers) {
			if len(f.TestEntry) == size.Tests {
				break
			}
			if f.Sites[h] == guardFull {
				f.TestEntry = append(f.TestEntry, h)
			}
		}
		sys.Features = append(sys.Features, f)
	}
	var spec strings.Builder
	for _, f := range sys.Features {
		fmt.Fprintf(&spec, "\nrule %s\ndescription: apply%d requires a live, current session\ntarget: Tgt%d.apply\nbind: s = arg 1\nrequire: %s\n",
			f.RuleID(), f.Index, f.Index, f.specGuard())
		for j, h := range f.TestEntry {
			sys.Tests = append(sys.Tests, f.test(j, h))
		}
	}
	sys.Spec = spec.String()
	return sys
}

// Sites counts the guarded call sites of the system.
func (s *System) Sites() int {
	n := 0
	for _, f := range s.Features {
		n += len(f.Sites)
	}
	return n
}

// Answers maps each rule ID to its verdict known by construction, for the
// system as generated (fixed = false) or with every site repaired.
func (s *System) Answers(fixed bool) map[string]string {
	out := map[string]string{}
	for _, f := range s.Features {
		if fixed {
			out[f.RuleID()] = answerPass
		} else {
			out[f.RuleID()] = f.Answer()
		}
	}
	return out
}

// Edit modifies one handler's rendering.
type Edit struct {
	Guard  int // the site state to render (-1 keeps the generated one)
	Filler int // benign statements prepended to the handler body
}

// Render returns the system source. fixed repairs every weakened site (the
// clean head the ci-gate workload edits); edits maps "feature/handler" to a
// per-handler modification.
func (s *System) Render(fixed bool, edits map[[2]int]Edit) string {
	var sb strings.Builder
	sb.Grow(s.Sites() * 900)
	for _, f := range s.Features {
		f.render(&sb, fixed, edits)
	}
	return sb.String()
}

func (f *Feature) atomCode(k int) string {
	switch k {
	case atomNull:
		return "s != null"
	case atomBool:
		return "s.live == true"
	case atomInt:
		return fmt.Sprintf("s.epoch >= %d", f.IntBound)
	default:
		return fmt.Sprintf("s.mode == %q", f.Mode)
	}
}

func (f *Feature) specGuard() string {
	parts := make([]string, len(f.Atoms))
	for i, k := range f.Atoms {
		parts[i] = f.atomCode(k)
	}
	return strings.Join(parts, " && ")
}

// codeGuard renders the if-condition of a site in the given state ("" for
// an unguarded site).
func (f *Feature) codeGuard(state, drop int) string {
	if state == guardNone {
		return ""
	}
	var parts []string
	for i, k := range f.Atoms {
		if state == guardWeakened && i == drop {
			continue
		}
		parts = append(parts, f.atomCode(k))
	}
	return strings.Join(parts, " && ")
}

func (f *Feature) render(sb *strings.Builder, fixed bool, edits map[[2]int]Edit) {
	i := f.Index
	fmt.Fprintf(sb, "\nclass St%d {\n\tbool live;\n\tint epoch;\n\tstring mode;\n}\n", i)
	fmt.Fprintf(sb, "\nclass Tgt%d {\n\tmap items;\n\n\tvoid apply(string key, St%d s) {\n\t\titems.put(key, s);\n\t}\n}\n", i, i)
	fmt.Fprintf(sb, "\nclass Svc%d {\n\tTgt%d tgt;\n", i, i)
	for h := range f.Sites {
		state := f.Sites[h]
		if fixed {
			state = guardFull
		}
		ed, edited := edits[[2]int{i, h}]
		if edited && ed.Guard >= 0 {
			state = ed.Guard
		}
		guard := f.codeGuard(state, f.DropAtom[h])
		level := 0 // the hop that holds the guard
		if f.GuardTop[h] {
			level = f.Depth
		}
		// Hop k calls hop k-1; hop 0 holds the site, hop Depth is the entry.
		for k := 0; k <= f.Depth; k++ {
			fmt.Fprintf(sb, "\n\tvoid h%d_%d(string key, St%d s, int n) {\n", h, k, i)
			if k == 0 && edited {
				for j := 0; j < ed.Filler; j++ {
					fmt.Fprintf(sb, "\t\tint pad%d = n + %d;\n", j, j)
				}
			}
			ind := "\t\t"
			guardHere := guard != "" && k == level
			if guardHere {
				fmt.Fprintf(sb, "\t\tif (%s) {\n", guard)
				ind = "\t\t\t"
			}
			if k == 0 {
				fmt.Fprintf(sb, "%stgt.apply(key, s);\n", ind)
			} else {
				fmt.Fprintf(sb, "%sif (n > %d) {\n%s\th%d_%d(key, s, n);\n%s} else {\n%s\th%d_%d(key, s, n + 1);\n%s}\n",
					ind, k, ind, h, k-1, ind, ind, h, k-1, ind)
			}
			if guardHere {
				sb.WriteString("\t\t}\n")
			}
			sb.WriteString("\t}\n")
		}
	}
	sb.WriteString("}\n")
}

// test drives handler h's entry with a state that satisfies the contract.
func (f *Feature) test(j, h int) ticket.TestCase {
	i := f.Index
	class := fmt.Sprintf("PbTest%d_%d", i, j)
	method := fmt.Sprintf("drive%d", j)
	key := fmt.Sprintf("/f%d/h%d", i, h)
	src := fmt.Sprintf(`
class %[1]s {
	static void %[2]s() {
		Svc%[3]d svc = new Svc%[3]d();
		svc.tgt = new Tgt%[3]d();
		svc.tgt.items = newMap();
		St%[3]d s = new St%[3]d();
		s.live = true;
		s.epoch = %[4]d;
		s.mode = %[5]q;
		svc.h%[6]d_%[7]d(%[8]q, s, %[9]d);
		assertTrue(svc.tgt.items.has(%[8]q), "applied");
	}
}
`, class, method, i, f.IntBound+j, f.Mode, h, f.Depth, key, j+1)
	return ticket.TestCase{
		Name:        class + "." + method,
		Description: fmt.Sprintf("apply through handler %d of service %d with a live session", h, i),
		Class:       class,
		Method:      method,
		Source:      src,
	}
}
