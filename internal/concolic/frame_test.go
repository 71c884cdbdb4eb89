package concolic

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lisa/internal/smt"
)

// frameModel is a deep copy of a frame's visible state.
type frameModel struct {
	aliases  map[string]string
	consts   map[string]ConstVal
	versions map[string]int
	assigned map[string]bool
	conds    []string
}

func snapshotFrame(st *sframe) frameModel {
	m := frameModel{
		aliases:  maps.Clone(st.aliases),
		consts:   maps.Clone(st.consts),
		versions: maps.Clone(st.versions),
		assigned: maps.Clone(st.assigned),
	}
	for _, rc := range st.conds {
		m.conds = append(m.conds, rc.guard.Guard)
	}
	return m
}

func (m frameModel) equal(o frameModel) bool {
	return maps.Equal(m.aliases, o.aliases) && maps.Equal(m.consts, o.consts) &&
		maps.Equal(m.versions, o.versions) && maps.Equal(m.assigned, o.assigned) &&
		slices.Equal(m.conds, o.conds)
}

func appendCond(st *sframe, guard string) {
	st.conds = append(st.conds, recordedCond{f: smt.NewAtom(smt.BoolAtom(guard)), guard: GuardStep{Guard: guard}})
}

// TestForkedFrameWritesStayPrivate: a write on a forked frame is never
// visible in its parent or its sibling, for every kind of write.
func TestForkedFrameWritesStayPrivate(t *testing.T) {
	parent := newSFrame(nil)
	parent.setConst("a", ConstVal{Kind: 1, Int: 1})
	parent.setAlias("x", "a")
	parent.markAssigned("x")
	parent.bumpVersion("y")
	appendCond(parent, "g0")
	writes := map[string]func(*sframe){
		"setConst":     func(st *sframe) { st.setConst("b", ConstVal{Kind: 1, Int: 2}) },
		"invalidate":   func(st *sframe) { st.invalidate("a") },
		"setAlias":     func(st *sframe) { st.setAlias("z", "b") },
		"dropAlias":    func(st *sframe) { st.dropAlias("x") },
		"markAssigned": func(st *sframe) { st.markAssigned("w") },
		"bumpVersion":  func(st *sframe) { st.bumpVersion("y") },
		"appendCond":   func(st *sframe) { appendCond(st, "g1") },
	}
	for name, write := range writes {
		p := parent.clone()
		before := snapshotFrame(p)
		left, right := p.clone(), p.clone()
		rightBefore := snapshotFrame(right)
		write(left)
		if snapshotFrame(left).equal(before) {
			t.Fatalf("%s: the write had no effect", name)
		}
		if !snapshotFrame(p).equal(before) {
			t.Errorf("%s: write on a fork reached its parent", name)
		}
		if !snapshotFrame(right).equal(rightBefore) {
			t.Errorf("%s: write on a fork reached its sibling", name)
		}
		appendCond(right, "sibling")
		if got := snapshotFrame(left).conds; got[len(got)-1] == "sibling" {
			t.Errorf("%s: sibling's condition overwrote the fork's", name)
		}
	}
}

// TestFrameForestMatchesDeepCopies drives random writes and forks over a
// growing set of frames and checks every frame, after every step, against
// a model that forks by deep copy: the semantics the copy-on-write frames
// must keep.
func TestFrameForestMatchesDeepCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	frames := []*sframe{newSFrame(nil)}
	models := []frameModel{{
		aliases: map[string]string{}, consts: map[string]ConstVal{},
		versions: map[string]int{}, assigned: map[string]bool{},
	}}
	keys := []string{"k0", "k1", "k0.f", "k0.f.g", "k1.f", "k0f"}
	key := func() string { return keys[rng.Intn(len(keys))] }
	for step := 0; step < 1500; step++ {
		i := rng.Intn(len(frames))
		st, m := frames[i], &models[i]
		switch op := rng.Intn(8); op {
		case 0:
			frames = append(frames, st.clone())
			models = append(models, frameModel{
				aliases: maps.Clone(m.aliases), consts: maps.Clone(m.consts),
				versions: maps.Clone(m.versions), assigned: maps.Clone(m.assigned),
				conds: slices.Clone(m.conds),
			})
		case 1:
			k, c := key(), ConstVal{Kind: 1, Int: int64(rng.Intn(3))}
			st.setConst(k, c)
			m.consts[k] = c
		case 2:
			k := key()
			st.invalidate(k)
			for have := range m.consts {
				if have == k || strings.HasPrefix(have, k+".") {
					delete(m.consts, have)
				}
			}
		case 3:
			k, v := key(), key()
			st.setAlias(k, v)
			m.aliases[k] = v
		case 4:
			k := key()
			st.dropAlias(k)
			delete(m.aliases, k)
		case 5:
			k := key()
			st.markAssigned(k)
			m.assigned[k] = true
		case 6:
			k := key()
			st.bumpVersion(k)
			m.versions[k]++
		case 7:
			g := fmt.Sprintf("g%d", step)
			appendCond(st, g)
			m.conds = append(m.conds, g)
		}
		for j, f := range frames {
			if !snapshotFrame(f).equal(models[j]) {
				t.Fatalf("step %d: frame %d diverged from its deep-copy model", step, j)
			}
		}
	}
}
