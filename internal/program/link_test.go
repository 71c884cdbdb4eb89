package program

import (
	"encoding/json"
	"testing"

	"lisa/internal/corpus"
	"lisa/internal/faultinject"
	"lisa/internal/ticket"
)

// sameSnapshot asserts a linked snapshot is interchangeable with the one
// Load builds from the joined text: same content address, canon, shape,
// per-method canons and call graph, and an intact Verify.
func sameSnapshot(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if got.Hash() != want.Hash() || got.Canon() != want.Canon() || got.CanonHash() != want.CanonHash() || got.Shape() != want.Shape() {
		t.Fatalf("%s: linked snapshot differs from the joined parse (address, canon or shape)", label)
	}
	for _, m := range want.Program().Methods() {
		if got.MethodCanon(m.FullName()) != want.MethodCanon(m.FullName()) {
			t.Fatalf("%s: method canon of %s differs", label, m.FullName())
		}
	}
	gs, _ := json.Marshal(got.Graph().Summary())
	ws, _ := json.Marshal(want.Graph().Summary())
	if string(gs) != string(ws) {
		t.Fatalf("%s: call graph differs", label)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestLoadWithTestsMatchesJoinedLoad covers every corpus case: the linked
// system-plus-tests snapshot equals the joined-text one, links (one compile
// for the tests, no re-parse of the system), and shares the system's
// program objects.
func TestLoadWithTestsMatchesJoinedLoad(t *testing.T) {
	for _, cs := range corpus.Load().Cases {
		c := NewCache(0)
		sys, err := c.Load(cs.Head())
		if err != nil {
			t.Fatal(err)
		}
		linked, err := c.LoadWithTests(sys, cs.Tests)
		if err != nil {
			t.Fatalf("%s: %v", cs.ID, err)
		}
		if linked.base != sys || linked.Program().Class(sys.Program().Classes[0].Name) != sys.Program().Classes[0] {
			t.Fatalf("%s: snapshot did not link onto its system", cs.ID)
		}
		if c.Stats().Compiles != 2 {
			t.Fatalf("%s: %d compiles, want 2", cs.ID, c.Stats().Compiles)
		}
		want, err := NewCache(0).Load(ticket.JoinTests(cs.Head(), cs.Tests))
		if err != nil {
			t.Fatal(err)
		}
		sameSnapshot(t, cs.ID, linked, want)
		// Load of the joined text now hits the linked entry.
		again, err := c.Load(ticket.JoinTests(cs.Head(), cs.Tests))
		if err != nil || again != linked {
			t.Fatalf("%s: Load of the joined text missed the linked entry", cs.ID)
		}
	}
}

// TestLoadWithTestsReopenFallsBackToJoinedParse: a test class that reopens
// a system class is built from the joined text, not linked, and still
// matches it.
func TestLoadWithTestsReopenFallsBackToJoinedParse(t *testing.T) {
	tests := []ticket.TestCase{{Name: "Session.probe", Source: "class Session {\n\tstatic bool probe() {\n\t\treturn true;\n\t}\n}"}}
	c := NewCache(0)
	sys, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadWithTests(sys, tests)
	if err != nil {
		t.Fatal(err)
	}
	if got.base != nil || got.Program().Class("Session") == sys.Program().Class("Session") {
		t.Fatal("a reopening test class was linked onto the shared system program")
	}
	if sys.Program().Class("Session").Method("probe") != nil {
		t.Fatal("the system snapshot was modified")
	}
	want, err := NewCache(0).Load(ticket.JoinTests(testSource, tests))
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "reopen", got, want)
}

// TestLinkedSnapshotPersistsWholeProgram: a linked snapshot's disk record
// is the whole program's, so a cold process restores it without a compile
// and gets the same snapshot as a joined parse.
func TestLinkedSnapshotPersistsWholeProgram(t *testing.T) {
	st := openStoreT(t)
	cs := corpus.Load().Cases[0]
	warm := NewCache(0)
	warm.SetStore(st)
	sys, err := warm.Load(cs.Head())
	if err != nil {
		t.Fatal(err)
	}
	linked, err := warm.LoadWithTests(sys, cs.Tests)
	if err != nil {
		t.Fatal(err)
	}
	linked.Graph()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	cold := NewCache(0)
	cold.SetStore(st)
	restored, err := cold.Load(ticket.JoinTests(cs.Head(), cs.Tests))
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Compiles != 0 || s.Restores != 1 {
		t.Fatalf("cold stats = %+v, want a restore and no compile", s)
	}
	want, err := NewCache(0).Load(ticket.JoinTests(cs.Head(), cs.Tests))
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "restored", restored, want)
}

// TestArmedLinkNeverCorruptsTheSystem: the program.load corruption point
// edits a built AST in place, so while a fault plan is armed the
// system-plus-tests snapshot is parsed privately and the shared system
// program stays intact.
func TestArmedLinkNeverCorruptsTheSystem(t *testing.T) {
	c := NewCache(0)
	sys, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.NewPlan(7).Set("program.load", faultinject.Corrupt))
	defer faultinject.Disarm()
	all, err := c.LoadWithTests(sys, []ticket.TestCase{{Source: "class T {\n\tstatic void a() {\n\t}\n}"}})
	if err != nil {
		t.Fatal(err)
	}
	if all.Verify() == nil {
		t.Fatal("armed build was not corrupted")
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("corruption reached the shared system program: %v", err)
	}
}
