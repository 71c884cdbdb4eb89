package minij

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lisa/internal/corpus"
	"lisa/internal/ticket"
)

// linkOrJoin links testText onto sys the way a system-plus-tests snapshot
// is built, and also parses and checks the joined text the way it used to
// be, returning both outcomes.
func linkOrJoin(sys, testText string) (linked *Program, linkErr error, joined *Program, joinErr error) {
	base, err := Parse(sys)
	if err != nil {
		panic(err)
	}
	if err := Check(base); err != nil {
		panic(err)
	}
	joinedSrc := sys + "\n" + testText
	linked, linkErr = Link(base, testText, strings.Count(sys, "\n")+2)
	joined, joinErr = Parse(joinedSrc)
	if joinErr == nil {
		joinErr = Check(joined)
	}
	return linked, linkErr, joined, joinErr
}

// checkLink asserts Link(Parse(sys), tests) equals Parse+Check of
// ticket.JoinTests(sys, tests): the same program, or the same error text.
func checkLink(t *testing.T, label, sys string, tests []ticket.TestCase) {
	t.Helper()
	testText := strings.TrimPrefix(ticket.JoinTests("", tests), "\n")
	if joined := ticket.JoinTests(sys, tests); joined != sys+"\n"+testText {
		t.Fatalf("%s: join helper and link split disagree", label)
	}
	linked, linkErr, joined, joinErr := linkOrJoin(sys, testText)
	if (linkErr == nil) != (joinErr == nil) || (linkErr != nil && linkErr.Error() != joinErr.Error()) {
		t.Fatalf("%s: link error %v, joined parse error %v", label, linkErr, joinErr)
	}
	if linkErr != nil {
		return
	}
	sameProgram(t, label, linked, joined)
	base := linked.base
	for _, c := range base.Classes {
		if linked.Class(c.Name) != c {
			t.Fatalf("%s: linked program does not share base class %s", label, c.Name)
		}
	}
}

// TestLinkMatchesJoinedParseOnCorpus covers all 16 corpus cases: every
// version of each system with the whole suite, and the head with each test
// alone.
func TestLinkMatchesJoinedParseOnCorpus(t *testing.T) {
	cases := corpus.Load().Cases
	if len(cases) != 16 {
		t.Fatalf("corpus has %d cases, want 16", len(cases))
	}
	for _, cs := range cases {
		checkLink(t, cs.ID+"/head", cs.Head(), cs.Tests)
		for _, tk := range cs.Tickets {
			checkLink(t, cs.ID+"/"+tk.ID+"/buggy", tk.BuggySource, cs.Tests)
			checkLink(t, cs.ID+"/"+tk.ID+"/fixed", tk.FixedSource, tk.RegressionTests)
		}
		for _, tc := range cs.Tests {
			checkLink(t, cs.ID+"/head+"+tc.Name, cs.Head(), []ticket.TestCase{tc})
		}
	}
}

// TestLinkMatchesJoinedParseOnGenerated links a driver suite onto seeded
// generated systems covering every statement and expression form.
func TestLinkMatchesJoinedParseOnGenerated(t *testing.T) {
	tests := []ticket.TestCase{
		{Name: "GenTest.a", Source: "class GenTest {\n\tstatic void a() {\n\t\tint r = GenDriver.entry(3);\n\t\tGen0 g = new Gen0();\n\t\tg.counter = g.work0(r, \"t\");\n\t}\n}"},
		// A second declaration of the same test class merges with the
		// first, exactly as in the joined parse.
		{Name: "GenTest.b", Source: "class GenTest {\n\tstatic int b() {\n\t\tif (GenDriver.entry(1) > 0) {\n\t\t\treturn 1;\n\t\t}\n\t\treturn 0;\n\t}\n}"},
	}
	for seed := int64(1); seed <= 25; seed++ {
		src := genSource(rand.New(rand.NewSource(seed)))
		checkLink(t, fmt.Sprintf("generated-seed-%d", seed), src, tests)
	}
}

// TestLinkErrorsMatchJoinedParse: lexical, syntax, duplicate-member and
// resolution errors in the test text read exactly as the joined parse
// reports them, positions included.
func TestLinkErrorsMatchJoinedParse(t *testing.T) {
	sys := corpus.Load().Cases[0].Head()
	for _, text := range []string{
		"class T { static void a() { int x = 1 @ 2; } }",
		"class T { static void a() { int x = ; } }",
		"class T {\n\tstatic void a() { }\n\tstatic void a() { }\n}",
		"class T { static void a() { undefinedCall(); } }",
		"class T { static void a() { Nope n = null; } }",
		"class T { static void a() { string s = \"open",
		"",
	} {
		checkLink(t, fmt.Sprintf("%q", text), sys, []ticket.TestCase{{Source: text}})
	}
}

// TestLinkRejectsReopenedSystemClass: a test class that reopens a system
// class could change how the system's own code resolves, so Link refuses
// it and leaves the joined parse to the caller.
func TestLinkRejectsReopenedSystemClass(t *testing.T) {
	sys := "class Session {\n\tbool closing;\n}"
	base := mustParseAndCheck(t, sys)
	_, err := Link(base, "class Session {\n\tstatic bool probe() {\n\t\treturn true;\n\t}\n}", 4)
	if !errors.Is(err, ErrReopen) {
		t.Fatalf("Link = %v, want ErrReopen", err)
	}
	if base.Class("Session").Method("probe") != nil || len(base.Classes) != 1 {
		t.Fatal("a refused link modified its base program")
	}
}

// FuzzLink feeds arbitrary test text to Link over a corpus system and
// holds it to the joined parse: same error text, or the same program.
func FuzzLink(f *testing.F) {
	cs := corpus.Load().Cases[0]
	for _, tc := range cs.Tests {
		f.Add(tc.Source)
	}
	f.Add("class T { static void a() { Session s = new Session(); } }")
	f.Add("class Session { }")
	f.Add("/* unterminated")
	sys := cs.Head()
	f.Fuzz(func(t *testing.T, text string) {
		linked, linkErr, joined, joinErr := linkOrJoin(sys, text)
		if errors.Is(linkErr, ErrReopen) {
			return
		}
		if (linkErr == nil) != (joinErr == nil) || (linkErr != nil && linkErr.Error() != joinErr.Error()) {
			t.Fatalf("link error %v, joined parse error %v", linkErr, joinErr)
		}
		if linkErr == nil {
			sameProgram(t, "fuzz", linked, joined)
		}
	})
}
