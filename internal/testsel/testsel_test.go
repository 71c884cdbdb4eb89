package testsel

import (
	"testing"

	"lisa/internal/contract"
	"lisa/internal/minij"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

func suite() []ticket.TestCase {
	return []ticket.TestCase{
		{Name: "EphemeralTest.createLive", Description: "create ephemeral node on live session",
			Source: "class EphemeralTest { static void createLive() { } }"},
		{Name: "EphemeralTest.rejectClosing", Description: "reject ephemeral creation on closing session",
			Source: "class EphemeralTest { static void rejectClosing() { } }"},
		{Name: "SnapshotTest.restoreTTL", Description: "snapshot restore checks ttl expiration",
			Source: "class SnapshotTest { static void restoreTTL() { } }"},
		{Name: "QuotaTest.charge", Description: "quota ledger charges bytes for writes",
			Source: "class QuotaTest { static void charge() { } }"},
	}
}

func sessionSite(t *testing.T) *contract.Site {
	t.Helper()
	src := `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session s) {
		nodes.put(path, s);
	}
}

class Prep {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "err";
		}
		tree.createEphemeral(path, s);
	}
}
`
	prog, err := minij.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minij.Check(prog); err != nil {
		t.Fatal(err)
	}
	sem := &contract.Semantic{
		ID:          "r1",
		Kind:        contract.StateKind,
		Description: "no ephemeral node on a closing session",
		Target: contract.TargetPattern{
			Callee: "DataTree.createEphemeral",
			Bind:   map[string]int{"s": 1},
		},
		Pre: smt.MustParsePredicate(`s != null && s.closing == false`),
	}
	sites := contract.Match(sem, prog)
	if len(sites) != 1 {
		t.Fatalf("sites = %d", len(sites))
	}
	return sites[0]
}

func TestSelectRanksRelevantTests(t *testing.T) {
	sel := New(suite())
	site := sessionSite(t)
	got := sel.SelectForSite(site, nil, nil, 2)
	if len(got) == 0 {
		t.Fatal("no tests selected")
	}
	for _, tc := range got {
		if tc.Name == "QuotaTest.charge" {
			t.Errorf("quota test selected for an ephemeral feature: %v", got)
		}
	}
	names := map[string]bool{}
	for _, tc := range got {
		names[tc.Name] = true
	}
	if !names["EphemeralTest.createLive"] && !names["EphemeralTest.rejectClosing"] {
		t.Errorf("ephemeral tests not selected: %v", got)
	}
}

func TestSelectForSiteUnions(t *testing.T) {
	sel := New(suite())
	site := sessionSite(t)
	got := sel.SelectForSite(site, nil, nil, 2)
	if len(got) == 0 {
		t.Fatal("empty union")
	}
	seen := map[string]int{}
	for _, tc := range got {
		seen[tc.Name]++
	}
	for name, n := range seen {
		if n > 1 {
			t.Errorf("test %s selected %d times (union must dedup)", name, n)
		}
	}
}

func TestAllBaseline(t *testing.T) {
	sel := New(suite())
	if got := sel.All(); len(got) != 4 || got[0].Name != "EphemeralTest.createLive" {
		t.Errorf("All = %v", got)
	}
	if sel.Len() != 4 {
		t.Errorf("Len = %d", sel.Len())
	}
}
