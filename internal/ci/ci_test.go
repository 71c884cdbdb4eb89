package ci

import (
	"strings"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/sched"
	"lisa/internal/ticket"
)

const sysFixed = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class PrepProcessor {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		tree.createEphemeral(path, s);
	}
}
`

const sysRegressed = sysFixed + `
class SessionTracker {
	DataTree tree;

	void touchAndRegister(string path, Session s) {
		if (s == null) {
			return;
		}
		tree.createEphemeral(path, s);
	}
}
`

const sysSafeChange = sysFixed + `
class SessionTracker {
	DataTree tree;

	void touchAndRegister(string path, Session s) {
		if (s == null || s.closing) {
			return;
		}
		tree.createEphemeral(path, s);
	}
}
`

func engineWithRule(t *testing.T) *core.Engine {
	t.Helper()
	e := core.New()
	_, err := e.ProcessTicket(&ticket.Ticket{
		ID:          "ZK-1208",
		Title:       "Ephemeral node on closing session",
		BuggySource: strings.Replace(sysFixed, " || s.closing", "", 1),
		FixedSource: sysFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGateBlocksRegression(t *testing.T) {
	e := engineWithRule(t)
	res, err := Gate(e, Change{
		Author:    "dev",
		Summary:   "add session tracker fast path",
		OldSource: sysFixed,
		NewSource: sysRegressed,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatalf("regression passed the gate:\n%s", res.Summary())
	}
	sum := res.Summary()
	if !strings.Contains(sum, "BLOCKED") || !strings.Contains(sum, "SessionTracker.touchAndRegister") {
		t.Errorf("summary:\n%s", sum)
	}
	if res.DiffStat == "" {
		t.Error("missing diff stat")
	}
}

func TestGatePassesSafeChange(t *testing.T) {
	e := engineWithRule(t)
	res, err := Gate(e, Change{
		Summary:   "add session tracker with proper guard",
		OldSource: sysFixed,
		NewSource: sysSafeChange,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("safe change blocked:\n%s", res.Summary())
	}
}

func TestGateBlocksBrokenBuild(t *testing.T) {
	e := engineWithRule(t)
	res, err := Gate(e, Change{NewSource: "class Broken {"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Error("broken build passed")
	}
	if !strings.Contains(res.Summary(), "does not build") {
		t.Errorf("summary:\n%s", res.Summary())
	}
}

func TestGateWarnsOnUncoveredPath(t *testing.T) {
	e := engineWithRule(t)
	tests := []ticket.TestCase{{
		Name:        "T.unrelated",
		Description: "unrelated arithmetic",
		Class:       "T",
		Method:      "unrelated",
		Source: `
class T {
	static void unrelated() {
		assertTrue(true, "ok");
	}
}
`,
	}}
	res, err := Gate(e, Change{NewSource: sysSafeChange}, tests)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("blocked:\n%s", res.Summary())
	}
	warned := false
	for _, f := range res.Findings {
		if f.Severity == "WARN" && strings.Contains(f.Text, "no selected test") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("expected uncovered-path warning:\n%s", res.Summary())
	}
}

// TestGateBlocksPostconditionViolation: an authored contract with an
// ensure-clause blocks a change whose implementation stops establishing the
// postcondition.
func TestGateBlocksPostconditionViolation(t *testing.T) {
	source := `
class Txn {
	string id;
	bool applied;
}

class Ledger {
	list entries;

	void init() {
		entries = newList();
	}

	void commit(Txn t) {
		entries.add(t.id);
		t.applied = true;
	}
}

class API {
	Ledger ledger;

	void init(Ledger l) {
		ledger = l;
	}

	void submit(Txn t) {
		if (t == null) {
			throw "NullTxn";
		}
		ledger.commit(t);
	}
}
`
	broken := strings.Replace(source, "\t\tentries.add(t.id);\n\t\tt.applied = true;", "\t\tentries.add(t.id);", 1)
	if broken == source {
		t.Fatal("mutation failed")
	}
	sems, err := contract.ParseSpec(`
rule txn-applied
description: Committing a transaction marks it applied.
target: Ledger.commit
bind: t = arg 0
require: t != null
ensure: t.applied == true
`)
	if err != nil {
		t.Fatal(err)
	}
	e := core.New()
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			t.Fatal(err)
		}
	}
	tests := []ticket.TestCase{{
		Name:        "LedgerTest.submitCommits",
		Description: "submitting a transaction commits it to the ledger applied",
		Class:       "LedgerTest", Method: "submitCommits",
		Source: `
class LedgerTest {
	static void submitCommits() {
		Ledger l = new Ledger();
		API api = new API(l);
		Txn t = new Txn();
		t.id = "tx1";
		api.submit(t);
	}
}
`,
	}}
	good, err := Gate(e, Change{Summary: "baseline", NewSource: source}, tests)
	if err != nil {
		t.Fatal(err)
	}
	if !good.Pass {
		t.Fatalf("baseline blocked:\n%s", good.Summary())
	}
	bad, err := Gate(e, Change{Summary: "drop applied flag", OldSource: source, NewSource: broken}, tests)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Pass {
		t.Fatalf("postcondition regression passed the gate:\n%s", bad.Summary())
	}
	if !strings.Contains(bad.Summary(), "postcondition violated") {
		t.Errorf("summary:\n%s", bad.Summary())
	}
}

// TestGateWithScheduler: the scheduled gate reaches the same decision as
// the sequential gate, and the second gate on the same scheduler skips
// every cached contract.
func TestGateWithScheduler(t *testing.T) {
	e := engineWithRule(t)
	s := sched.New()
	opts := GateOptions{Scheduler: s, Workers: 4, Incremental: true}
	first, err := GateWith(e, Change{
		Summary:   "add session tracker fast path",
		OldSource: sysFixed,
		NewSource: sysRegressed,
	}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Pass {
		t.Fatalf("regression passed the scheduled gate:\n%s", first.Summary())
	}
	if first.Sched == nil || first.Asserted == 0 {
		t.Fatalf("missing scheduler stats: %+v", first.Sched)
	}
	seq, err := Gate(e, Change{OldSource: sysFixed, NewSource: sysRegressed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Pass != first.Pass || len(seq.Findings) != len(first.Findings) {
		t.Errorf("scheduled gate diverged from sequential:\n%s\nvs\n%s", first.Summary(), seq.Summary())
	}

	second, err := GateWith(e, Change{
		Summary:   "resubmit unchanged",
		OldSource: sysRegressed,
		NewSource: sysRegressed,
	}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Pass {
		t.Error("unchanged regression passed on resubmit")
	}
	if second.Skipped == 0 || second.Sched.Executed != 0 {
		t.Errorf("resubmit did not hit cache: asserted=%d skipped=%d executed=%d",
			second.Asserted, second.Skipped, second.Sched.Executed)
	}
}

// TestSummaryGolden pins the exact summary text, including the
// asserted-vs-skipped contract counts and scheduler job lines.
func TestSummaryGolden(t *testing.T) {
	res := &Result{
		Pass:     false,
		DiffStat: "+7 -0 lines",
		Report:   &core.AssertReport{},
		Asserted: 1,
		Skipped:  2,
		Sched: &sched.Stats{
			Workers: 4, Jobs: 6, Executed: 2, CacheHits: 4,
			ImpactedJobs: 2, DirtyMethods: []string{"SessionTracker.touchAndRegister"},
		},
		Findings: []Finding{
			{Severity: "BLOCK", Text: "[zk-1208] violation"},
			{Severity: "WARN", Text: "[zk-1208] uncovered path"},
		},
	}
	want := `GATE: BLOCKED (+7 -0 lines)
  contracts: 1 asserted, 2 skipped (cached)
  jobs: 6 total, 2 executed, 4 cache hits (workers=4)
  dirty: SessionTracker.touchAndRegister (2 of 6 jobs impacted)
  BLOCK [zk-1208] violation
  WARN  [zk-1208] uncovered path
`
	if got := res.Summary(); got != want {
		t.Errorf("summary mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	seq := &Result{Pass: true, Report: &core.AssertReport{}, Asserted: 3}
	wantSeq := `GATE: PASS
  contracts: 3 asserted, 0 skipped (cached)
`
	if got := seq.Summary(); got != wantSeq {
		t.Errorf("sequential summary mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, wantSeq)
	}

	broken := &Result{Pass: false, Findings: []Finding{{Severity: "BLOCK", Text: "change does not build: x"}}}
	wantBroken := `GATE: BLOCKED
  BLOCK change does not build: x
`
	if got := broken.Summary(); got != wantBroken {
		t.Errorf("broken-build summary mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, wantBroken)
	}
}

// TestGateBoundedSiteFollowsInconclusivePolicy: a site whose exploration
// hit a bound leaves its semantic INCONCLUSIVE, so the gate blocks it
// fail-closed and warns fail-open, naming the bound.
func TestGateBoundedSiteFollowsInconclusivePolicy(t *testing.T) {
	halfGuarded := strings.Replace(sysFixed, `	void processCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}`, `	void processCreate(string path, Session s, bool checked) {
		if (checked) {
			if (s == null || s.closing) {
				throw "KeeperException";
			}
		}`, 1)
	for _, failOpen := range []bool{false, true} {
		e := engineWithRule(t)
		e.MaxStaticPaths = 1
		res, err := GateWith(e, Change{NewSource: halfGuarded}, nil, GateOptions{FailOpen: failOpen})
		if err != nil {
			t.Fatal(err)
		}
		sum := res.Summary()
		if res.Pass != failOpen || !strings.Contains(sum, "INCONCLUSIVE") || !strings.Contains(sum, "bounded: 1 site(s)") {
			t.Errorf("fail-open=%v: pass=%v\n%s", failOpen, res.Pass, sum)
		}
	}
}
