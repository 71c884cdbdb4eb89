package main

import (
	"testing"

	"lisa/internal/ci"
	"lisa/internal/sched"
)

var smallSize = SystemSize{Features: 8, Handlers: 4, Violated: 2, BadSites: 2, Tests: 2}

// TestSystemAnswers checks that LISA's verdict on every generated semantic
// equals the answer recorded by construction, sequential and scheduled.
// (Byte-identity of the two renderings is checked by the benchmark run.)
func TestSystemAnswers(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sys := GenerateSystem(seed, smallSize)
		src := sys.Render(false, nil)
		if got := countViolated(sys.Answers(false)); got != smallSize.Violated {
			t.Fatalf("seed %d: %d violated semantics recorded, want %d", seed, got, smallSize.Violated)
		}
		e, err := newEngine(sys.Spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Assert(src, sys.Tests)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOutcomes(rep, sys.Answers(false)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		e2, err := newEngine(sys.Spec)
		if err != nil {
			t.Fatal(err)
		}
		srep, _, err := sched.New().Assert(e2, src, sys.Tests, sched.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOutcomes(srep, sys.Answers(false)); err != nil {
			t.Errorf("seed %d, scheduled: %v", seed, err)
		}
		fixed, err := e.Assert(sys.Render(true, nil), sys.Tests)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOutcomes(fixed, sys.Answers(true)); err != nil {
			t.Errorf("seed %d, repaired head: %v", seed, err)
		}
	}
}

// TestEditAnswers gates one block of every edit class and size against a
// primed scheduler and checks each gate against the edit's known answer.
func TestEditAnswers(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		sys := GenerateSystem(seed, smallSize)
		head := sys.Render(true, nil)
		stream := NewEditStream(sys, head, seed)
		for i := 0; i < len(editBlock); i++ {
			ed := stream.Next()
			e, err := newEngine(sys.Spec)
			if err != nil {
				t.Fatal(err)
			}
			sc := sched.New()
			if _, _, err := sc.Assert(e, head, sys.Tests, sched.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			res, err := ci.GateWith(e, ci.Change{Summary: ed.Name, OldSource: head, NewSource: ed.Source},
				sys.Tests, ci.GateOptions{Scheduler: sc, Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			run := &gateRun{res: res, engine: e}
			if err := checkGate(run, ed, sys); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestWrongAnswerFails checks that a wrong expected answer is caught.
func TestWrongAnswerFails(t *testing.T) {
	sys := GenerateSystem(1, smallSize)
	e, err := newEngine(sys.Spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Assert(sys.Render(false, nil), sys.Tests)
	if err != nil {
		t.Fatal(err)
	}
	answers := sys.Answers(false)
	for id, a := range answers {
		if a == answerPass {
			answers[id] = answerViolated
			break
		}
	}
	if checkOutcomes(rep, answers) == nil {
		t.Fatal("a wrong expected answer was not detected")
	}
}
