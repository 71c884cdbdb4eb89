// Package contract defines LISA's low-level semantics: the machine-checkable
// form that inferred rules take. Per §3.1 of the paper, a low-level semantic
// has two components: a concise natural-language description and a safety
// contract <P> s <Q>, where s is a target statement identified from a past
// bug fix and P, Q are conjunctions of implementation-local predicates over
// the program state.
//
// Two contract kinds exist:
//
//   - State contracts bind predicate slots at a target statement (e.g.
//     "<session.isClosing == false> createEphemeralNode <>") and are checked
//     against path conditions with the complement construction.
//   - Structural contracts capture generalized system-level behaviors (e.g.
//     "no blocking I/O within synchronized blocks", the Figure 6
//     generalization) and are checked against program structure and runtime
//     events.
package contract

import (
	"fmt"
	"sort"
	"strings"

	"lisa/internal/minij"
	"lisa/internal/smt"
)

// Kind discriminates contract representations.
type Kind int

// Contract kinds.
const (
	StateKind Kind = iota
	StructuralKind
)

// String names the kind.
func (k Kind) String() string {
	if k == StructuralKind {
		return "structural"
	}
	return "state"
}

// Semantic is one low-level semantic.
type Semantic struct {
	// ID is a stable identifier, e.g. "zk-ephemeral-closing".
	ID string
	// Description is the concise natural-language low-level semantic.
	Description string
	// HighLevel is the system-level property this semantic protects.
	HighLevel string
	// Origin lists the failure tickets the semantic was inferred from.
	Origin []string

	Kind Kind

	// Target locates the statement s of the safety contract (state
	// contracts only).
	Target TargetPattern
	// Pre is the condition statement P over slot-rooted paths: the
	// predicate that must hold whenever the target statement executes.
	Pre smt.Formula
	// Post is the optional postcondition Q.
	Post smt.Formula

	// Structural is set for StructuralKind semantics.
	Structural StructuralRule
}

// Validate checks internal consistency: state contracts must have a target
// and a precondition whose roots are all bound by the target pattern.
func (s *Semantic) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("contract: semantic without ID")
	}
	switch s.Kind {
	case StructuralKind:
		if s.Structural == nil {
			return fmt.Errorf("contract %s: structural kind without rule", s.ID)
		}
		return nil
	case StateKind:
		if s.Target.Callee == "" {
			return fmt.Errorf("contract %s: state kind without target callee", s.ID)
		}
		if s.Pre == nil {
			return fmt.Errorf("contract %s: state kind without precondition", s.ID)
		}
		bound := map[string]bool{}
		for slot := range s.Target.Bind {
			bound[slot] = true
		}
		for root := range smt.Roots(s.Pre) {
			if !bound[root] {
				return fmt.Errorf("contract %s: precondition root %q is not bound by the target pattern", s.ID, root)
			}
		}
		return nil
	}
	return fmt.Errorf("contract %s: unknown kind %d", s.ID, s.Kind)
}

// String renders the safety contract in the paper's <P> s <Q> notation.
func (s *Semantic) String() string {
	if s.Kind == StructuralKind {
		return fmt.Sprintf("[%s] structural: %s", s.ID, s.Structural.Name())
	}
	post := ""
	if s.Post != nil {
		post = s.Post.String()
	}
	return fmt.Sprintf("[%s] <%s> %s <%s>", s.ID, s.Pre, s.Target.Callee, post)
}

// TargetPattern locates target statements: calls to a given callee method,
// optionally restricted to an enclosing method, with slot bindings mapping
// predicate roots to call operands.
type TargetPattern struct {
	// Callee is the qualified method the target statement calls, e.g.
	// "DataTree.createEphemeral".
	Callee string
	// Within optionally restricts matches to statements inside the given
	// "Class.method"; empty matches anywhere.
	Within string
	// Bind maps slot names used in Pre/Post to operands of the matched
	// call: argument index >= 0, or ReceiverSlot for the call's receiver.
	Bind map[string]int
}

// ReceiverSlot binds a slot to the call receiver expression.
const ReceiverSlot = -1

// Site is a matched target statement occurrence.
type Site struct {
	Semantic *Semantic
	Stmt     minij.Stmt
	Call     *minij.Call
	Method   *minij.Method // enclosing method
	// Bindings maps slot name -> operand expression.
	Bindings map[string]minij.Expr
	// BindErr records why slot binding failed (complex operand), if it did.
	BindErr error
}

// String renders the site location.
func (st *Site) String() string {
	return fmt.Sprintf("%s @%s (%s)", st.Method.FullName(), st.Stmt.Pos(), minij.CanonStmt(st.Stmt))
}

// BindingPath returns the dotted path of the operand bound to slot, if the
// operand is a simple access chain (identifier or field chain); otherwise
// ok is false and the site requires developer review.
func (st *Site) BindingPath(slot string) (string, bool) {
	e, ok := st.Bindings[slot]
	if !ok {
		return "", false
	}
	return ExprPath(e)
}

// ExprPath converts an access-chain expression to a dotted path: an
// identifier, a chain of field accesses, or a nullary method call in getter
// position. Non-chain expressions are not path-convertible.
func ExprPath(e minij.Expr) (string, bool) {
	switch n := e.(type) {
	case *minij.Ident:
		return n.Name, true
	case *minij.FieldAccess:
		base, ok := ExprPath(n.Recv)
		if !ok {
			return "", false
		}
		return base + "." + n.Name, true
	case *minij.Call:
		if n.Recv == nil || len(n.Args) != 0 {
			return "", false
		}
		base, ok := ExprPath(n.Recv)
		if !ok {
			return "", false
		}
		return base + "." + n.Name, true
	}
	return "", false
}

// Match finds every target-statement occurrence of sem in prog. The program
// must be resolved. Matching keys on the callee's qualified name (receiver
// static type for instance calls, class name for static calls), so renamed
// locals and new call paths still match — this is what lets a rule inferred
// from one fix catch the same mistake on a different path. Matching reads
// the program's callee index (minij.Program.CallSites), built once per
// program and shared by every semantic.
func Match(sem *Semantic, prog *minij.Program) []*Site {
	if sem.Kind != StateKind {
		return nil
	}
	var sites []*Site
	var names []string // sites[i].Method.FullName(), rendered once
	for _, cs := range prog.CallSites(sem.Target.Callee) {
		name := cs.Method.FullName()
		if sem.Target.Within != "" && name != sem.Target.Within {
			continue
		}
		site := &Site{
			Semantic: sem,
			Stmt:     cs.Stmt,
			Call:     cs.Call,
			Method:   cs.Method,
			Bindings: make(map[string]minij.Expr, len(sem.Target.Bind)),
		}
		for slot, idx := range sem.Target.Bind {
			var operand minij.Expr
			switch {
			case idx == ReceiverSlot:
				operand = cs.Call.Recv
			case idx >= 0 && idx < len(cs.Call.Args):
				operand = cs.Call.Args[idx]
			}
			if operand == nil {
				site.BindErr = fmt.Errorf("contract %s: slot %q binds operand %d of %s, which does not exist",
					sem.ID, slot, idx, minij.CanonExpr(cs.Call))
				continue
			}
			site.Bindings[slot] = operand
		}
		sites = append(sites, site)
		names = append(names, name)
	}
	// The index keeps walk order, so this sort sees the same input as a
	// whole-program walk would give it and orders ties the same way.
	sort.Sort(siteOrder{sites, names})
	return sites
}

// siteOrder sorts sites by enclosing method name, then source position.
type siteOrder struct {
	sites []*Site
	names []string
}

func (o siteOrder) Len() int { return len(o.sites) }
func (o siteOrder) Less(i, j int) bool {
	if o.names[i] != o.names[j] {
		return o.names[i] < o.names[j]
	}
	return o.sites[i].Stmt.Pos().Before(o.sites[j].Stmt.Pos())
}
func (o siteOrder) Swap(i, j int) {
	o.sites[i], o.sites[j] = o.sites[j], o.sites[i]
	o.names[i], o.names[j] = o.names[j], o.names[i]
}

// SiteChecker instantiates the semantic's precondition at a site by
// renaming each slot root to the concrete operand path. The returned
// formula is expressed over the site's variable names, ready to compare
// with recorded path conditions. Slots whose operands are not simple access
// chains make ok false; such sites need developer review (the paper's
// normalization step covers simple chains only).
func SiteChecker(site *Site) (smt.Formula, bool) {
	sem := site.Semantic
	f := sem.Pre
	for slot := range sem.Target.Bind {
		path, ok := site.BindingPath(slot)
		if !ok {
			return nil, false
		}
		f = smt.RenameRoot(f, slot, path)
	}
	return f, true
}

// Registry is an ordered collection of semantics, the "executable contract"
// store that a CI/CD pipeline enforces.
type Registry struct {
	sems []*Semantic
	byID map[string]*Semantic
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]*Semantic{}}
}

// Add validates and registers a semantic. Re-adding an existing ID replaces
// the previous version (a refined rule supersedes the old one).
func (r *Registry) Add(s *Semantic) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if old, ok := r.byID[s.ID]; ok {
		for i, e := range r.sems {
			if e == old {
				r.sems[i] = s
				break
			}
		}
	} else {
		r.sems = append(r.sems, s)
	}
	r.byID[s.ID] = s
	return nil
}

// Get returns the semantic with the given ID, or nil.
func (r *Registry) Get(id string) *Semantic { return r.byID[id] }

// All returns the registered semantics in registration order.
func (r *Registry) All() []*Semantic {
	out := make([]*Semantic, len(r.sems))
	copy(out, r.sems)
	return out
}

// Len returns the number of registered semantics.
func (r *Registry) Len() int { return len(r.sems) }

// Summary renders a short multi-line listing.
func (r *Registry) Summary() string {
	var sb strings.Builder
	for _, s := range r.sems {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
