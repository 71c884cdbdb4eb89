// Package callgraph builds static call graphs over resolved MiniJ programs
// and enumerates execution trees: for a contract's target statement, the set
// of entry→target call paths that concolic execution must cover. This plays
// the role Soot plays in the paper's prototype.
package callgraph

import (
	"fmt"
	"sort"
	"strings"

	"lisa/internal/minij"
)

// CallSite is one static call edge occurrence.
type CallSite struct {
	Caller *minij.Method
	Callee *minij.Method
	Call   *minij.Call
	// Dynamic marks edges added conservatively because the receiver's
	// static type was unknown (container elements).
	Dynamic bool
}

// String renders the edge.
func (cs CallSite) String() string {
	return fmt.Sprintf("%s -> %s @%s", cs.Caller.FullName(), cs.Callee.FullName(), cs.Call.Pos())
}

// Graph is a static call graph.
type Graph struct {
	Prog    *minij.Program
	Callees map[*minij.Method][]CallSite
	Callers map[*minij.Method][]CallSite
}

// Build constructs the call graph of a resolved program. Instance calls on
// statically unknown receivers link conservatively to every compatible
// method (same name and arity) in the program.
func Build(prog *minij.Program) *Graph {
	g := &Graph{
		Prog:    prog,
		Callees: map[*minij.Method][]CallSite{},
		Callers: map[*minij.Method][]CallSite{},
	}
	for _, caller := range prog.Methods() {
		minij.WalkExprs(caller.Body, func(e minij.Expr) {
			call, ok := e.(*minij.Call)
			if !ok {
				return
			}
			for _, edge := range g.resolveCall(caller, call) {
				g.Callees[caller] = append(g.Callees[caller], edge)
				g.Callers[edge.Callee] = append(g.Callers[edge.Callee], edge)
			}
		})
	}
	return g
}

func (g *Graph) resolveCall(caller *minij.Method, call *minij.Call) []CallSite {
	switch call.Kind {
	case minij.CallSelf:
		if m := caller.Class.Method(call.Name); m != nil {
			return []CallSite{{Caller: caller, Callee: m, Call: call}}
		}
	case minij.CallStatic:
		className := call.Recv.(*minij.Ident).Name
		if m := g.Prog.Method(className, call.Name); m != nil {
			return []CallSite{{Caller: caller, Callee: m, Call: call}}
		}
	case minij.CallInstance:
		rt := g.Prog.TypeOf(call.Recv)
		if rt.Kind == minij.TypeObject {
			if m := g.Prog.Method(rt.Class, call.Name); m != nil {
				return []CallSite{{Caller: caller, Callee: m, Call: call}}
			}
			return nil
		}
		if rt.Kind == minij.TypeAny {
			// Conservative: any class method with matching name and arity.
			var edges []CallSite
			for _, c := range g.Prog.Classes {
				if m := c.Method(call.Name); m != nil && !m.Static && len(m.Params) == len(call.Args) {
					edges = append(edges, CallSite{Caller: caller, Callee: m, Call: call, Dynamic: true})
				}
			}
			return edges
		}
	}
	return nil
}

// Roots returns the methods with no callers, sorted by qualified name.
// These are the default entry functions of an execution tree.
func (g *Graph) Roots() []*minij.Method {
	var out []*minij.Method
	for _, m := range g.Prog.Methods() {
		if len(g.Callers[m]) == 0 {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// Reachable returns the set of methods reachable from the given roots.
func (g *Graph) Reachable(roots []*minij.Method) map[*minij.Method]bool {
	seen := map[*minij.Method]bool{}
	var visit func(m *minij.Method)
	visit = func(m *minij.Method) {
		if seen[m] {
			return
		}
		seen[m] = true
		for _, e := range g.Callees[m] {
			visit(e.Callee)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// Path is a call chain from an entry method down to a target method:
// Path[0].Caller is the entry and Path[len-1].Callee is the target's
// enclosing method. An empty path means the target method is itself an
// entry.
type Path []CallSite

// Entry returns the entry method of the path given the target method (used
// when the path is empty).
func (p Path) Entry(target *minij.Method) *minij.Method {
	if len(p) == 0 {
		return target
	}
	return p[0].Caller
}

// String renders the chain "A.entry -> B.mid -> C.target".
func (p Path) String() string {
	if len(p) == 0 {
		return "(direct)"
	}
	parts := []string{p[0].Caller.FullName()}
	for _, cs := range p {
		parts = append(parts, cs.Callee.FullName())
	}
	return strings.Join(parts, " -> ")
}

// Tree is the execution tree rooted at a target method: every acyclic
// entry→target call chain.
type Tree struct {
	Target *minij.Method
	Paths  []Path
	// Truncated reports that enumeration hit MaxPaths or MaxDepth and the
	// tree is incomplete; the checker must surface this to developers
	// rather than report full coverage.
	Truncated bool
}

// Enumeration limits.
const (
	DefaultMaxDepth = 24
	DefaultMaxPaths = 4096
)

// TreeOptions bound execution-tree enumeration.
type TreeOptions struct {
	// IsEntry designates entry methods. Nil means "methods with no
	// callers".
	IsEntry func(*minij.Method) bool
	// MaxDepth bounds call-chain length (0 = DefaultMaxDepth).
	MaxDepth int
	// MaxPaths bounds the number of enumerated paths (0 = DefaultMaxPaths).
	MaxPaths int
}

// ExecutionTree enumerates all acyclic call paths from entry methods to the
// target method by walking the caller relation backwards from the target,
// exactly as §3.2 describes ("statically building a call graph and
// traversing all paths to each target").
func (g *Graph) ExecutionTree(target *minij.Method, opts TreeOptions) *Tree {
	isEntry := opts.IsEntry
	if isEntry == nil {
		isEntry = func(m *minij.Method) bool { return len(g.Callers[m]) == 0 }
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	maxPaths := opts.MaxPaths
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	tree := &Tree{Target: target}
	onPath := map[*minij.Method]bool{}

	// walk ascends from m toward entries; suffix is the call chain from m
	// down to the target (in top-down order).
	var walk func(m *minij.Method, suffix Path, depth int)
	walk = func(m *minij.Method, suffix Path, depth int) {
		if len(tree.Paths) >= maxPaths {
			tree.Truncated = true
			return
		}
		if isEntry(m) {
			cp := make(Path, len(suffix))
			copy(cp, suffix)
			tree.Paths = append(tree.Paths, cp)
			// An entry can also have callers (a public API called
			// internally); fall through and keep ascending too.
		}
		if depth >= maxDepth {
			tree.Truncated = true
			return
		}
		onPath[m] = true
		defer delete(onPath, m)
		for _, edge := range g.Callers[m] {
			if onPath[edge.Caller] {
				continue // break recursion cycles
			}
			walk(edge.Caller, append(Path{edge}, suffix...), depth+1)
		}
	}
	walk(target, nil, 0)
	keys := make([]string, len(tree.Paths))
	for i, p := range tree.Paths {
		keys[i] = p.String()
	}
	sort.Sort(pathOrder{tree.Paths, keys})
	return tree
}

// pathOrder sorts paths by rendering (keys[i] is paths[i].String(), built
// once rather than per comparison), then by length.
type pathOrder struct {
	paths []Path
	keys  []string
}

func (o pathOrder) Len() int { return len(o.paths) }
func (o pathOrder) Less(i, j int) bool {
	if o.keys[i] != o.keys[j] {
		return o.keys[i] < o.keys[j]
	}
	return len(o.paths[i]) < len(o.paths[j])
}
func (o pathOrder) Swap(i, j int) {
	o.paths[i], o.paths[j] = o.paths[j], o.paths[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}

// MethodsOnPath returns the ordered methods traversed by a path ending at
// target.
func MethodsOnPath(p Path, target *minij.Method) []*minij.Method {
	if len(p) == 0 {
		return []*minij.Method{target}
	}
	out := []*minij.Method{p[0].Caller}
	for _, cs := range p {
		out = append(out, cs.Callee)
	}
	return out
}
