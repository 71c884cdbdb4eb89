// Package program provides immutable, content-addressed snapshots of one
// program version. A Snapshot owns the whole front-end pipeline for its
// source — parse → resolve → canonical print/hash → call graph — computed
// once and memoized, so every layer that replays the same version (the
// engine's Prepare, the scheduler's fingerprints and dirty sets, the CI
// gate, the corpus-replay experiments) shares one compilation instead of
// re-doing the front-end work per call site.
//
// Snapshots are keyed by the sha256 of their raw source and served from a
// bounded, process-wide LRU (package-level Load) or from a private Cache.
// Everything a Snapshot exposes is computed lazily at most once and is
// read-only from then on; Verify detects a caller that mutated the shared
// AST in spite of the contract. Callers that need a mutable AST (e.g. the
// mutation experiments) use Compile, which returns a fresh, caller-owned
// program that never touches the cache.
package program

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"lisa/internal/callgraph"
	"lisa/internal/faultinject"
	"lisa/internal/minij"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

// DefaultCapacity is the entry bound of the process-wide cache: large
// enough to hold every distinct version of the corpus replay sweeps
// (heads, buggy/fixed pairs, and mutants with their test combinations).
const DefaultCapacity = 512

// Snapshot is one immutable program version. The zero value is not usable;
// snapshots are created by a Cache (shared, content-addressed) or not at
// all — Compile hands out raw programs for callers that must mutate.
type Snapshot struct {
	source string
	hash   string
	cache  *Cache
	// base is the system snapshot a system-plus-tests snapshot was linked
	// onto (LoadWithTests): its program and per-method canons are shared,
	// not rebuilt. Nil for every other snapshot.
	base *Snapshot

	compileOnce sync.Once
	prog        *minij.Program
	err         error
	canon       string
	canonHash   string

	// restored marks a snapshot adopted from the disk tier; graphSummary
	// is its persisted call-graph, re-anchored lazily by Graph.
	restored     bool
	graphSummary *callgraph.Summary

	graphOnce sync.Once
	graph     *callgraph.Graph

	methodsOnce sync.Once
	methodCanon map[string]string

	shapeOnce sync.Once
	shape     string
}

// Hash returns the content address of a source string (sha256, hex).
func Hash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// Source returns the raw source text the snapshot was loaded from.
func (s *Snapshot) Source() string { return s.source }

// Hash returns the snapshot's content address: sha256 of the raw source.
func (s *Snapshot) Hash() string { return s.hash }

// Program returns the parsed and resolved program. The AST is shared by
// every holder of this snapshot and must not be mutated; use Compile for a
// private mutable copy.
func (s *Snapshot) Program() *minij.Program { return s.prog }

// Canon returns the canonical pretty-printing of the program — whitespace
// and formatting independent, so two reformattings of one program share it.
func (s *Snapshot) Canon() string { return s.canon }

// CanonHash returns the content address of the canonical form. This is the
// identity fingerprint callers hash into cache keys: it is stable across
// reformatting, unlike Hash.
func (s *Snapshot) CanonHash() string { return s.canonHash }

// Graph returns the call graph, built on first use and memoized. A
// snapshot restored from the disk tier re-anchors its persisted summary
// instead of rebuilding; any anchor failure falls back to a full build.
// Building the graph is also the persist trigger: it is the last (and
// most expensive) derived artifact, so a snapshot that reaches this point
// cold is fully warmed and worth writing to the store.
func (s *Snapshot) Graph() *callgraph.Graph {
	s.graphOnce.Do(func() {
		if s.prog == nil {
			return
		}
		if s.graphSummary != nil {
			if g, err := callgraph.FromSummary(s.prog, s.graphSummary); err == nil {
				s.graph = g
				if s.cache != nil {
					s.cache.graphRestores.Add(1)
				}
				return
			}
		}
		if s.cache != nil {
			s.cache.graphBuilds.Add(1)
		}
		s.graph = callgraph.Build(s.prog)
		s.persist()
	})
	return s.graph
}

// MethodCanon returns the canonical text of the named method
// ("Class.method"), or "" when no such method exists. The per-method
// renderings are built once and reused by every fingerprint and dirty-set
// computation over this version.
func (s *Snapshot) MethodCanon(fullName string) string {
	if s.base != nil {
		if c := s.base.MethodCanon(fullName); c != "" {
			return c
		}
	}
	s.methodsOnce.Do(func() {
		m := map[string]string{}
		for _, method := range s.ownMethods() {
			m[method.FullName()] = minij.FormatMethod(method)
		}
		s.methodCanon = m
	})
	return s.methodCanon[fullName]
}

// ownMethods lists the methods this snapshot renders itself: all of them,
// or for a linked snapshot only those of the classes it added to its base.
func (s *Snapshot) ownMethods() []*minij.Method {
	if s.prog == nil {
		return nil
	}
	classes := s.prog.Classes
	if s.base != nil {
		classes = classes[len(s.base.prog.Classes):]
	}
	var ms []*minij.Method
	for _, c := range classes {
		ms = append(ms, c.Methods...)
	}
	return ms
}

// Shape returns the program's declaration skeleton: class names, fields,
// and method signatures, without bodies. Two versions with equal shape
// differ at most in method bodies, so resolution context outside a changed
// body is preserved — the dirty-set localization precondition.
func (s *Snapshot) Shape() string {
	s.shapeOnce.Do(func() {
		if s.prog == nil {
			return
		}
		s.shape = classShape(s.prog)
	})
	return s.shape
}

// ErrMutated reports a snapshot whose shared AST no longer matches the
// canonical form captured at compile time — some holder mutated it, or a
// cache entry was corrupted. Callers match it with errors.Is.
var ErrMutated = errors.New("program: snapshot mutated")

// Verify checks the immutability contract: it re-renders the shared AST
// and compares it against the canonical form captured at compile time. A
// non-nil error wrapping ErrMutated means some holder mutated the
// snapshot's program.
func (s *Snapshot) Verify() error {
	if s.err != nil {
		return s.err
	}
	if got := minij.FormatProgram(s.prog); got != s.canon {
		return fmt.Errorf("%w: %.12s canonical AST drifted from its content address", ErrMutated, s.hash)
	}
	return nil
}

// build runs the compile stage exactly once per snapshot. A snapshot with a
// base links: only the test text after the base source is parsed and
// resolved, and the canon extends the base's. A test class reopening a
// system class, or an armed fault plan (whose corruption point edits the
// built AST in place and must never reach the shared base program), parses
// the joined text instead.
func (s *Snapshot) build() {
	if s.cache != nil {
		s.cache.compiles.Add(1)
	}
	if s.base != nil && !faultinject.Armed() {
		start := strings.Count(s.base.source, "\n") + 2
		prog, err := minij.Link(s.base.prog, s.source[len(s.base.source)+1:], start)
		if !errors.Is(err, minij.ErrReopen) {
			s.err = err
			if err == nil {
				s.prog = prog
				s.canon = s.base.canon
				if added := prog.Classes[len(s.base.prog.Classes):]; len(added) > 0 {
					if s.canon != "" {
						s.canon += "\n"
					}
					s.canon += minij.FormatClasses(added)
				}
				s.canonHash = Hash(s.canon)
			}
			return
		}
	}
	s.base = nil
	prog, err := Compile(s.source)
	if err != nil {
		s.err = err
		return
	}
	s.prog = prog
	s.canon = minij.FormatProgram(prog)
	s.canonHash = Hash(s.canon)
	// Fault-injection point: corrupt the cached AST *after* the canonical
	// form was captured, modeling a bad cache entry. Verify must catch it.
	if faultinject.Armed() {
		if k, ok := faultinject.At("program.load"); ok && k == faultinject.Corrupt {
			corruptProgram(prog)
		}
	}
}

// corruptProgram deterministically damages the AST: it drops the last
// statement of the first method that has a body. The canonical rendering
// then no longer matches the captured one.
func corruptProgram(p *minij.Program) {
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			if m.Body != nil && len(m.Body.Stmts) > 0 {
				m.Body.Stmts = m.Body.Stmts[:len(m.Body.Stmts)-1]
				return
			}
		}
	}
}

func classShape(p *minij.Program) string {
	var sb strings.Builder
	for _, c := range p.Classes {
		sb.WriteString("class ")
		sb.WriteString(c.Name)
		sb.WriteByte('\n')
		for _, f := range c.Fields {
			fmt.Fprintf(&sb, "  field %s %s\n", f.Type.String(), f.Name)
		}
		for _, m := range c.Methods {
			fmt.Fprintf(&sb, "  method static=%v %s %s(", m.Static, m.Ret.String(), m.Name)
			for i, p := range m.Params {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%s %s", p.Type.String(), p.Name)
			}
			sb.WriteString(")\n")
		}
	}
	return sb.String()
}

// Cache is a bounded LRU of snapshots keyed on source content hash. All
// methods are safe for concurrent use; concurrent Loads of one source
// compile it once and share the identical snapshot. Failed compiles are
// cached too (negative entries), so replay sweeps that probe versions a
// test cannot build against do not re-parse the failure every pass.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // hash → element; Value is *Snapshot
	order    *list.List               // front = most recently used

	hits      uint64
	misses    uint64
	evictions uint64

	compiles    atomic.Uint64
	graphBuilds atomic.Uint64

	// disk is the optional on-disk tier (SetStore); the counters split
	// restores (verified disk hits) from full compiles, and restores
	// further by path: decoded (binary AST + digest check) vs deep
	// verified (re-parse + re-render comparison — the sampled slow path,
	// and every legacy v1 restore).
	disk             atomic.Pointer[store.Store]
	restores         atomic.Uint64
	restoresDecoded  atomic.Uint64
	restoresVerified atomic.Uint64
	graphRestores    atomic.Uint64
	diskMisses       atomic.Uint64
	diskWrites       atomic.Uint64

	// restoreTick drives deep-verify sampling; deepVerifyEvery is the
	// knob (0: DefaultDeepVerifyEvery).
	restoreTick     atomic.Uint64
	deepVerifyEvery atomic.Int64
}

// DefaultDeepVerifyEvery is the default deep-verification sampling
// interval: one restore in every N re-runs the full parse + re-render
// comparison against the stored canon, so systematic store corruption is
// still caught process-locally without paying the legacy per-restore
// re-parse tax. faultinject-armed runs deep-verify every restore
// regardless of the knob.
const DefaultDeepVerifyEvery = 16

// SetDeepVerifyEvery sets the deep-verification sampling interval: every
// nth disk restore re-parses the source and re-renders the canon (the
// pre-v2 trust-nothing path). 1 deep-verifies every restore; n <= 0
// resets to DefaultDeepVerifyEvery. Safe to call concurrently with loads.
func (c *Cache) SetDeepVerifyEvery(n int) { c.deepVerifyEvery.Store(int64(n)) }

func (c *Cache) deepVerifyInterval() uint64 {
	if n := c.deepVerifyEvery.Load(); n > 0 {
		return uint64(n)
	}
	return DefaultDeepVerifyEvery
}

// NewCache returns an empty cache bounded to capacity entries
// (DefaultCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		order:    list.New(),
	}
}

// Load returns the snapshot for source, compiling it at most once per
// residency. The error (a parse or resolution failure) is the same on every
// load of the same bad source.
func (c *Cache) Load(source string) (*Snapshot, error) { return c.load(source, nil) }

// LoadWithTests returns the snapshot of base's system with tests appended,
// addressed like Load by the hash of the joined text (ticket.JoinTests), so
// both calls share one entry for one text. base must be a loaded snapshot.
// A miss the disk tier cannot serve links rather than parses: only the
// test text is lexed, parsed and resolved, onto base's already-resolved
// program (minij.Link), whose classes and statements the result shares.
func (c *Cache) LoadWithTests(base *Snapshot, tests []ticket.TestCase) (*Snapshot, error) {
	return c.load(ticket.JoinTests(base.source, tests), base)
}

func (c *Cache) load(source string, base *Snapshot) (*Snapshot, error) {
	h := Hash(source)
	c.mu.Lock()
	if el, ok := c.entries[h]; ok {
		c.order.MoveToFront(el)
		c.hits++
		snap := el.Value.(*Snapshot)
		c.mu.Unlock()
		// A concurrent loader may have inserted the entry and not finished
		// compiling; Do blocks until the one compile completes.
		snap.compileOnce.Do(snap.compile)
		return snap.result()
	}
	c.misses++
	snap := &Snapshot{source: source, hash: h, cache: c, base: base}
	c.entries[h] = c.order.PushFront(snap)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*Snapshot).hash)
		c.evictions++
	}
	c.mu.Unlock()
	snap.compileOnce.Do(snap.compile)
	return snap.result()
}

func (s *Snapshot) result() (*Snapshot, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// CacheStats is a point-in-time counter snapshot. Compiles counts actual
// parse+resolve executions — on a warm replay it equals the number of
// distinct versions, however many times each was loaded. GraphBuilds
// likewise counts call-graph constructions (at most one per snapshot).
type CacheStats struct {
	Entries     int
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Compiles    uint64
	GraphBuilds uint64
	// Restores counts snapshots adopted from the disk tier instead of
	// compiled; RestoresDecoded of those came through the parse-free
	// binary-AST path (canon digest + codec checksum), while
	// RestoresDeepVerified re-derived everything from source and compared
	// (the sampled deep-verify path, plus every legacy v1 restore).
	// GraphRestores counts call graphs re-anchored from a persisted
	// summary instead of rebuilt. All stay zero without a store.
	Restores             uint64
	RestoresDecoded      uint64
	RestoresDeepVerified uint64
	GraphRestores        uint64
}

// Sub returns the field-wise counter delta s − base. Entries is a
// point-in-time gauge, not a counter, so the current value is kept.
// Holders of a private cache get exact per-instance deltas; deltas over
// the process-wide Stats are approximate when other runs share the
// process concurrently.
func (s CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{
		Entries:              s.Entries,
		Hits:                 s.Hits - base.Hits,
		Misses:               s.Misses - base.Misses,
		Evictions:            s.Evictions - base.Evictions,
		Compiles:             s.Compiles - base.Compiles,
		GraphBuilds:          s.GraphBuilds - base.GraphBuilds,
		Restores:             s.Restores - base.Restores,
		RestoresDecoded:      s.RestoresDecoded - base.RestoresDecoded,
		RestoresDeepVerified: s.RestoresDeepVerified - base.RestoresDeepVerified,
		GraphRestores:        s.GraphRestores - base.GraphRestores,
	}
}

// Stats returns cumulative counters and the current entry count.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:              c.order.Len(),
		Hits:                 c.hits,
		Misses:               c.misses,
		Evictions:            c.evictions,
		Compiles:             c.compiles.Load(),
		GraphBuilds:          c.graphBuilds.Load(),
		Restores:             c.restores.Load(),
		RestoresDecoded:      c.restoresDecoded.Load(),
		RestoresDeepVerified: c.restoresVerified.Load(),
		GraphRestores:        c.graphRestores.Load(),
	}
}

// Hashes lists the resident snapshot hashes, most recently used first
// (for introspection and eviction-determinism tests).
func (c *Cache) Hashes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Snapshot).hash)
	}
	return out
}

// defaultCache is the process-wide snapshot store shared by the engine,
// scheduler, gate, and experiment harnesses.
var defaultCache = NewCache(DefaultCapacity)

// DefaultCache returns the process-wide snapshot cache instance (e.g. for
// attaching a disk tier behind it).
func DefaultCache() *Cache { return defaultCache }

// Load serves source from the process-wide cache.
func Load(source string) (*Snapshot, error) { return defaultCache.Load(source) }

// Stats reports the process-wide cache counters.
func Stats() CacheStats { return defaultCache.Stats() }

// Compile parses and resolves source into a fresh, caller-owned program,
// bypassing the cache. Use it when the AST will be mutated (snapshots are
// shared and must stay immutable).
func Compile(source string) (*minij.Program, error) {
	prog, err := minij.Parse(source)
	if err != nil {
		return nil, err
	}
	if err := minij.Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}
