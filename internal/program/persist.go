package program

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"maps"
	"sort"

	"lisa/internal/faultinject"

	"lisa/internal/callgraph"
	"lisa/internal/minij"
	"lisa/internal/store"
)

// snapNamespace versions the snapshot records in the on-disk store; bump
// it when the record encoding changes so stale stores read as misses.
// snap.v2 records carry the binary AST (minij.EncodeProgram), making
// restore parse-free; snapLegacyNamespace is the PR-7 record shape, still
// readable (via the re-parse path) and migrated to v2 on first restore.
const (
	snapNamespace       = "snap.v2"
	snapLegacyNamespace = "snap.v1"
)

// snapRecord is the persisted form of a fully-warmed snapshot: the binary
// AST (self-checksummed by the codec), the canonical form with its own
// sha256 (the cheap integrity check restore runs every time), the derived
// artifacts that are expensive to recompute, and the call-graph summary.
// The raw source is NOT stored — the record is addressed by
// sha256(source), and a restoring process always holds the source it is
// asking about. Compile-error (negative) entries are never persisted: a
// record's existence asserts that the source compiles.
type snapRecord struct {
	AST      []byte
	Canon    string
	CanonSHA string
	Shape    string
	Methods  map[string]string
	Graph    *callgraph.Summary
}

// The v2 record's wire form is binary, not JSON: a restore happens on
// every cold process and the JSON round-trip (string unescaping of the
// canon and method canons, whole-document validation) was the dominant
// cost of the parse-free path. The envelope is a magic + version header
// followed by length-prefixed fields; integrity comes from three layers
// that already exist — the store's per-frame CRC, the codec's sha256 over
// the AST bytes, and the canon digest — so the envelope itself only needs
// to fail loudly on malformed input (every read is bounds-checked, any
// error degrades the load to a recompute miss).
var recMagic = [4]byte{'M', 'J', 'S', 'R'}

const recVersion = 1

var errBadRecord = errors.New("program: malformed snapshot record")

func encodeRecord(rec *snapRecord) []byte {
	w := recWriter{buf: make([]byte, 0, 256+len(rec.AST)+len(rec.Canon))}
	w.buf = append(w.buf, recMagic[:]...)
	w.buf = binary.BigEndian.AppendUint16(w.buf, recVersion)
	w.str(rec.Canon)
	w.str(rec.CanonSHA)
	w.str(rec.Shape)
	keys := make([]string, 0, len(rec.Methods))
	for k := range rec.Methods {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic bytes for identical records
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(rec.Methods[k])
	}
	if rec.Graph == nil {
		w.buf = append(w.buf, 0)
	} else {
		w.buf = append(w.buf, 1)
		w.uvarint(uint64(len(rec.Graph.Edges)))
		for _, e := range rec.Graph.Edges {
			w.str(e.Caller)
			w.str(e.Callee)
			w.uvarint(uint64(e.Line))
			w.uvarint(uint64(e.Col))
			w.bool(e.Dynamic)
		}
	}
	w.uvarint(uint64(len(rec.AST)))
	w.buf = append(w.buf, rec.AST...)
	return w.buf
}

func decodeRecord(raw []byte) (*snapRecord, bool) {
	if len(raw) < 6 || string(raw[:4]) != string(recMagic[:]) ||
		binary.BigEndian.Uint16(raw[4:6]) != recVersion {
		return nil, false
	}
	r := recReader{buf: raw, off: 6}
	rec := &snapRecord{
		Canon:    r.str(),
		CanonSHA: r.str(),
		Shape:    r.str(),
	}
	if n := r.count(2); n > 0 {
		rec.Methods = make(map[string]string, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			k := r.str()
			rec.Methods[k] = r.str()
		}
	}
	if r.bool() {
		sum := &callgraph.Summary{}
		n := r.count(5)
		for i := uint64(0); i < n && r.err == nil; i++ {
			sum.Edges = append(sum.Edges, callgraph.EdgeSummary{
				Caller:  r.str(),
				Callee:  r.str(),
				Line:    int(r.uvarint()),
				Col:     int(r.uvarint()),
				Dynamic: r.bool(),
			})
		}
		rec.Graph = sum
	}
	rec.AST = r.bytes()
	if r.err != nil || r.off != len(r.buf) {
		return nil, false
	}
	return rec, true
}

type recWriter struct{ buf []byte }

func (w *recWriter) uvarint(n uint64) { w.buf = binary.AppendUvarint(w.buf, n) }
func (w *recWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *recWriter) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// recReader is a sticky-error cursor: the first malformed read poisons
// every later one, so decodeRecord needs a single error check at the end.
type recReader struct {
	buf []byte
	off int
	err error
}

func (r *recReader) fail() {
	if r.err == nil {
		r.err = errBadRecord
	}
}

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length and rejects any value that could not
// possibly fit in the remaining bytes (minSize bytes per element), so a
// corrupt length cannot drive a huge allocation.
func (r *recReader) count(minSize int) uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.off)/uint64(minSize) {
		r.fail()
		return 0
	}
	return n
}

func (r *recReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *recReader) str() string { return string(r.bytes()) }

func (r *recReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) || r.buf[r.off] > 1 {
		r.fail()
		return false
	}
	b := r.buf[r.off] == 1
	r.off++
	return b
}

// snapRecordV1 is the PR-7-era record: no AST, so restoring one re-parses
// the source and re-renders the canon (the path v2 made a sampling knob).
type snapRecordV1 struct {
	Canon   string             `json:"canon"`
	Shape   string             `json:"shape"`
	Methods map[string]string  `json:"methods"`
	Graph   *callgraph.Summary `json:"graph,omitempty"`
}

// SetStore attaches (nil: detaches) the on-disk tier behind this cache.
// Safe to call concurrently with loads.
func (c *Cache) SetStore(st *store.Store) { c.disk.Store(st) }

// CacheName identifies this cache in unified tier stats.
func (c *Cache) CacheName() string { return "snapshot" }

// TierStats reports the two-tier counters in the unified shape. MemHits /
// MemMisses are the LRU's counters; DiskHits counts successful restores,
// split into decoded (binary AST adopted after the canon digest check) and
// verified (full re-parse + re-render comparison: the deep-verify samples
// and every legacy v1 restore); DiskMisses counts absent records and
// records that failed either check.
func (c *Cache) TierStats() store.TierStats {
	c.mu.Lock()
	hits, misses := c.hits, c.misses
	c.mu.Unlock()
	ts := store.TierStats{
		Cache:            c.CacheName(),
		MemHits:          hits,
		MemMisses:        misses,
		DiskHits:         c.restores.Load(),
		DiskMisses:       c.diskMisses.Load(),
		DiskWrites:       c.diskWrites.Load(),
		DiskHitsDecoded:  c.restoresDecoded.Load(),
		DiskHitsVerified: c.restoresVerified.Load(),
	}
	if st := c.disk.Load(); st != nil {
		ts.DiskWriteErrors = st.NamespaceWriteErrors(snapNamespace) +
			st.NamespaceWriteErrors(snapLegacyNamespace)
	}
	return ts
}

var _ store.CacheBackend = (*Cache)(nil)

// compile populates the snapshot exactly once: from the disk tier when a
// verified record exists (v2 binary AST first, legacy v1 as a fallback
// that migrates), else by the full front-end build (which is then
// persisted, so the next process can restore it).
func (s *Snapshot) compile() {
	if s.cache != nil {
		if st := s.cache.disk.Load(); st != nil {
			if raw, ok := st.Get(snapNamespace, s.hash); ok {
				if rec, ok := decodeRecord(raw); ok && s.restore(rec) {
					return
				}
			} else if raw, ok := st.Get(snapLegacyNamespace, s.hash); ok {
				var rec snapRecordV1
				if json.Unmarshal(raw, &rec) == nil && s.restoreLegacy(&rec) {
					// One-time migration: the legacy restore fully
					// verified the AST, so rewrite the record in v2 form —
					// every later process restores it parse-free.
					s.persistRecord(st)
					return
				}
			}
			s.cache.diskMisses.Add(1)
		}
	}
	s.build()
	s.persist()
}

// restore adopts a persisted v2 record. The fast path trusts two
// checksums instead of re-deriving anything: the canonical form must hash
// to the record's digest, and the binary AST must decode (the codec frame
// is itself sha256-sealed, so truncation or bit flips surface here as a
// decode error, never as a wrong AST). Every Nth restore — and every
// restore while a faultinject plan is armed — additionally runs the
// legacy deep verification: re-parse the source, re-render both programs,
// and require byte-identity with the stored canon. Any failure returns
// false and the caller falls back to a full build (a miss, never a wrong
// result). The derived artifacts (shape, per-method canon, graph summary)
// are adopted without recomputation; the graph itself is re-anchored
// lazily on first use.
func (s *Snapshot) restore(rec *snapRecord) bool {
	if Hash(rec.Canon) != rec.CanonSHA {
		return false
	}
	prog, err := minij.DecodeProgram(rec.AST)
	if err != nil {
		return false
	}
	deep := faultinject.Armed() || s.cache.restoreTick.Add(1)%s.cache.deepVerifyInterval() == 0
	if deep {
		if minij.FormatProgram(prog) != rec.Canon {
			return false
		}
		parsed, err := minij.Parse(s.source)
		if err != nil || minij.Check(parsed) != nil || minij.FormatProgram(parsed) != rec.Canon {
			return false
		}
		s.cache.restoresVerified.Add(1)
	} else {
		s.cache.restoresDecoded.Add(1)
	}
	s.adopt(prog, rec.Canon, rec.CanonSHA, rec.Shape, rec.Methods, rec.Graph)
	return true
}

// restoreLegacy adopts a PR-7-era v1 record: the source is re-parsed and
// re-checked (those records carry no AST), and the canonical render must
// byte-match the record — the same Verify() machinery that catches mutated
// snapshots catches stale or corrupt records here.
func (s *Snapshot) restoreLegacy(rec *snapRecordV1) bool {
	prog, err := minij.Parse(s.source)
	if err != nil {
		return false
	}
	if err := minij.Check(prog); err != nil {
		return false
	}
	if minij.FormatProgram(prog) != rec.Canon {
		return false
	}
	s.cache.restoresVerified.Add(1)
	s.adopt(prog, rec.Canon, Hash(rec.Canon), rec.Shape, rec.Methods, rec.Graph)
	return true
}

// adopt installs a restored program and its derived artifacts, bumps the
// restore counter, and fires the program.load fault-injection point on
// restored snapshots exactly as on built ones (after the canon is
// captured), so a chaos run keeps its cold-process fault cadence against
// a warm store.
func (s *Snapshot) adopt(prog *minij.Program, canon, canonHash, shape string, methods map[string]string, graph *callgraph.Summary) {
	s.base = nil // a restored program stands alone, shared with no base
	s.prog = prog
	s.canon = canon
	s.canonHash = canonHash
	s.restored = true
	if shape != "" {
		s.shapeOnce.Do(func() { s.shape = shape })
	}
	if len(methods) > 0 {
		s.methodsOnce.Do(func() { s.methodCanon = methods })
	}
	s.graphSummary = graph
	s.cache.restores.Add(1)
	if faultinject.Armed() {
		if k, ok := faultinject.At("program.load"); ok && k == faultinject.Corrupt {
			corruptProgram(prog)
		}
	}
}

// persist writes a built snapshot to the disk tier: once right after the
// front-end build (derived artifacts, no graph yet), and again after the
// call graph is first built — the second record supersedes the first, so a
// snapshot whose graph is never requested still restores without a
// compile. A snapshot that fails its own Verify (the program.load
// fault-injection point corrupts the AST after the canon is captured) is
// never persisted, and store.Put additionally drops all writes while a
// faultinject plan is armed — unless the plan is store-scoped
// (faultinject.ScopeStore), in which case the computation is clean and the
// store's own fault handling is what's under test.
func (s *Snapshot) persist() {
	if s.cache == nil || s.err != nil || s.restored {
		return
	}
	st := s.cache.disk.Load()
	if st == nil {
		return
	}
	if s.Verify() != nil {
		return
	}
	s.persistRecord(st)
}

// persistRecord marshals and writes the v2 record for an already-verified
// snapshot (a fresh build, or a legacy restore being migrated).
func (s *Snapshot) persistRecord(st *store.Store) {
	ast, err := minij.EncodeProgram(s.prog)
	if err != nil {
		return
	}
	rec := snapRecord{
		AST:      ast,
		Canon:    s.canon,
		CanonSHA: s.canonHash,
		Shape:    s.Shape(),
		Methods:  s.methodCanons(),
	}
	if s.graph != nil {
		rec.Graph = s.graph.Summary()
	} else if s.graphSummary != nil {
		rec.Graph = s.graphSummary
	}
	st.Put(snapNamespace, s.hash, encodeRecord(&rec))
	s.cache.diskWrites.Add(1)
}

// methodCanons returns the full per-method canonical map, building it once
// through the same path MethodCanon uses; a linked snapshot's covers its
// base's methods too.
func (s *Snapshot) methodCanons() map[string]string {
	s.MethodCanon("")
	if s.base == nil {
		return s.methodCanon
	}
	all := maps.Clone(s.base.methodCanons())
	maps.Copy(all, s.methodCanon)
	return all
}
