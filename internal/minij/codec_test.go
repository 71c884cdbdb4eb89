package minij

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lisa/internal/corpus"
)

func sha256Sum(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

// roundTrip asserts the codec invariants for one source: the decoded
// program canon-renders byte-identically to the parsed one, carries the
// same statement IDs and positions, the same expression types and call
// kinds, and re-encodes to the identical byte string (determinism).
func roundTrip(t *testing.T, label, src string) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("%s: check: %v", label, err)
	}
	enc, err := EncodeProgram(prog)
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	enc2, err := EncodeProgram(prog)
	if err != nil || string(enc) != string(enc2) {
		t.Fatalf("%s: encode is not deterministic (err %v)", label, err)
	}
	dec, err := DecodeProgram(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if got, want := FormatProgram(dec), FormatProgram(prog); got != want {
		t.Fatalf("%s: decoded canon differs from parsed canon:\n--- decoded\n%s\n--- parsed\n%s", label, got, want)
	}
	reenc, err := EncodeProgram(dec)
	if err != nil || string(reenc) != string(enc) {
		t.Fatalf("%s: re-encoding the decoded program changed the bytes (err %v)", label, err)
	}
	sameProgram(t, label, dec, prog)
}

// sameProgram asserts got is indistinguishable from want: the same
// canonical text and per-method canons, statement IDs with their positions
// and enclosing methods, expression types, and call kinds.
func sameProgram(t *testing.T, label string, got, want *Program) {
	t.Helper()
	if g, w := FormatProgram(got), FormatProgram(want); g != w {
		t.Fatalf("%s: canon differs:\n--- got\n%s\n--- want\n%s", label, g, w)
	}
	gm, wm := got.Methods(), want.Methods()
	if len(gm) != len(wm) {
		t.Fatalf("%s: method count %d != %d", label, len(gm), len(wm))
	}
	for i := range wm {
		if gm[i].FullName() != wm[i].FullName() || FormatMethod(gm[i]) != FormatMethod(wm[i]) {
			t.Fatalf("%s: method %d: %s differs from %s", label, i, gm[i].FullName(), wm[i].FullName())
		}
	}
	if got.NumStmts() != want.NumStmts() {
		t.Fatalf("%s: stmt count %d != %d", label, got.NumStmts(), want.NumStmts())
	}
	for id := 0; id < want.NumStmts(); id++ {
		ps, ds := want.StmtByID(id), got.StmtByID(id)
		if ps.ID() != ds.ID() || ps.Pos() != ds.Pos() || fmt.Sprintf("%T", ps) != fmt.Sprintf("%T", ds) {
			t.Fatalf("%s: stmt %d mismatch: %T@%s id=%d vs %T@%s id=%d",
				label, id, ps, ps.Pos(), ps.ID(), ds, ds.Pos(), ds.ID())
		}
		if want.MethodOf(id).FullName() != got.MethodOf(id).FullName() {
			t.Fatalf("%s: stmt %d enclosing method %s != %s",
				label, id, want.MethodOf(id).FullName(), got.MethodOf(id).FullName())
		}
	}
	pe, de := collectExprs(want), collectExprs(got)
	if len(pe) != len(de) {
		t.Fatalf("%s: expr count %d != %d", label, len(pe), len(de))
	}
	for i := range pe {
		if want.TypeOf(pe[i]) != got.TypeOf(de[i]) || pe[i].Pos() != de[i].Pos() {
			t.Fatalf("%s: expr %d (%T@%s) type %s != %s",
				label, i, pe[i], pe[i].Pos(), want.TypeOf(pe[i]), got.TypeOf(de[i]))
		}
		pc, pok := pe[i].(*Call)
		dc, dok := de[i].(*Call)
		if pok != dok || (pok && pc.Kind != dc.Kind) {
			t.Fatalf("%s: expr %d call kind mismatch", label, i)
		}
	}
}

func collectExprs(p *Program) []Expr {
	var out []Expr
	for _, m := range p.Methods() {
		WalkExprs(m.Body, func(e Expr) { out = append(out, e) })
	}
	return out
}

// TestCodecRoundTripCorpus runs the differential round trip over every
// version of every corpus case, alone and with each test suite appended —
// the exact source set the snapshot store persists in production.
func TestCodecRoundTripCorpus(t *testing.T) {
	for _, cs := range corpus.Load().Cases {
		roundTrip(t, cs.ID+"/head", cs.Head())
		for _, tk := range cs.Tickets {
			roundTrip(t, cs.ID+"/"+tk.ID+"/buggy", tk.BuggySource)
			roundTrip(t, cs.ID+"/"+tk.ID+"/fixed", tk.FixedSource)
		}
		for _, tc := range cs.Tests {
			roundTrip(t, cs.ID+"/head+"+tc.Name, cs.Head()+"\n"+tc.Source)
		}
	}
}

// genSource emits a seeded random program exercising every statement and
// expression form the codec knows, so tag coverage does not depend on the
// corpus happening to use a construct.
func genSource(r *rand.Rand) string {
	var sb strings.Builder
	classes := 1 + r.Intn(3)
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&sb, "class Gen%d {\n\tint counter;\n\tstring label;\n\tlist items;\n", c)
		methods := 1 + r.Intn(4)
		for m := 0; m < methods; m++ {
			static := ""
			// work0 stays an instance method; GenDriver.relay calls it
			// through a field receiver.
			if m > 0 && r.Intn(2) == 0 {
				static = "static "
			}
			fmt.Fprintf(&sb, "\t%sint work%d(int n, string tag) {\n", static, m)
			stmts := 1 + r.Intn(5)
			for s := 0; s < stmts; s++ {
				switch r.Intn(8) {
				case 0:
					fmt.Fprintf(&sb, "\t\tint v%d = n + %d;\n", s, r.Intn(100))
				case 1:
					fmt.Fprintf(&sb, "\t\tif (n > %d) { n = n - 1; } else { n = n + 1; }\n", r.Intn(10))
				case 2:
					fmt.Fprintf(&sb, "\t\twhile (n > %d) { n = n - 2; if (n == 3) { break; } }\n", r.Intn(5))
				case 3:
					fmt.Fprintf(&sb, "\t\tfor (int i%d = 0; i%d < n; i%d = i%d + 1) { if (i%d == 2) { continue; } }\n", s, s, s, s, s)
				case 4:
					fmt.Fprintf(&sb, "\t\tlist xs%d = newList();\n\t\tfor (x in xs%d) { n = n + 1; }\n", s, s)
				case 5:
					fmt.Fprintf(&sb, "\t\ttry { throw \"boom-%d\"; } catch (e) { n = 0 - n; }\n", r.Intn(9))
				case 6:
					fmt.Fprintf(&sb, "\t\tlist lk%d = newList();\n\t\tsynchronized (lk%d) { n = n * 2; }\n", s, s)
				case 7:
					fmt.Fprintf(&sb, "\t\tif (!(tag == null) && n != %d) { log(tag); }\n", r.Intn(7))
				}
			}
			sb.WriteString("\t\treturn n;\n\t}\n")
		}
		sb.WriteString("}\n")
	}
	// A driver tying the classes together: new, instance/static/self
	// calls, field access, string concat, bool and null literals.
	sb.WriteString(`
class GenDriver {
	Gen0 g;

	static int entry(int n) {
		GenDriver d = new GenDriver();
		d.g = new Gen0();
		d.g.counter = n;
		d.g.label = "x" + "y";
		bool ok = true;
		if (ok) {
			return d.relay(d.g.counter);
		}
		return 0;
	}

	int relay(int n) {
		return g.work0(n, "tag");
	}
}
`)
	return sb.String()
}

// TestCodecRoundTripMutants fuzzes the round trip with seeded random
// programs; any failure reproduces from the logged seed.
func TestCodecRoundTripMutants(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := genSource(r)
		roundTrip(t, fmt.Sprintf("mutant-seed-%d", seed), src)
	}
}

// TestCodecRejectsCorruption proves the safety half of the codec contract:
// a truncated or bit-flipped frame is always rejected with a readable
// error — it never decodes into a wrong AST.
func TestCodecRejectsCorruption(t *testing.T) {
	src := corpus.Load().Cases[0].Head()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := FormatProgram(prog)

	// Every truncation length must be rejected.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeProgram(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(enc))
		}
	}
	// Seeded random bit flips: the sha256 trailer catches every one. If a
	// flip were ever accepted, the decoded program must still render the
	// true canon (never a wrong AST) — but with a full-frame checksum no
	// flip is accepted at all.
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[r.Intn(len(mut))] ^= 1 << r.Intn(8)
		dec, err := DecodeProgram(mut)
		if err == nil {
			if got := FormatProgram(dec); got != want {
				t.Fatalf("bit flip %d decoded into a WRONG AST", i)
			}
			t.Fatalf("bit flip %d was not rejected", i)
		}
		if !errors.Is(err, ErrCodecCorrupt) && !errors.Is(err, ErrCodecTruncated) && !errors.Is(err, ErrCodecVersion) {
			t.Fatalf("bit flip %d: error %v is not a codec sentinel", i, err)
		}
		if err.Error() == "" {
			t.Fatalf("bit flip %d: unreadable error", i)
		}
	}
}

// TestCodecRejectsVersionSkew rewrites the version (and magic) with a
// recomputed checksum, so rejection is attributable to the version check
// itself rather than the checksum.
func TestCodecRejectsVersionSkew(t *testing.T) {
	prog, err := Parse("class A {\n\tint f;\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(mut []byte) []byte {
		sum := sha256Sum(mut[:len(mut)-32])
		copy(mut[len(mut)-32:], sum)
		return mut
	}
	skew := make([]byte, len(enc))
	copy(skew, enc)
	skew[5] = codecVersion + 1
	if _, err := DecodeProgram(reseal(skew)); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("version skew: got %v, want ErrCodecVersion", err)
	}
	bad := make([]byte, len(enc))
	copy(bad, enc)
	bad[0] = 'X'
	if _, err := DecodeProgram(reseal(bad)); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("bad magic: got %v, want ErrCodecVersion", err)
	}
}
