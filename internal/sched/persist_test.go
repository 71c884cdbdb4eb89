package sched

import (
	"os"
	"path/filepath"
	"testing"

	"lisa/internal/core"
	"lisa/internal/faultinject"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

func openStoreT(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func storeLogBytes(t *testing.T, st *store.Store) []byte {
	t.Helper()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(st.Dir(), "store.log"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return b
}

// TestColdSchedulerOnWarmStore: a fresh scheduler (empty memory tier) over a
// store warmed by a previous scheduler serves every job from the disk tier —
// zero executed jobs — and renders byte-identically to the sequential
// engine, at every pool width, on the one-rule fixture and on a six-contract
// system. So does a further cold scheduler over the same store.
func TestColdSchedulerOnWarmStore(t *testing.T) {
	rule := engineWithRule(t)
	replicas, replicaSrc, replicaTests := topoWorkload(t, 6)
	cases := []struct {
		name     string
		mkEngine func() *core.Engine
		src      string
		tests    []ticket.TestCase
		workers  int
	}{
		{"rule,workers=4", func() *core.Engine { return rule }, sysFixed, testSuite(), 4},
		{"six-contracts,workers=1", replicas, replicaSrc, replicaTests, 1},
		{"six-contracts,workers=8", replicas, replicaSrc, replicaTests, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := tc.mkEngine().Assert(tc.src, tc.tests)
			if err != nil {
				t.Fatal(err)
			}
			want := seq.Render()
			opts := Options{Workers: tc.workers}

			st := openStoreT(t)
			warm := New()
			warm.Cache().SetStore(st)
			warmRep, _, err := warm.Assert(tc.mkEngine(), tc.src, tc.tests, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := warmRep.Render(); got != want {
				t.Fatalf("store-attached run differs from sequential:\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
			if ts := warm.Cache().TierStats(); ts.DiskWrites == 0 {
				t.Fatalf("warm run wrote nothing to the store: %+v", ts)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}

			cold := New()
			cold.Cache().SetStore(st)
			rep, stats, err := cold.Assert(tc.mkEngine(), tc.src, tc.tests, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Render(); got != want {
				t.Fatalf("cold-on-warm-store report differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
			if stats.Executed != 0 || stats.CacheHits != stats.Jobs {
				t.Fatalf("cold-on-warm-store executed=%d hits=%d jobs=%d, want all disk hits",
					stats.Executed, stats.CacheHits, stats.Jobs)
			}
			cs := cold.Cache().Stats()
			if cs.DiskHits == 0 || cs.DiskWrites != 0 {
				t.Fatalf("cold cache stats = %+v, want disk hits and no re-writes", cs)
			}
			// Promotion: a repeat run on the same scheduler stays in memory.
			if _, stats2, err := cold.Assert(tc.mkEngine(), tc.src, tc.tests, opts); err != nil {
				t.Fatal(err)
			} else if stats2.Executed != 0 {
				t.Fatalf("promoted re-run executed %d jobs", stats2.Executed)
			}
			if cs2 := cold.Cache().Stats(); cs2.DiskHits != cs.DiskHits {
				t.Fatalf("promoted re-run went back to disk: %+v -> %+v", cs, cs2)
			}

			// Warm repeat: another cold scheduler over the same store.
			again := New()
			again.Cache().SetStore(st)
			rep3, stats3, err := again.Assert(tc.mkEngine(), tc.src, tc.tests, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep3.Render() != want {
				t.Error("warm repeat differs from sequential")
			}
			if stats3.Executed != 0 {
				t.Errorf("warm repeat executed %d jobs, want 0", stats3.Executed)
			}
		})
	}
}

// TestCorruptedStoreFallsBackToRecompute: with the store.read fault point
// corrupting every frame read, disk lookups fail their CRC, the scheduler
// recomputes everything, and the report stays byte-identical. Because the
// plan is armed, the recomputed results must NOT be written back — the
// store file is byte-identical before and after the poisoned run.
func TestCorruptedStoreFallsBackToRecompute(t *testing.T) {
	e := engineWithRule(t)
	base, _, err := New().Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render()

	st := openStoreT(t)
	warm := New()
	warm.Cache().SetStore(st)
	if _, _, err := warm.Assert(e, sysFixed, testSuite(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	before := storeLogBytes(t, st)
	if len(before) == 0 {
		t.Fatal("warm run left an empty store")
	}

	faultinject.Arm(faultinject.NewPlan(7).Set(store.FaultPointRead, faultinject.Corrupt))
	defer faultinject.Disarm()
	cold := New()
	cold.Cache().SetStore(st)
	rep, stats, err := cold.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Disarm()
	if got := rep.Render(); got != want {
		t.Fatalf("poisoned-store report differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if stats.Executed != stats.Jobs {
		t.Fatalf("poisoned store served %d cache hits, want full recompute", stats.CacheHits)
	}
	cs := cold.Cache().Stats()
	if cs.DiskHits != 0 || cs.DiskMisses == 0 {
		t.Fatalf("poisoned cache stats = %+v, want only disk misses", cs)
	}
	after := storeLogBytes(t, st)
	if string(before) != string(after) {
		t.Fatalf("poisoned run mutated the store: %d bytes -> %d bytes", len(before), len(after))
	}
	ss := st.Stats()
	if ss.Corruptions == 0 {
		t.Fatalf("store stats = %+v, want detected corruptions", ss)
	}
	if ss.ArmedSkips == 0 {
		t.Fatalf("store stats = %+v, want armed puts skipped", ss)
	}
}

// TestStoreDisabledUnchanged: with no store attached the disk counters stay
// zero and behavior matches the store-less baseline exactly.
func TestStoreDisabledUnchanged(t *testing.T) {
	e := engineWithRule(t)
	s := New()
	rep, stats, err := s.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := New().Assert(e, sysFixed, testSuite(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != base.Render() {
		t.Fatal("store-disabled report differs from baseline")
	}
	if stats.Executed != stats.Jobs {
		t.Fatalf("store-disabled cold run executed=%d jobs=%d", stats.Executed, stats.Jobs)
	}
	cs := s.Cache().Stats()
	if cs.DiskHits != 0 || cs.DiskMisses != 0 || cs.DiskWrites != 0 {
		t.Fatalf("disk counters moved without a store: %+v", cs)
	}
}
