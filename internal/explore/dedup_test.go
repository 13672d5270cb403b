package explore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// --- store unit tests -------------------------------------------------------

func TestDedupStoreVisit(t *testing.T) {
	st := newDedupStore(1<<20, 4)
	fp := func(i uint64) sched.Fingerprint {
		var h sched.FP
		h.Word(i)
		return h.Sum()
	}
	for i := uint64(0); i < 1000; i++ {
		if st.visit(fp(i)) {
			t.Fatalf("fresh fingerprint %d reported visited", i)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		if !st.visit(fp(i)) {
			t.Fatalf("resident fingerprint %d reported fresh", i)
		}
	}
	d := st.snapshot()
	if d.States != 1000 || d.Hits != 1000 || d.Lookups != 2000 || d.Occupied != 1000 {
		t.Fatalf("stats inconsistent: %+v", d)
	}
	if d.Evictions != 0 {
		t.Fatalf("unexpected evictions: %+v", d)
	}
	sum := int64(0)
	occ := 0
	for _, sh := range st.shardStats() {
		sum += sh.Lookups
		occ += sh.Occupied
	}
	if sum != d.Lookups || occ != d.Occupied {
		t.Fatalf("per-shard stats do not add up to the aggregate")
	}
}

func TestDedupStoreEviction(t *testing.T) {
	// A store this tiny (one shard, minimum slots) must evict under load yet
	// keep answering: memory stays bounded, recently-seen states stay hot.
	st := newDedupStore(1, 1)
	if cap := st.snapshot().Capacity; cap != dedupProbeWindow {
		t.Fatalf("minimum capacity = %d, want %d", cap, dedupProbeWindow)
	}
	for i := uint64(0); i < 10000; i++ {
		var h sched.FP
		h.Word(i)
		st.visit(h.Sum())
	}
	d := st.snapshot()
	if d.Evictions == 0 {
		t.Fatal("no evictions despite a full store")
	}
	if d.Occupied > d.Capacity {
		t.Fatalf("occupancy %d exceeds capacity %d", d.Occupied, d.Capacity)
	}
}

// TestDedupStoreExactlyOneInserter: the store's core guarantee under the
// lock-free read path — for every fingerprint, exactly one concurrent visitor
// is told "not visited" — on a store large enough to never evict.
func TestDedupStoreExactlyOneInserter(t *testing.T) {
	const workers = 8
	const fps = 2000
	st := newDedupStore(4<<20, 4)
	fresh := make([]atomic.Int64, fps)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < fps; i++ {
				// Each worker walks the fingerprints in a different order so
				// first-visit races land on different fps across workers.
				j := (i*(2*seed+1) + seed) % fps
				var h sched.FP
				h.Word(j)
				if !st.visit(h.Sum()) {
					fresh[j].Add(1)
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	for i := range fresh {
		if got := fresh[i].Load(); got != 1 {
			t.Fatalf("fingerprint %d inserted %d times, want exactly 1", i, got)
		}
	}
	d := st.snapshot()
	if d.Lookups != workers*fps || d.Hits+d.States != d.Lookups {
		t.Fatalf("counter accounting broken: %+v", d)
	}
	if d.States != fps || d.Occupied != fps || d.Evictions != 0 {
		t.Fatalf("store contents wrong: %+v", d)
	}
}

// TestDedupStoreConcurrentHammer drives concurrent lock-free probes against
// concurrent evicting writes: a minimum-size store (every insert beyond the
// first window evicts) shared by many goroutines revisiting a hot working
// set. The race detector checks the seqlock discipline; the assertions check
// that the atomic counters stay exact — every visit is counted once as a
// lookup and exactly once as a hit or an insert, evictions and occupancy
// reconcile — no matter how reads and writes interleave.
func TestDedupStoreConcurrentHammer(t *testing.T) {
	const workers = 8
	const visitsPerWorker = 30000
	const keyspace = 64 // 4x a 16-slot store: constant eviction pressure
	st := newDedupStore(1, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed*0x9e3779b97f4a7c15 + 1
			for i := 0; i < visitsPerWorker; i++ {
				// xorshift keeps the mix of hot revisits and fresh inserts
				// deterministic per worker without a shared rand.
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				var h sched.FP
				h.Word(x % keyspace)
				st.visit(h.Sum())
			}
		}(uint64(w))
	}
	wg.Wait()
	d := st.snapshot()
	if d.Lookups != workers*visitsPerWorker {
		t.Fatalf("lookups %d, want %d", d.Lookups, workers*visitsPerWorker)
	}
	if d.Hits+d.States != d.Lookups {
		t.Fatalf("hits %d + inserts %d != lookups %d", d.Hits, d.States, d.Lookups)
	}
	if d.Evictions == 0 {
		t.Fatalf("expected eviction pressure: %+v", d)
	}
	if int64(d.Occupied) != d.States-d.Evictions {
		t.Fatalf("occupancy %d does not reconcile with inserts %d - evictions %d",
			d.Occupied, d.States, d.Evictions)
	}
	if d.Occupied > d.Capacity {
		t.Fatalf("occupancy %d exceeds capacity %d", d.Occupied, d.Capacity)
	}
}

// TestDedupEvictionStatsExact: the per-shard counters under the lock-free
// read path remain exact, not approximate: on a single-shard store the
// eviction, insert and occupancy counters reconcile slot for slot, and the
// per-shard surface sums to the aggregate.
func TestDedupEvictionStatsExact(t *testing.T) {
	st := newDedupStore(1, 1) // one shard, 16 slots
	visit := func(i uint64) bool {
		var h sched.FP
		h.Word(i)
		return st.visit(h.Sum())
	}
	// Fill distinct fingerprints well past capacity, then revisit a recent
	// window; every probe outcome is deterministic sequentially.
	const distinct = 200
	for i := uint64(0); i < distinct; i++ {
		if visit(i) {
			t.Fatalf("fresh fingerprint %d reported visited", i)
		}
	}
	d := st.snapshot()
	if d.States != distinct || d.Hits != 0 || d.Lookups != distinct {
		t.Fatalf("after fill: %+v", d)
	}
	if int64(d.Occupied) != d.States-d.Evictions {
		t.Fatalf("occupancy %d != inserts %d - evictions %d", d.Occupied, d.States, d.Evictions)
	}
	if d.Evictions != distinct-int64(d.Occupied) {
		t.Fatalf("evictions %d do not account for the %d non-resident inserts",
			d.Evictions, distinct-int64(d.Occupied))
	}
	// Revisiting an evicted fingerprint re-inserts (counted again); revisiting
	// a resident one hits. Either way the accounting identity holds.
	for i := uint64(0); i < distinct; i++ {
		visit(i)
	}
	d = st.snapshot()
	if d.Lookups != 2*distinct || d.Hits+d.States != d.Lookups {
		t.Fatalf("after revisit: %+v", d)
	}
	if int64(d.Occupied) != d.States-d.Evictions {
		t.Fatalf("after revisit: occupancy %d != inserts %d - evictions %d",
			d.Occupied, d.States, d.Evictions)
	}
	shards := st.shardStats()
	if len(shards) != 1 {
		t.Fatalf("want 1 shard, got %d", len(shards))
	}
	sh := shards[0]
	if sh.Lookups != d.Lookups || sh.Hits != d.Hits || sh.States != d.States ||
		sh.Evictions != d.Evictions || sh.Occupied != d.Occupied {
		t.Fatalf("per-shard stats %+v diverge from aggregate %+v", sh, d)
	}
}

// --- exploration harnesses --------------------------------------------------

// rmwSession is the read-modify-write convergence workload: n processes each
// read the shared register and write back read+1 (a non-atomic increment).
// Many interleavings converge on identical states — e.g. every order of the
// initial reads — so it exercises dedup where partial-order reduction cannot
// help (all operations conflict on the same register). The per-process read
// values are the checker-visible log, folded positionally into the
// fingerprint. faulty, when non-nil, turns the session into a seeded
// violation: Check errors on the schedules faulty matches.
func rmwSession(n int, faulty func(reads []int) error) func() Session {
	return func() Session {
		reads := make([]int, n)
		var r *reg.Register[int]
		return Session{
			Make: func() []sched.Proc {
				r = reg.New[int]("shared")
				bodies := make([]sched.Proc, n)
				for i := range bodies {
					i := i
					reads[i] = -1
					bodies[i] = func(e *sched.Env) {
						v := r.Read(e)
						reads[i] = v
						r.Write(e, v+1)
						e.Decide(v)
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if faulty != nil {
					return faulty(reads)
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				r.Fingerprint(h)
				for _, v := range reads {
					h.Int(v)
				}
			},
		}
	}
}

// outcomeCollector wraps a session factory so every checked run records its
// reads-vector; the resulting set is the observable final-state coverage.
func rmwCoverage(n int, cover map[string]bool) func() Session {
	base := rmwSession(n, nil)
	return func() Session {
		s := base()
		inner := s.Check
		return Session{
			Make: s.Make,
			Check: func(res *sched.Result) error {
				if err := inner(res); err != nil {
					return err
				}
				// Each process decides its read value, so the Result alone
				// identifies the checker-observable final state.
				var sb strings.Builder
				for _, o := range res.Outcomes {
					fmt.Fprintf(&sb, "%v/%v;", o.Decided, o.Value)
				}
				cover[sb.String()] = true
				return nil
			},
			Fingerprint: s.Fingerprint,
		}
	}
}

// --- dedup behavior ---------------------------------------------------------

// TestDedupReduction: dedup must cut the visited-run count of converging
// workloads by at least 2x (the acceptance floor; the RMW diamond and
// commit-adopt both far exceed it) with the exhaustion verdict intact.
func TestDedupReduction(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Session
		cfg  Config
	}{
		{"rmw/n=3", rmwSession(3, nil), Config{}},
		{"rmw/n=3/crashes=1", rmwSession(3, nil), Config{MaxCrashes: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off, err := ExploreSession(tc.mk(), tc.cfg)
			if err != nil || !off.Exhausted {
				t.Fatalf("baseline: %v (exhausted=%v)", err, off.Exhausted)
			}
			cfgOn := tc.cfg
			cfgOn.Dedup = true
			on, err := ExploreSession(tc.mk(), cfgOn)
			if err != nil || !on.Exhausted {
				t.Fatalf("dedup: %v (exhausted=%v)", err, on.Exhausted)
			}
			if on.Runs*2 > off.Runs {
				t.Fatalf("reduction below 2x: %d runs with dedup vs %d without", on.Runs, off.Runs)
			}
			if on.Dedup.Hits == 0 || on.Dedup.States == 0 || on.Dedup.CutAlternatives == 0 {
				t.Fatalf("dedup stats empty: %+v", on.Dedup)
			}
			if on.Dedup.Lookups != on.Dedup.Hits+on.Dedup.States {
				t.Fatalf("lookup accounting broken: %+v", on.Dedup)
			}
			t.Logf("%s: %d -> %d runs (%.1fx), %s", tc.name, off.Runs, on.Runs,
				float64(off.Runs)/float64(on.Runs), on.Dedup)
		})
	}
}

// TestDedupDeterministic: the sequential dedup explorer is a deterministic
// function of the session and config.
func TestDedupDeterministic(t *testing.T) {
	run := func() Stats {
		st, err := ExploreSession(rmwSession(3, nil)(), Config{Dedup: true, MaxCrashes: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Runs != b.Runs || a.Dedup.Hits != b.Dedup.Hits || a.Dedup.States != b.Dedup.States {
		t.Fatalf("sequential dedup not deterministic: %+v vs %+v", a.Dedup, b.Dedup)
	}
}

// respawnDedupOutcomes is the outcome set of the rmw n=3 crashes=1 walk
// under dedup, recorded from the respawning baseline.
var respawnDedupOutcomes = []string{
	"false/<nil>;true/0;true/0;", "false/<nil>;true/0;true/1;", "false/<nil>;true/1;true/0;",
	"true/0;false/<nil>;true/0;", "true/0;false/<nil>;true/1;", "true/0;true/0;false/<nil>;",
	"true/0;true/0;true/0;", "true/0;true/0;true/1;", "true/0;true/1;false/<nil>;",
	"true/0;true/1;true/0;", "true/0;true/1;true/1;", "true/0;true/1;true/2;",
	"true/0;true/2;true/1;", "true/1;false/<nil>;true/0;", "true/1;true/0;false/<nil>;",
	"true/1;true/0;true/0;", "true/1;true/0;true/1;", "true/1;true/0;true/2;",
	"true/1;true/1;true/0;", "true/1;true/2;true/0;", "true/2;true/0;true/1;",
	"true/2;true/1;true/0;",
}

// TestDedupStateCoverage: cutting converged subtrees must not lose reachable
// final states. The set of checker-observable outcomes must be identical
// across plain, dedup, prune and prune+dedup exploration, and equal to the
// set the respawning baseline produced under dedup (respawnDedupOutcomes,
// recorded from it before it was deleted).
func TestDedupStateCoverage(t *testing.T) {
	coverage := func(cfg Config) map[string]bool {
		cover := make(map[string]bool)
		st, err := ExploreSession(rmwCoverage(3, cover)(), cfg)
		if err != nil || !st.Exhausted {
			t.Fatalf("cfg %+v: %v (exhausted=%v)", cfg, err, st.Exhausted)
		}
		return cover
	}
	want := coverage(Config{MaxCrashes: 1})
	if len(want) != len(respawnDedupOutcomes) {
		t.Fatalf("%d outcomes, respawn golden has %d", len(want), len(respawnDedupOutcomes))
	}
	for _, k := range respawnDedupOutcomes {
		if !want[k] {
			t.Fatalf("respawn golden outcome %s not reached", k)
		}
	}
	for _, cfg := range []Config{
		{MaxCrashes: 1, Dedup: true},
		{MaxCrashes: 1, Prune: true},
		{MaxCrashes: 1, Prune: true, Dedup: true},
	} {
		got := coverage(cfg)
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: %d outcomes, want %d", cfg, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("cfg %+v lost outcome %s", cfg, k)
			}
		}
	}
}

// TestDedupIdenticalCounterexample: on a violating workload, dedup-on and
// dedup-off must surface the SAME first counterexample, byte for byte — cuts
// only remove subtrees whose behaviors were already checked earlier in DFS
// order. Verified with and without partial-order reduction.
func TestDedupIdenticalCounterexample(t *testing.T) {
	lostUpdate := func(reads []int) error {
		// Both processes read 0: the increment is lost.
		if reads[0] == 0 && reads[1] == 0 {
			return errors.New("lost update")
		}
		return nil
	}
	for _, prune := range []bool{false, true} {
		script := func(dedup bool) string {
			_, err := ExploreSession(rmwSession(2, lostUpdate)(), Config{Prune: prune, Dedup: dedup})
			var pe *PropertyError
			if !errors.As(err, &pe) {
				t.Fatalf("prune=%v dedup=%v: expected a PropertyError, got %v", prune, dedup, err)
			}
			return strings.Join(pe.Script, "\n") + "\n#" + pe.Err.Error()
		}
		off, on := script(false), script(true)
		if off != on {
			t.Fatalf("prune=%v: counterexample diverged under dedup:\n--- off:\n%s\n--- on:\n%s", prune, off, on)
		}
	}
}

// TestNoBatchIdenticalCounterexample: disabling the batching transport must
// not move the first counterexample by a byte — the violating schedule, its
// script rendering and the checker error are identical, under every
// reduction combination.
func TestNoBatchIdenticalCounterexample(t *testing.T) {
	lostUpdate := func(reads []int) error {
		if reads[0] == 0 && reads[1] == 0 {
			return errors.New("lost update")
		}
		return nil
	}
	for _, cfg := range []Config{
		{},
		{Prune: true},
		{Dedup: true},
		{Prune: true, Dedup: true},
		{MaxCrashes: 1},
	} {
		script := func(noBatch bool) string {
			c := cfg
			c.NoBatch = noBatch
			_, err := ExploreSession(rmwSession(2, lostUpdate)(), c)
			var pe *PropertyError
			if !errors.As(err, &pe) {
				t.Fatalf("cfg %+v nobatch=%v: expected a PropertyError, got %v", cfg, noBatch, err)
			}
			return strings.Join(pe.Script, "\n") + "\n#" + pe.Err.Error()
		}
		batched, unbatched := script(false), script(true)
		if batched != unbatched {
			t.Fatalf("cfg %+v: counterexample diverged under batching:\n--- batched:\n%s\n--- unbatched:\n%s",
				cfg, batched, unbatched)
		}
	}
}

// TestDedupEvictionSound: a store squeezed to its minimum capacity evicts
// constantly, yet exploration stays exhaustive and the final-state coverage
// is unchanged — evictions cost reduction, never soundness.
func TestDedupEvictionSound(t *testing.T) {
	want := make(map[string]bool)
	if _, err := ExploreSession(rmwCoverage(3, want)(), Config{MaxCrashes: 1}); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	st, err := ExploreSession(rmwCoverage(3, got)(), Config{
		MaxCrashes: 1, Dedup: true, DedupMem: 1, DedupShards: 1, // 16 slots total
	})
	if err != nil || !st.Exhausted {
		t.Fatalf("%v (exhausted=%v)", err, st.Exhausted)
	}
	if st.Dedup.Evictions == 0 {
		t.Fatalf("expected evictions from a 16-slot store: %+v", st.Dedup)
	}
	if len(got) != len(want) {
		t.Fatalf("coverage changed under eviction: %d vs %d outcomes", len(got), len(want))
	}
}

// TestDedupParallelSharedStore: the workers of a parallel exploration share
// one store; cut-offs compose across subtrees. Run counts are timing-
// dependent but bounded by the tree walk, and the verdict must match.
func TestDedupParallelSharedStore(t *testing.T) {
	newSession := rmwSession(3, nil)
	off, err := ExploreParallel(newSession, Config{MaxCrashes: 1, Workers: 4})
	if err != nil || !off.Exhausted {
		t.Fatalf("baseline: %v", err)
	}
	on, err := ExploreParallel(newSession, Config{MaxCrashes: 1, Workers: 4, Dedup: true})
	if err != nil || !on.Exhausted {
		t.Fatalf("dedup: %v (exhausted=%v)", err, on.Exhausted)
	}
	if on.Runs > off.Runs {
		t.Fatalf("parallel dedup explored more runs (%d) than the tree walk (%d)", on.Runs, off.Runs)
	}
	if on.Dedup.Hits == 0 {
		t.Fatalf("no cuts recorded: %+v", on.Dedup)
	}
}

// TestDedupParallelFindsViolation: a seeded violation must still surface
// under parallel dedup (some counterexample; which one is timing-dependent).
func TestDedupParallelFindsViolation(t *testing.T) {
	lost := func(reads []int) error {
		if reads[0] == 0 && reads[1] == 0 {
			return errors.New("lost update")
		}
		return nil
	}
	_, err := ExploreParallel(rmwSession(2, lost), Config{Workers: 4, Dedup: true})
	var pe *PropertyError
	if !errors.As(err, &pe) {
		t.Fatalf("expected a PropertyError, got %v", err)
	}
}

// TestDedupRequiresFingerprint: Dedup without a Session.Fingerprint must be
// rejected by both engines.
func TestDedupRequiresFingerprint(t *testing.T) {
	bare := func() Session {
		s := rmwSession(2, nil)()
		s.Fingerprint = nil
		return s
	}
	if _, err := ExploreSession(bare(), Config{Dedup: true}); !errors.Is(err, ErrNoFingerprint) {
		t.Fatalf("sequential: got %v, want ErrNoFingerprint", err)
	}
	if _, err := ExploreParallel(bare, Config{Dedup: true}); !errors.Is(err, ErrNoFingerprint) {
		t.Fatalf("parallel: got %v, want ErrNoFingerprint", err)
	}
}

// TestDedupRespawnMatchesSession: the session-reuse engine walks the
// dedup-cut tree the respawning baseline (one freshly spawned scheduler per
// run) walked before it was deleted; the golden counts were recorded from
// that baseline. The store interaction is a function of the decision
// sequence, not the runtime.
func TestDedupRespawnMatchesSession(t *testing.T) {
	st, err := ExploreSession(rmwSession(3, nil)(), Config{MaxCrashes: 1, Dedup: true})
	if err != nil || !st.Exhausted {
		t.Fatalf("%v (exhausted=%v)", err, st.Exhausted)
	}
	d := st.Dedup
	if st.Runs != 376 || d.Hits != 274 || d.States != 243 || d.Lookups != 517 || d.CutAlternatives != 846 {
		t.Fatalf("dedup walk diverged from the respawn golden runs=376 hits=274 states=243 lookups=517 cut=846: runs=%d %+v",
			st.Runs, d)
	}
}

// TestDedupPruneComposition: with both reductions on, the explorer still
// exhausts, cuts strictly more than prune alone, and — because the
// fingerprint folds the partial-order context — stays deterministic.
func TestDedupPruneComposition(t *testing.T) {
	base := Config{MaxCrashes: 1, Prune: true}
	pruneOnly, err := ExploreSession(rmwSession(3, nil)(), base)
	if err != nil || !pruneOnly.Exhausted {
		t.Fatalf("prune: %v", err)
	}
	both := base
	both.Dedup = true
	onA, err := ExploreSession(rmwSession(3, nil)(), both)
	if err != nil || !onA.Exhausted {
		t.Fatalf("prune+dedup: %v", err)
	}
	onB, err := ExploreSession(rmwSession(3, nil)(), both)
	if err != nil {
		t.Fatal(err)
	}
	if onA.Runs != onB.Runs || onA.Pruned != onB.Pruned || onA.Dedup.Hits != onB.Dedup.Hits {
		t.Fatal("prune+dedup not deterministic")
	}
	if onA.Runs >= pruneOnly.Runs {
		t.Fatalf("dedup on top of prune did not reduce: %d vs %d", onA.Runs, pruneOnly.Runs)
	}
	t.Logf("plain prune: %d runs; prune+dedup: %d runs", pruneOnly.Runs, onA.Runs)
}

// TestDedupStatsOrdering sanity-checks the diagnostic shard surface.
func TestDedupShardStatsSurface(t *testing.T) {
	st := newDedupStore(1<<16, 8)
	for i := uint64(0); i < 100; i++ {
		var h sched.FP
		h.Word(i)
		st.visit(h.Sum())
	}
	shards := st.shardStats()
	if len(shards) != 8 {
		t.Fatalf("want 8 shards, got %d", len(shards))
	}
	idx := make([]int, 0, len(shards))
	for _, s := range shards {
		idx = append(idx, s.Shard)
	}
	if !sort.IntsAreSorted(idx) {
		t.Fatal("shard stats out of order")
	}
}

// --- growth -----------------------------------------------------------------

// fpOf is the test fingerprint of key i.
func fpOf(i uint64) sched.Fingerprint {
	var h sched.FP
	h.Word(i)
	return h.Sum()
}

// TestDedupStoreGrowthExact: a store starts at one probe window per shard
// and grows as states arrive; below its bound it is an exact set. A seeded
// stream of fresh states and revisits must get the answers of a reference
// map, with no eviction, while the tables double several times without ever
// passing the bound.
func TestDedupStoreGrowthExact(t *testing.T) {
	const shards = 4
	const mem = shards * 8192 * dedupEntryBytes // bound: 8192 slots per shard
	const keys = 6000                           // ~1500 per shard: tables stop at 4096
	st := newDedupStore(mem, shards)
	bound := st.shards[0].bound
	if bound != 8192 {
		t.Fatalf("bound %d slots per shard, want 8192", bound)
	}
	if c := st.snapshot().Capacity; c != shards*dedupProbeWindow {
		t.Fatalf("initial capacity %d, want one probe window per shard (%d)", c, shards*dedupProbeWindow)
	}
	ref := make(map[uint64]bool)
	x := uint64(1)
	for i := 0; i < 5*keys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % keys
		if got, want := st.visit(fpOf(k)), ref[k]; got != want {
			t.Fatalf("visit %d of key %d: visited=%v, reference map says %v", i, k, got, want)
		}
		ref[k] = true
	}
	d := st.snapshot()
	if d.Evictions != 0 {
		t.Fatalf("evictions below the bound: %+v", d)
	}
	if d.States != int64(len(ref)) || d.Occupied != len(ref) || d.Lookups != 5*keys || d.Hits+d.States != d.Lookups {
		t.Fatalf("counters disagree with the reference map (%d states): %+v", len(ref), d)
	}
	for _, sh := range st.shardStats() {
		if sh.Capacity <= dedupProbeWindow || sh.Capacity >= bound {
			t.Fatalf("shard %d capacity %d: want grown past %d and below the bound %d", sh.Shard, sh.Capacity, dedupProbeWindow, bound)
		}
		if 2*sh.Occupied > sh.Capacity {
			t.Fatalf("shard %d more than half full: %+v", sh.Shard, sh)
		}
	}
}

// TestDedupStoreGrowsOnFullWindow: 48 fingerprints share one home slot in
// every table up to 1024 slots and two homes at 2048, so they overflow a
// probe window long before the table is half full, and only 4096 slots hold
// them. Below the bound the store must grow — through rehashes that
// themselves overflow a window and double again — rather than evict.
func TestDedupStoreGrowsOnFullWindow(t *testing.T) {
	st := newDedupStore(1<<20, 1)
	const keys = 3 * dedupProbeWindow
	fp := func(k uint64) sched.Fingerprint { return sched.Fingerprint{Lo: k << 10, Hi: 1} }
	for k := uint64(0); k < keys; k++ {
		if st.visit(fp(k)) {
			t.Fatalf("fresh colliding key %d reported visited", k)
		}
	}
	for k := uint64(0); k < keys; k++ {
		if !st.visit(fp(k)) {
			t.Fatalf("colliding key %d was lost", k)
		}
	}
	d := st.snapshot()
	if d.Evictions != 0 || d.States != keys || d.Occupied != keys {
		t.Fatalf("colliding keys evicted below the bound: %+v", d)
	}
	if d.Capacity < 4096 {
		t.Fatalf("capacity %d: the colliding keys fit only in 4096 slots", d.Capacity)
	}
}

// TestDedupStoreRehashOverflow: a rehash copies entries in old-slot order,
// so a window that fit in the old table can overflow in the doubled one.
// The keys below are built for that: sixteen keys homed at 62 (mod 128)
// wrap around the end of the 64-slot table, a key homed at 64 follows them,
// and sixteen fillers elsewhere trigger the doubling to 128, where the
// wrapped keys are copied first and the last of the sixteen finds its window
// full. Below the bound the store doubles again and keeps every key; at a
// 128-slot bound the window drops its oldest entry, the first key inserted.
func TestDedupStoreRehashOverflow(t *testing.T) {
	var keys []sched.Fingerprint
	for k := uint64(0); k < 16; k++ {
		keys = append(keys, sched.Fingerprint{Lo: 62 + 128*k})
	}
	keys = append(keys, sched.Fingerprint{Lo: 64})
	for j := uint64(0); j < 16; j++ {
		keys = append(keys, sched.Fingerprint{Lo: 20 + j})
	}
	for _, tc := range []struct {
		bound, capacity int
		evictions       int64
	}{
		{bound: 4096, capacity: 256},
		{bound: 128, capacity: 128, evictions: 1},
	} {
		st := newDedupStore(tc.bound*dedupEntryBytes, 1)
		for i, fp := range keys {
			if st.visit(fp) {
				t.Fatalf("bound %d: fresh key %d reported visited", tc.bound, i)
			}
		}
		d := st.snapshot()
		if d.Capacity != tc.capacity || d.Evictions != tc.evictions || int64(d.Occupied) != d.States-d.Evictions {
			t.Fatalf("bound %d: want %d slots and %d evictions: %+v", tc.bound, tc.capacity, tc.evictions, d)
		}
		for i := len(keys) - 1; i >= 0; i-- {
			want := tc.evictions == 0 || i > 0
			if got := st.visit(keys[i]); got != want {
				t.Fatalf("bound %d: key %d visited=%v, want %v", tc.bound, i, got, want)
			}
		}
	}
}

// TestDedupStoreCapacityBound: fed far more states than its bound holds, a
// growing store stops at its DedupMem bound and evicts from there on, with
// its counters reconciling throughout.
func TestDedupStoreCapacityBound(t *testing.T) {
	for _, tc := range []struct{ mem, shards int }{
		{1, 1},
		{4096 * dedupEntryBytes, 1},
		{1 << 16, 8},
		{1000 * dedupEntryBytes, 2}, // per-shard share 500 rounds down to 256
	} {
		st := newDedupStore(tc.mem, tc.shards)
		bound := st.shards[0].bound
		if tc.mem >= dedupProbeWindow*dedupEntryBytes*tc.shards && bound*tc.shards*dedupEntryBytes > tc.mem {
			t.Fatalf("mem %d: bound %d slots x %d shards exceeds the budget", tc.mem, bound, tc.shards)
		}
		limit := bound * len(st.shards)
		for i := uint64(0); i < uint64(4*limit); i++ {
			st.visit(fpOf(i))
			if i%97 == 0 {
				st.visit(fpOf(i / 2)) // revisits: some hit, some re-insert
			}
			if c := st.snapshot().Capacity; c > limit {
				t.Fatalf("mem %d: capacity %d passed the bound %d", tc.mem, c, limit)
			}
		}
		d := st.snapshot()
		if d.Capacity != limit || d.Evictions == 0 {
			t.Fatalf("mem %d: want a full store (%d slots) that evicts: %+v", tc.mem, limit, d)
		}
		if d.Hits+d.States != d.Lookups || int64(d.Occupied) != d.States-d.Evictions || d.Occupied > d.Capacity {
			t.Fatalf("mem %d: counters do not reconcile: %+v", tc.mem, d)
		}
	}
}

// TestDedupStoreGrowthConcurrentHammer: many goroutines racing on a store
// that starts small and doubles many times under them. Below the bound every
// fingerprint still has exactly one inserter — a probe that read a grown-out
// table must fall back and re-probe the current one — and on a store that
// reaches its bound mid-race the counters still reconcile, with rehash
// evictions counted like insert evictions.
func TestDedupStoreGrowthConcurrentHammer(t *testing.T) {
	const workers = 8
	hammer := func(st *dedupStore, keys, visits uint64) []atomic.Int64 {
		fresh := make([]atomic.Int64, keys)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				for i := uint64(0); i < visits; i++ {
					// A different stride per worker lands first visits on
					// different keys across workers.
					j := (i*(2*seed+1) + seed) % keys
					if !st.visit(fpOf(j)) {
						fresh[j].Add(1)
					}
				}
			}(uint64(w))
		}
		wg.Wait()
		return fresh
	}
	reconcile := func(name string, st *dedupStore, lookups int64) DedupStats {
		d := st.snapshot()
		if d.Lookups != lookups || d.Hits+d.States != d.Lookups {
			t.Fatalf("%s: hits %d + inserts %d vs lookups %d (want %d)", name, d.Hits, d.States, d.Lookups, lookups)
		}
		if int64(d.Occupied) != d.States-d.Evictions || d.Occupied > d.Capacity {
			t.Fatalf("%s: occupancy %d, inserts %d, evictions %d, capacity %d", name, d.Occupied, d.States, d.Evictions, d.Capacity)
		}
		return d
	}

	// Below the bound: 16 slots per shard doubling to 8192, exact.
	const keys = 12000
	exact := newDedupStore(4*32768*dedupEntryBytes, 4)
	fresh := hammer(exact, keys, 2*keys)
	for k := range fresh {
		if got := fresh[k].Load(); got != 1 {
			t.Fatalf("fingerprint %d inserted %d times, want exactly 1", k, got)
		}
	}
	if d := reconcile("exact", exact, workers*2*keys); d.States != keys || d.Evictions != 0 || d.Capacity <= 4*dedupProbeWindow {
		t.Fatalf("exact: want %d states, no eviction and grown tables: %+v", keys, d)
	}

	// Growing into the bound: 16 slots to 256 in one shard, then eviction.
	bounded := newDedupStore(256*dedupEntryBytes, 1)
	hammer(bounded, 1024, 4096)
	if d := reconcile("bounded", bounded, workers*4096); d.Capacity != 256 || d.Evictions == 0 {
		t.Fatalf("bounded: want a full 256-slot store that evicts: %+v", d)
	}
}
