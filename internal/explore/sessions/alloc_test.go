package sessions

import (
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

// The allocation gates pin the harness hot paths at zero heap allocations
// per run. The race detector changes allocation counts, so they skip under
// -race; `make alloc-gate` runs them without it.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestAllocsCommitAdoptTreeCell: a warm sequential walk of the commitadopt
// n=3 crash-free tree (no dedup) allocates nothing per run. The walk's own
// set-up allocates, so the gate is the difference between a walk of 2k runs
// and one of k runs on the same warm session.
func TestAllocsCommitAdoptTreeCell(t *testing.T) {
	skipUnderRace(t)
	const k = 20000
	sess := CommitAdopt(3)()
	walk := func(runs int) func() {
		return func() {
			st, err := explore.ExploreSession(sess, explore.Config{MaxRuns: runs})
			if err != nil || st.Runs != runs {
				t.Fatalf("walk: %d runs, err %v", st.Runs, err)
			}
		}
	}
	walk(2 * k)() // warm the harness and the runtime's buffers
	short := testing.AllocsPerRun(1, walk(k))
	long := testing.AllocsPerRun(1, walk(2*k))
	if perRun := (long - short) / k; perRun != 0 || long-short >= k {
		t.Fatalf("commitadopt n=3: %v extra allocations over %d extra runs", long-short, k)
	}
	t.Logf("walk set-up %v allocations, %v extra over %d extra runs", short, long-short, k)
}

// TestAllocsXSafeMakeFingerprint: once warm, the x_safe_agreement harness's
// Make (which resets the session's one object) and its Fingerprint allocate
// nothing.
func TestAllocsXSafeMakeFingerprint(t *testing.T) {
	skipUnderRace(t)
	sess := XSafe(4, 2, 2)()
	// A bounded dedup walk touches every consensus object and sizes the
	// harness logs, as a running exploration would.
	if _, err := explore.ExploreSession(sess, explore.Config{MaxRuns: 2000, Dedup: true, DedupMem: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	var h sched.FP
	allocs := testing.AllocsPerRun(100, func() {
		sess.Make()
		h.Reset()
		sess.Fingerprint(&h)
	})
	if allocs != 0 {
		t.Fatalf("xsafe n=4 x=2 Make+Fingerprint: %v allocations per run, want 0", allocs)
	}
}
