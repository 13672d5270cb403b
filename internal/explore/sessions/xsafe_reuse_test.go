package sessions

import (
	"testing"

	"mpcn/internal/agreement"
	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

// freshXSafe is the x_safe_agreement harness with no reuse: every run builds
// a new factory, object and bodies. It is the reference the reusing XSafe
// session must match state for state.
func freshXSafe(n, x, probes int) explore.Session {
	var decided []any
	var xs *agreement.XSafeAgreement
	return explore.Session{
		Make: func() []sched.Proc {
			decided = decided[:0]
			xs = agreement.NewXSafeFactory(n, x, nil).New("xsa")
			bodies := make([]sched.Proc, n)
			for i := range bodies {
				v := 100 + i
				bodies[i] = func(e *sched.Env) {
					xs.Propose(e, v)
					for p := 0; p < probes; p++ {
						if got, ok := xs.TryDecide(e); ok {
							decided = append(decided, got)
							e.Decide(got)
							return
						}
					}
				}
			}
			return bodies
		},
		Check: func(res *sched.Result) error { return checkAgreement(decided, n) },
		Fingerprint: func(h *sched.FP) {
			xs.Fingerprint(h)
			foldValues(h, decided)
		},
	}
}

// TestXSafeReuseMatchesFresh: the XSafe session, which resets one object
// per session between runs, explores exactly the state space of a session
// that builds everything fresh per run — identical visited runs and store
// counters under dedup, so every fingerprint agrees. The n=4 x=2 counts are
// the benchmark's dedup cell.
func TestXSafeReuseMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		n, x, crashes int
		want          *explore.DedupStats
		runs          int
	}{
		{n: 4, x: 2, runs: 65269, want: &explore.DedupStats{States: 33736, Hits: 64549, Lookups: 98285}},
		{n: 3, x: 2, crashes: 1},
	} {
		cfg := explore.Config{MaxCrashes: tc.crashes, Dedup: true}
		reused, err := explore.ExploreSession(XSafe(tc.n, tc.x, 2)(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := explore.ExploreSession(freshXSafe(tc.n, tc.x, 2), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, f := reused.Dedup, fresh.Dedup
		if reused.Runs != fresh.Runs || r.States != f.States || r.Hits != f.Hits ||
			r.Lookups != f.Lookups || r.CutAlternatives != f.CutAlternatives {
			t.Fatalf("n=%d x=%d crashes=%d: reused %d runs %v, fresh %d runs %v",
				tc.n, tc.x, tc.crashes, reused.Runs, r, fresh.Runs, f)
		}
		if w := tc.want; w != nil && (reused.Runs != tc.runs || r.States != w.States ||
			r.Hits != w.Hits || r.Lookups != w.Lookups) {
			t.Fatalf("n=%d x=%d: %d runs %v, want %d runs %+v", tc.n, tc.x, reused.Runs, r, tc.runs, *w)
		}
		t.Logf("n=%d x=%d crashes=%d: %d runs, %v", tc.n, tc.x, tc.crashes, reused.Runs, r)
	}
}
