package explore

import (
	"errors"
	"fmt"
	"testing"

	"mpcn/internal/agreement"
	"mpcn/internal/object"
	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
)

// TestExhaustiveTwoStepCounting sanity-checks the enumerator: two processes
// with two steps each, no crashes, have C(4,2) = 6 interleavings.
func TestExhaustiveTwoStepCounting(t *testing.T) {
	mk := func() []sched.Proc {
		body := func(e *sched.Env) {
			e.Step("a")
			e.Step("b")
			e.Decide(0)
		}
		return []sched.Proc{body, body}
	}
	stats, err := ExploreSession(Session{Make: mk, Check: func(*sched.Result) error { return nil }}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Fatal("exploration should exhaust")
	}
	// Each process parks three times — at (start), "a" and "b" — and the
	// grant of "b" runs the body to completion, so a run is an interleaving
	// of 3+3 grants: C(6,3) = 20.
	if stats.Runs != 20 {
		t.Fatalf("runs = %d, want 20", stats.Runs)
	}
}

// TestExhaustiveTASSingleWinner proves (exhaustively, for this bounded
// configuration) that a test&set object has exactly one winner among 3
// processes on every schedule.
func TestExhaustiveTASSingleWinner(t *testing.T) {
	winners := 0
	mk := func() []sched.Proc {
		winners = 0
		ts := object.NewTestAndSet("ts")
		body := func(e *sched.Env) {
			if ts.TestAndSet(e) {
				winners++
			}
			e.Decide(0)
		}
		return []sched.Proc{body, body, body}
	}
	check := func(res *sched.Result) error {
		if res.BudgetExhausted {
			return errors.New("test&set run wedged")
		}
		live := 0
		for _, o := range res.Outcomes {
			if o.Status == sched.StatusDecided {
				live++
			}
		}
		if live > 0 && winners != 1 {
			return fmt.Errorf("%d winners among %d finishers", winners, live)
		}
		return nil
	}
	stats, err := ExploreSession(Session{Make: mk, Check: check}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted || stats.Runs == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestExhaustiveSafeAgreementSafety proves agreement + validity of
// safe_agreement for 2 proposers under EVERY schedule with at most one
// crash placed at every possible point. Deciders probe TryDecide a bounded
// number of times so the decision tree stays finite; the schedules where a
// mid-propose crash blocks the survivor then surface as runs whose survivor
// never decides (the unbounded-blocking fact itself is covered by the unit
// tests, which let the decide loop spin to the step budget).
func TestExhaustiveSafeAgreementSafety(t *testing.T) {
	const probes = 2
	var decided []any
	mk := func() []sched.Proc {
		decided = decided[:0]
		sa := agreement.NewSafeAgreement("sa", 2)
		mkBody := func(v int) sched.Proc {
			return func(e *sched.Env) {
				sa.Propose(e, v)
				for i := 0; i < probes; i++ {
					if got, ok := sa.TryDecide(e); ok {
						decided = append(decided, got)
						e.Decide(got)
						return
					}
				}
			}
		}
		return []sched.Proc{mkBody(100), mkBody(200)}
	}
	starved := 0
	check := func(res *sched.Result) error {
		if res.BudgetExhausted {
			return fmt.Errorf("bounded bodies cannot exhaust the budget")
		}
		if res.Crashes == 1 && res.NumDecided() == 0 {
			starved++ // the blocking schedules the lemmas describe
		}
		seen := make(map[any]bool)
		for _, v := range decided {
			if v != 100 && v != 200 {
				return fmt.Errorf("non-proposed value %v decided", v)
			}
			seen[v] = true
		}
		if len(seen) > 1 {
			return fmt.Errorf("disagreement: %v", decided)
		}
		return nil
	}
	stats, err := ExploreSession(Session{Make: mk, Check: check}, Config{MaxCrashes: 1, MaxSteps: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Fatal("exploration should exhaust")
	}
	if starved == 0 {
		t.Fatal("no blocking schedule found: coverage bug")
	}
	t.Logf("explored %d runs (max depth %d), %d starved", stats.Runs, stats.MaxDepth, starved)
}

// TestExhaustiveCommitAdopt proves the commit-adopt properties for 2
// processes with distinct proposals under every schedule with at most one
// crash — including that it NEVER wedges (wait-freedom), in contrast to
// safe_agreement above.
func TestExhaustiveCommitAdopt(t *testing.T) {
	type out struct {
		v         any
		committed bool
	}
	var outs []out
	mk := func() []sched.Proc {
		outs = outs[:0]
		ca := agreement.NewCommitAdopt("ca", 2)
		mkBody := func(v int) sched.Proc {
			return func(e *sched.Env) {
				got, c := ca.Propose(e, v)
				outs = append(outs, out{v: got, committed: c})
				e.Decide(got)
			}
		}
		return []sched.Proc{mkBody(100), mkBody(200)}
	}
	check := func(res *sched.Result) error {
		if res.BudgetExhausted {
			return errors.New("commit-adopt wedged: wait-freedom violated")
		}
		var committed any
		for _, o := range outs {
			if o.v != 100 && o.v != 200 {
				return fmt.Errorf("non-proposed value %v", o.v)
			}
			if o.committed {
				if committed != nil && committed != o.v {
					return fmt.Errorf("two commits: %v, %v", committed, o.v)
				}
				committed = o.v
			}
		}
		if committed != nil {
			for _, o := range outs {
				if o.v != committed {
					return fmt.Errorf("adopted %v after commit %v", o.v, committed)
				}
			}
		}
		return nil
	}
	stats, err := ExploreSession(Session{Make: mk, Check: check}, Config{MaxCrashes: 1, MaxSteps: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Fatal("exploration should exhaust")
	}
	t.Logf("explored %d runs (max depth %d)", stats.Runs, stats.MaxDepth)
}

// TestPropertyViolationSurfacesScript checks that a failing property yields
// the reproducing decision script.
func TestPropertyViolationSurfacesScript(t *testing.T) {
	mk := func() []sched.Proc {
		return []sched.Proc{func(e *sched.Env) {
			e.Step("x")
			e.Decide(1)
		}}
	}
	wantErr := errors.New("always fails")
	_, err := ExploreSession(Session{Make: mk, Check: func(*sched.Result) error { return wantErr }}, Config{})
	var pe *PropertyError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PropertyError", err)
	}
	if !errors.Is(err, wantErr) {
		t.Fatal("cause not preserved")
	}
	if len(pe.Script) == 0 {
		t.Fatal("script missing")
	}
}

// TestMaxRunsBound stops early and reports non-exhaustion.
func TestMaxRunsBound(t *testing.T) {
	mk := func() []sched.Proc {
		body := func(e *sched.Env) {
			for i := 0; i < 4; i++ {
				e.Step("s")
			}
			e.Decide(0)
		}
		return []sched.Proc{body, body, body}
	}
	stats, err := ExploreSession(Session{Make: mk, Check: func(*sched.Result) error { return nil }}, Config{MaxRuns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exhausted || stats.Runs != 5 {
		t.Fatalf("stats = %+v, want 5 non-exhausted runs", stats)
	}
}

// TestBodyErrorIsFatal: runtime failures abort the exploration.
func TestBodyErrorIsFatal(t *testing.T) {
	mk := func() []sched.Proc {
		return []sched.Proc{func(e *sched.Env) {
			e.Step("boom")
			panic("bug in body")
		}}
	}
	_, err := ExploreSession(Session{Make: mk, Check: func(*sched.Result) error { return nil }}, Config{})
	if !errors.Is(err, ErrRunFailed) {
		t.Fatalf("err = %v, want ErrRunFailed", err)
	}
}

// TestExhaustiveImmediateSnapshot proves the three immediate-snapshot
// properties (self-inclusion, containment, immediacy) for two participants
// over EVERY schedule with at most one crash.
func TestExhaustiveImmediateSnapshot(t *testing.T) {
	type view struct {
		procs []int
	}
	var views [2]*view
	mk := func() []sched.Proc {
		views = [2]*view{}
		is := snapshot.NewImmediate[int]("is", 2)
		mkBody := func(i int) sched.Proc {
			return func(e *sched.Env) {
				v := is.WriteSnapshot(e, 100+i)
				views[i] = &view{procs: v.Procs}
				e.Decide(0)
			}
		}
		return []sched.Proc{mkBody(0), mkBody(1)}
	}
	contains := func(ps []int, p int) bool {
		for _, q := range ps {
			if q == p {
				return true
			}
		}
		return false
	}
	subset := func(a, b []int) bool {
		for _, p := range a {
			if !contains(b, p) {
				return false
			}
		}
		return true
	}
	check := func(res *sched.Result) error {
		if res.BudgetExhausted {
			return errors.New("immediate snapshot wedged: wait-freedom violated")
		}
		for i, v := range views {
			if v == nil {
				continue
			}
			if !contains(v.procs, i) {
				return fmt.Errorf("self-inclusion violated: %v", v.procs)
			}
			for _, p := range v.procs {
				if views[p] != nil && !subset(views[p].procs, v.procs) {
					return fmt.Errorf("immediacy violated: %v vs %v", views[p].procs, v.procs)
				}
			}
		}
		if views[0] != nil && views[1] != nil {
			if !subset(views[0].procs, views[1].procs) && !subset(views[1].procs, views[0].procs) {
				return fmt.Errorf("containment violated: %v vs %v", views[0].procs, views[1].procs)
			}
		}
		return nil
	}
	stats, err := ExploreSession(Session{Make: mk, Check: check}, Config{MaxCrashes: 1, MaxSteps: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Fatal("exploration should exhaust")
	}
	t.Logf("explored %d runs (max depth %d)", stats.Runs, stats.MaxDepth)
}
