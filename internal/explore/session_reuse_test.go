package explore_test

import (
	"errors"
	"fmt"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sessions"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// Aliases keep the test bodies readable from the external test package (the
// sessions harness package imports explore, so these tests cannot live in
// the internal test package).
type (
	Session       = explore.Session
	Config        = explore.Config
	PropertyError = explore.PropertyError
)

var ExploreParallel = explore.ExploreParallel

// TestSessionReuseMatchesRespawn is the session-reuse acceptance regression:
// the session-backed explorer must visit exactly the state space the PR-1
// respawning explorer visited — identical visited-run counts, pruned-branch
// counts, depths and exhaustion verdicts — on the commit-adopt exhaustive
// sweep, with and without crashes and partial-order reduction, and likewise
// for the x-safe sweep and the parallel engine. The respawning explorer is
// gone; the golden counts were recorded from it.
func TestSessionReuseMatchesRespawn(t *testing.T) {
	type golden struct{ runs, pruned, depth int }
	cases := []struct {
		name       string
		newSession func() Session
		cfg        Config
		want       golden
	}{
		{"commitadopt/n=2", sessions.CommitAdopt(2), Config{MaxSteps: 64}, golden{252, 0, 10}},
		{"commitadopt/n=2/crashes=1", sessions.CommitAdopt(2), Config{MaxCrashes: 1, MaxSteps: 64}, golden{1174, 0, 10}},
		{"commitadopt/n=2/crashes=1/prune", sessions.CommitAdopt(2), Config{MaxCrashes: 1, MaxSteps: 64, Prune: true}, golden{109, 29, 10}},
		{"xsafe/n=2/x=2/crashes=1", sessions.XSafe(2, 2, 2), Config{MaxCrashes: 1, MaxSteps: 256}, golden{1890, 0, 11}},
		{"registers/n=3/prune", sessions.Registers(3, 2, 0, reg.Atomic), Config{Prune: true}, golden{34, 75, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reused, err := explore.ExploreSession(tc.newSession(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := (golden{reused.Runs, reused.Pruned, reused.MaxDepth}); got != tc.want || !reused.Exhausted {
				t.Fatalf("session-reuse diverged from the respawn golden: got %+v exhausted=%v, want %+v",
					got, reused.Exhausted, tc.want)
			}
			// The parallel engine (session-backed workers) must agree too.
			par, err := ExploreParallel(tc.newSession, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if par.Runs != tc.want.runs || par.Pruned != tc.want.pruned || !par.Exhausted {
				t.Fatalf("parallel session engine diverged: par=%+v want=%+v", par, tc.want)
			}
		})
	}
}

// TestSessionReuseByteIdenticalScripts: on a property violation, the failing
// decision script surfaced by the session-backed explorer is identical to
// the one the respawning explorer surfaced (recorded before it was deleted)
// — the counterexamples users replay are unaffected by the runtime swap.
func TestSessionReuseByteIdenticalScripts(t *testing.T) {
	s := sessions.Registers(2, 2, 0, reg.Atomic)()
	runs := 0
	inner := s.Check
	s.Check = func(res *sched.Result) error {
		if err := inner(res); err != nil {
			return err
		}
		runs++
		if runs == 5 {
			return errors.New("synthetic violation on the 5th run")
		}
		return nil
	}
	_, err := explore.ExploreSession(s, Config{MaxCrashes: 1})
	var pe *PropertyError
	if !errors.As(err, &pe) {
		t.Fatalf("want PropertyError, got %v", err)
	}
	want := []string{"run(0@(start))", "run(0@r[0].write)", "run(1@(start))",
		"run(0@r[0].write)", "run(1@r[1].write)", "run(1@r[1].write)"}
	if fmt.Sprint(pe.Script) != fmt.Sprint(want) {
		t.Fatalf("counterexample script differs from the respawn golden:\ngot:  %v\nwant: %v", pe.Script, want)
	}
}
