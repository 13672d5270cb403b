package sample

import (
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sessions"
	"mpcn/internal/sched"
)

// TestAllocsCoverageProbe: once warm, a coverage probe — the decision
// boundary's fingerprint (control points, observation digests and the
// harness digest) and its visited-store lookup — allocates nothing. The
// race detector changes allocation counts, so the gate skips under it;
// `make alloc-gate` runs it without.
func TestAllocsCoverageProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sess := sessions.XSafe(4, 2, 2)()
	bodies := sess.Make()
	n := len(bodies)
	v := sched.View{
		Pending: make([]sched.Label, n),
		Crashed: make([]bool, n),
		StepsOf: make([]int, n),
		Obs:     make([]sched.FP, n),
	}
	for i := range v.Pending {
		v.Pending[i] = sched.LabelStart
		v.Obs[i].Int(i)
	}
	a := &adversary{store: explore.NewVisitedStore(1<<20, 1), fpFn: sess.Fingerprint}
	probe := func() { a.store.Visit(a.fingerprint(v)) }
	probe()
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Fatalf("coverage probe: %v allocations, want 0", allocs)
	}
}
