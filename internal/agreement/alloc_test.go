package agreement

import (
	"testing"

	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
)

// TestAllocsObservedScan: observing the components of a safe_agreement SM
// snapshot folds each saCell in place, so a scan under Config.Observe
// allocates exactly what it does with observation off — nothing for the
// zero-copy ScanView, only the returned copy for Scan. Per-scan counts are
// the difference between runs of 2k and k scans on one warm session. The
// race detector changes allocation counts, so the gate skips under it;
// `make alloc-gate` runs it without.
func TestAllocsObservedScan(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const k = 200
	sm := snapshot.NewPrimitive[saCell]("SM", 3)
	rt, err := sched.NewSessionWith(1, sched.SessionOptions{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fill := func(e *sched.Env) {
		for i := 0; i < sm.Len(); i++ {
			sm.Update(e, i, saCell{value: []any{i, nil}, level: saStable})
		}
	}
	if _, err := rt.Run(sched.Config{}, []sched.Proc{fill}); err != nil {
		t.Fatal(err)
	}
	perScan := func(observe bool, scan func(*sched.Env)) float64 {
		run := func(scans int) float64 {
			body := func(e *sched.Env) {
				for i := 0; i < scans; i++ {
					scan(e)
				}
			}
			return testing.AllocsPerRun(10, func() {
				if _, err := rt.Run(sched.Config{Observe: observe, MaxSteps: 4 * k}, []sched.Proc{body}); err != nil {
					t.Fatal(err)
				}
			})
		}
		run(2 * k) // warm the session's buffers
		return (run(2*k) - run(k)) / k
	}
	view := func(e *sched.Env) { sm.ScanView(e) }
	scan := func(e *sched.Env) { sm.Scan(e) }
	if got := perScan(true, view); got != 0 {
		t.Errorf("observed ScanView: %v allocations per scan, want 0", got)
	}
	if got, want := perScan(true, scan), perScan(false, scan); got != want {
		t.Errorf("observed Scan: %v allocations per scan, unobserved %v", got, want)
	}
}
