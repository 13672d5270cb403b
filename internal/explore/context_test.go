package explore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mpcn/internal/sched"
)

// contextWorkers are the pool sizes every context case runs at through Run:
// the one-worker walk and a four-worker pool.
var contextWorkers = []int{1, 4}

// cancelAfter wraps a session factory so that the n-th checked run, counted
// across every session the factory built, calls hook first.
func cancelAfter(mk func() Session, n int64, hook func() error) func() Session {
	var runs atomic.Int64
	return func() Session {
		s := mk()
		base := s.Check
		s.Check = func(res *sched.Result) error {
			if runs.Add(1) == n {
				if err := hook(); err != nil {
					return err
				}
			}
			return base(res)
		}
		return s
	}
}

// TestContextPreCanceledSequential: a canceled context stops the walk before
// its first run and surfaces the context's error, at every worker count.
func TestContextPreCanceledSequential(t *testing.T) {
	for _, workers := range contextWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		st, err := Run(ctx, registersSession(3, 3), Config{Workers: workers, MaxSteps: 256})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if st.Exhausted {
			t.Fatalf("workers=%d: canceled exploration must not report exhaustion", workers)
		}
		if st.Runs != 0 {
			t.Fatalf("workers=%d: canceled-before-start exploration ran %d runs", workers, st.Runs)
		}
	}
}

// TestContextCancelMidWalk: canceling from the checker stops the walk at the
// next run boundary with partial stats, at every worker count.
func TestContextCancelMidWalk(t *testing.T) {
	full, err := ExploreSession(registersSession(3, 3)(), Config{MaxSteps: 256})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, workers := range contextWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		mk := cancelAfter(registersSession(3, 3), 20, func() error { cancel(); return nil })
		st, err := Run(ctx, mk, Config{Workers: workers, MaxSteps: 256})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if st.Exhausted || st.Runs >= full.Runs || st.Runs < 20 {
			t.Fatalf("workers=%d: partial stats wrong: runs=%d (full %d), exhausted=%v",
				workers, st.Runs, full.Runs, st.Exhausted)
		}
	}
}

// TestContextCancelParallel: cancellation halts every worker of a pool; the
// error is the context's.
func TestContextCancelParallel(t *testing.T) {
	full, err := ExploreParallel(registersSession(3, 3), Config{Workers: 4, MaxSteps: 256})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	mk := cancelAfter(registersSession(3, 3), 20, func() error { cancel(); return nil })
	st, err := Run(ctx, mk, Config{Workers: 4, MaxSteps: 256})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Exhausted || st.Runs >= full.Runs {
		t.Fatalf("partial stats wrong: runs=%d (full %d), exhausted=%v", st.Runs, full.Runs, st.Exhausted)
	}
}

// TestContextViolationOutranksCancel: a property violation found before the
// cancellation still surfaces as the PropertyError, not the context error,
// at every worker count.
func TestContextViolationOutranksCancel(t *testing.T) {
	for _, workers := range contextWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		mk := cancelAfter(registersSession(3, 3), 20, func() error {
			cancel()
			return errors.New("violated just before cancel")
		})
		_, err := Run(ctx, mk, Config{Workers: workers, MaxSteps: 256})
		var pe *PropertyError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want PropertyError", workers, err)
		}
	}
}

// TestContextCheckerPanicReraised: a checker panic re-raises on the caller's
// goroutine, at every worker count.
func TestContextCheckerPanicReraised(t *testing.T) {
	for _, workers := range contextWorkers {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "checker exploded") {
					t.Fatalf("workers=%d: recovered %v, want the checker's panic", workers, r)
				}
			}()
			mk := cancelAfter(registersSession(3, 3), 20, func() error { panic("checker exploded") })
			_, _ = Run(context.Background(), mk, Config{Workers: workers, MaxSteps: 256})
		}()
	}
}

// TestRunOneWorkerMatchesExploreSession: Run at one worker is the walk
// ExploreSession performs, down to the dedup store's counters.
func TestRunOneWorkerMatchesExploreSession(t *testing.T) {
	cfg := Config{MaxCrashes: 1, Dedup: true}
	want, err := ExploreSession(rmwSession(3, nil)(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	got, err := Run(context.Background(), rmwSession(3, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs != want.Runs || got.Pruned != want.Pruned || got.Dedup.States != want.Dedup.States ||
		got.Dedup.Hits != want.Dedup.Hits || got.Dedup.Lookups != want.Dedup.Lookups || got.Workers != nil {
		t.Fatalf("Run(Workers: 1) = runs %d pruned %d %+v workers %v; ExploreSession = runs %d pruned %d %+v",
			got.Runs, got.Pruned, got.Dedup, got.Workers, want.Runs, want.Pruned, want.Dedup)
	}
}

// TestProgressTracksStats: the live Progress counters converge to the final
// Stats for both engines, and expose the dedup store's distinct-state count.
func TestProgressTracksStats(t *testing.T) {
	var prog Progress
	st, err := ExploreSession(tasSession(), Config{MaxSteps: 64, Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if snap.Runs != int64(st.Runs) || snap.Pruned != int64(st.Pruned) {
		t.Fatalf("sequential progress %+v diverges from stats runs=%d pruned=%d", snap, st.Runs, st.Pruned)
	}

	var pprog Progress
	pst, err := ExploreParallel(registersSession(2, 2), Config{Workers: 4, MaxSteps: 128, Progress: &pprog})
	if err != nil {
		t.Fatal(err)
	}
	psnap := pprog.Snapshot()
	if psnap.Runs != int64(pst.Runs) || psnap.Pruned != int64(pst.Pruned) {
		t.Fatalf("parallel progress %+v diverges from stats runs=%d pruned=%d", psnap, pst.Runs, pst.Pruned)
	}

	var dprog Progress
	dst, err := ExploreSession(sessionCommitAdopt(2)(), Config{MaxSteps: 128, Dedup: true, Progress: &dprog})
	if err != nil {
		t.Fatal(err)
	}
	dsnap := dprog.Snapshot()
	if dsnap.Dedup.States != dst.Dedup.States || dsnap.Dedup.States == 0 {
		t.Fatalf("dedup progress states=%d, stats states=%d", dsnap.Dedup.States, dst.Dedup.States)
	}
}

// countingRuntime wraps the default session source, counting the lease
// traffic.
type countingRuntime struct {
	acquired atomic.Int64
	released atomic.Int64
}

func (c *countingRuntime) Acquire(n int, direct bool) (*sched.Session, error) {
	c.acquired.Add(1)
	return sched.NewSession(n)
}

func (c *countingRuntime) Release(rt *sched.Session) {
	c.released.Add(1)
	rt.Close()
}

// TestRuntimeSourceLeases: with Config.Runtime set, every walker leases its
// runtime from the source and returns it.
func TestRuntimeSourceLeases(t *testing.T) {
	var src countingRuntime
	if _, err := ExploreSession(tasSession(), Config{MaxSteps: 64, Runtime: &src}); err != nil {
		t.Fatal(err)
	}
	if src.acquired.Load() == 0 {
		t.Fatal("sequential exploration never leased from the RuntimeSource")
	}
	if a, r := src.acquired.Load(), src.released.Load(); a != r {
		t.Fatalf("lease imbalance: %d acquired, %d released", a, r)
	}

	var psrc countingRuntime
	if _, err := ExploreParallel(registersSession(2, 2), Config{Workers: 4, MaxSteps: 128, Runtime: &psrc}); err != nil {
		t.Fatal(err)
	}
	if psrc.acquired.Load() == 0 {
		t.Fatal("parallel exploration never leased from the RuntimeSource")
	}
	if a, r := psrc.acquired.Load(), psrc.released.Load(); a != r {
		t.Fatalf("lease imbalance: %d acquired, %d released", a, r)
	}
}
