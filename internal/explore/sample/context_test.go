package sample_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
)

// contextWorkers are the pool sizes every context case runs at through
// RunContext: the one-worker draw and a four-worker pool.
var contextWorkers = []int{1, 4}

// hookAfter wraps a session factory so that the n-th checked sample,
// counted across every session the factory built, calls hook first.
func hookAfter(t *testing.T, n int64, hook func() error) func() explore.Session {
	s, p, _ := session(t, "commitadopt", spec.Params{"n": 2})
	var checked atomic.Int64
	return func() explore.Session {
		sess := s.New(p)
		base := sess.Check
		sess.Check = func(res *sched.Result) error {
			if checked.Add(1) == n {
				if err := hook(); err != nil {
					return err
				}
			}
			return base(res)
		}
		return sess
	}
}

// TestSampleContextPreCanceled: a canceled context stops the draw before its
// first sample and surfaces the context's error, at every worker count.
func TestSampleContextPreCanceled(t *testing.T) {
	s, p, _ := session(t, "commitadopt", spec.Params{"n": 2})
	for _, workers := range contextWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		st, err := sample.RunContext(ctx, spec.Factory(s, p), sample.StrategyWalk,
			sample.Config{Samples: 100, Seed: 1, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if st.Samples != 0 {
			t.Fatalf("workers=%d: canceled-before-start run drew %d samples", workers, st.Samples)
		}
	}
}

// TestSampleContextCancelMidRun: cancellation from the checker stops the
// draw at the next sample boundary with partial stats, at every worker
// count.
func TestSampleContextCancelMidRun(t *testing.T) {
	for _, workers := range contextWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := sample.Config{Samples: 100000, Seed: 1, Workers: workers}
		mk := hookAfter(t, 50, func() error { cancel(); return nil })
		st, err := sample.RunContext(ctx, mk, sample.StrategyWalk, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if st.Samples >= cfg.Samples || st.Samples < 50 {
			t.Fatalf("workers=%d: partial samples wrong: %d of %d", workers, st.Samples, cfg.Samples)
		}
	}
}

// TestSampleContextCancelParallel: cancellation from the sample callback
// halts the worker pool at the next sample boundary.
func TestSampleContextCancelParallel(t *testing.T) {
	s, p, _ := session(t, "commitadopt", spec.Params{"n": 2})
	ctx, cancel := context.WithCancel(context.Background())
	var drawn atomic.Int64
	cfg := sample.Config{Samples: 100000, Seed: 1, Workers: 4}
	cfg.OnSample = func(i int, script []string) {
		if drawn.Add(1) == 50 {
			cancel()
		}
	}
	st, err := sample.RunContext(ctx, spec.Factory(s, p), sample.StrategyWalk, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Samples >= cfg.Samples || st.Samples < 50 {
		t.Fatalf("partial samples wrong: %d of %d", st.Samples, cfg.Samples)
	}
}

// TestSampleContextViolationOutranksCancel: a property violation found
// before the cancellation surfaces as the PropertyError, not the context
// error, at every worker count.
func TestSampleContextViolationOutranksCancel(t *testing.T) {
	for _, workers := range contextWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		mk := hookAfter(t, 50, func() error {
			cancel()
			return errors.New("violated just before cancel")
		})
		_, err := sample.RunContext(ctx, mk, sample.StrategyWalk,
			sample.Config{Samples: 100000, Seed: 1, Workers: workers})
		var pe *explore.PropertyError
		var se *sample.SampleError
		if !errors.As(err, &pe) || !errors.As(err, &se) {
			t.Fatalf("workers=%d: err = %v, want a PropertyError wrapping a SampleError", workers, err)
		}
	}
}

// TestSampleContextCheckerPanicReraised: a checker panic in a worker
// re-raises on the caller's goroutine, at every worker count.
func TestSampleContextCheckerPanicReraised(t *testing.T) {
	for _, workers := range contextWorkers {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "checker exploded") {
					t.Fatalf("workers=%d: recovered %v, want the checker's panic", workers, r)
				}
			}()
			mk := hookAfter(t, 50, func() error { panic("checker exploded") })
			_, _ = sample.RunContext(context.Background(), mk, sample.StrategyWalk,
				sample.Config{Samples: 100000, Seed: 1, Workers: workers})
		}()
	}
}

// TestSampleProgressTracksStats: the live Progress counters converge to the
// final Stats — each sample counted as a run — including the coverage
// estimator's distinct-state count.
func TestSampleProgressTracksStats(t *testing.T) {
	s, p, sess := session(t, "commitadopt", spec.Params{"n": 2})
	var prog explore.Progress
	st, err := sample.Run(sess, sample.StrategyWalk, sample.Config{Samples: 300, Seed: 1, Coverage: true, Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if snap.Runs != int64(st.Samples) || snap.Pruned != 0 {
		t.Fatalf("progress runs %d (pruned %d), stats %d samples", snap.Runs, snap.Pruned, st.Samples)
	}
	if snap.Dedup.States != st.Distinct || snap.Dedup.States == 0 {
		t.Fatalf("progress distinct %d, stats %d", snap.Dedup.States, st.Distinct)
	}

	var pprog explore.Progress
	pst, err := sample.RunParallel(spec.Factory(s, p), sample.StrategyWalk,
		sample.Config{Samples: 300, Seed: 1, Workers: 4, Coverage: true, Progress: &pprog})
	if err != nil {
		t.Fatal(err)
	}
	psnap := pprog.Snapshot()
	if psnap.Runs != int64(pst.Samples) {
		t.Fatalf("parallel progress runs %d, stats %d samples", psnap.Runs, pst.Samples)
	}
}

// countingRuntime counts RuntimeSource lease traffic.
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

var _ explore.RuntimeSource = (*countingRuntime)(nil)

// TestSampleRuntimeSourceLeases: with Config.Runtime set, sampling workers
// lease their runtimes from the source and return them.
func TestSampleRuntimeSourceLeases(t *testing.T) {
	s, p, _ := session(t, "commitadopt", spec.Params{"n": 2})
	var src countingRuntime
	_, err := sample.RunParallel(spec.Factory(s, p), sample.StrategyWalk,
		sample.Config{Samples: 200, Seed: 1, Workers: 4, Runtime: &src})
	if err != nil {
		t.Fatal(err)
	}
	if src.acquired.Load() == 0 {
		t.Fatal("sampling never leased from the RuntimeSource")
	}
	if a, r := src.acquired.Load(), src.released.Load(); a != r {
		t.Fatalf("lease imbalance: %d acquired, %d released", a, r)
	}
}
