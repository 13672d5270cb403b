package bg

// Unit tests of the thread machinery on its own: a simulator's threads are
// driven through resumeNext and reaped through stopAll, outside any
// scheduler. The bodies only take fairness yields, which request no shared
// step, so the simulator resumes them with a nil Env.

import (
	"slices"
	"testing"

	"mpcn/internal/algorithms"
)

// newThreadSim builds simulator 0 with one thread per body; thread j runs
// bodies[j].
func newThreadSim(bodies ...func(a *simAPI)) *simulatorState {
	r := &engineRun{n: len(bodies), cfg: Config{Alg: misbehavingAlg{
		name: "bodies",
		run:  func(api algorithms.API) { bodies[api.ID()](api.(*simAPI)) },
	}}}
	return r.newSimulator(0)
}

// rounds returns a body that logs id and then yields, rounds times.
func rounds(order *[]int, id, n int) func(a *simAPI) {
	return func(a *simAPI) {
		for k := 0; k < n; k++ {
			*order = append(*order, id)
			a.pause()
		}
	}
}

// TestResumeRunsToFairnessYield: each resume runs the thread up to its next
// fairness yield; the resume that runs it off its end marks it done, and a
// simulator with no live thread resumes nothing.
func TestResumeRunsToFairnessYield(t *testing.T) {
	var log []int
	sim := newThreadSim(func(a *simAPI) {
		log = append(log, 1)
		a.pause()
		log = append(log, 2)
		a.pause()
		log = append(log, 3)
	})
	th := &sim.threads[0]
	if th.done {
		t.Fatal("new thread should not be done")
	}
	for _, want := range []int{1, 2} {
		if !sim.resumeNext(nil) {
			t.Fatalf("thread ended after %v, want it parked", log)
		}
		if len(log) != want || log[want-1] != want || th.done {
			t.Fatalf("log = %v (done %v), want %d entries ending at the yield", log, th.done, want)
		}
	}
	if sim.resumeNext(nil) {
		t.Fatal("thread should have ended on its third resume")
	}
	if !slices.Equal(log, []int{1, 2, 3}) || !th.done || sim.live != 0 {
		t.Fatalf("log = %v, done %v, live %d: want [1 2 3], done, 0 live", log, th.done, sim.live)
	}
	if sim.resumeNext(nil) || len(log) != 3 {
		t.Fatal("resuming a simulator with no live thread should run nothing")
	}
}

// TestStopParkedThreadSkipsRest: stopping a thread parked on a yield
// unwinds it, running its deferred calls but no code after the yield;
// stopping it again is a no-op.
func TestStopParkedThreadSkipsRest(t *testing.T) {
	reached, exited := false, false
	sim := newThreadSim(func(a *simAPI) {
		defer func() { exited = true }()
		a.pause()
		reached = true
	})
	sim.resumeNext(nil)
	sim.stopAll()
	if reached {
		t.Fatal("code after the stop point must not run")
	}
	if !exited {
		t.Fatal("stopped thread's deferred calls did not run")
	}
	if _, ok := sim.threads[0].next(); ok {
		t.Fatal("stopped thread resumed")
	}
	sim.stopAll()
}

// TestResumePanicAfterYieldPropagates: a foreign panic raised by a thread
// after a yield re-raises, with its value, on the simulator that resumed
// it, and ends the thread.
func TestResumePanicAfterYieldPropagates(t *testing.T) {
	sim := newThreadSim(func(a *simAPI) {
		a.pause()
		panic("boom")
	})
	sim.resumeNext(nil)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if _, ok := sim.threads[0].next(); ok {
			t.Fatal("panicked thread should have ended")
		}
	}()
	sim.resumeNext(nil)
	t.Fatal("unreachable")
}

// TestResumeImmediatePanicPropagates: a thread that panics before its first
// yield re-raises the value on its first resume.
func TestResumeImmediatePanicPropagates(t *testing.T) {
	sim := newThreadSim(func(a *simAPI) { panic(42) })
	defer func() {
		if r := recover(); r != 42 {
			t.Fatalf("recovered %v, want 42", r)
		}
	}()
	sim.resumeNext(nil)
	t.Fatal("unreachable")
}

// TestStopAllDuringPanicUnwind is the simulator-crash path: one thread
// panics with a foreign value while its sibling is parked, and the
// simulator's deferred stopAll reaps the sibling while the panic is in
// flight, after which the panic still reaches the simulator's caller.
func TestStopAllDuringPanicUnwind(t *testing.T) {
	sibExited, sibResumed := false, false
	sim := newThreadSim(
		func(a *simAPI) {
			a.pause()
			panic("crash")
		},
		func(a *simAPI) {
			defer func() { sibExited = true }()
			a.pause()
			sibResumed = true
		},
	)
	sim.resumeNext(nil) // starts the panicking thread, parks it
	sim.resumeNext(nil) // starts the sibling, parks it

	defer func() {
		if r := recover(); r != "crash" {
			t.Fatalf("recovered %v, want crash", r)
		}
		if !sibExited || sibResumed {
			t.Fatalf("sibling exited %v, resumed %v: want reaped without resuming", sibExited, sibResumed)
		}
	}()
	func() {
		defer sim.stopAll()
		sim.resumeNext(nil) // the panicking thread's turn again
	}()
	t.Fatal("unreachable")
}

// TestResumeNextRoundRobin: resumeNext moves through the threads in index
// order, one yield each, so equal threads interleave.
func TestResumeNextRoundRobin(t *testing.T) {
	var order []int
	sim := newThreadSim(rounds(&order, 0, 2), rounds(&order, 1, 2), rounds(&order, 2, 2))
	for sim.resumeNext(nil) {
	}
	if want := []int{0, 1, 2, 0, 1, 2}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if sim.live != 0 {
		t.Fatalf("live = %d, want 0", sim.live)
	}
}

// TestResumeNextSkipsDone: a finished thread loses its turns; the
// round-robin goes on among the live ones, wherever the finished one sits.
func TestResumeNextSkipsDone(t *testing.T) {
	var order []int
	sim := newThreadSim(func(a *simAPI) { order = append(order, 0) }, rounds(&order, 1, 2))
	for sim.resumeNext(nil) {
	}
	if want := []int{0, 1, 1}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}

	order = nil
	sim = newThreadSim(rounds(&order, 0, 3), rounds(&order, 1, 1), rounds(&order, 2, 3))
	for sim.resumeNext(nil) {
	}
	if want := []int{0, 1, 2, 0, 2, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
