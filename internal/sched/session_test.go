package sched

import (
	"fmt"
	"strings"
	"testing"
)

// directSubtest runs f as the subtest "direct", named after the coroutine
// protocol — the scheduler's only one since the inline and rendezvous
// protocols were retired.
func directSubtest(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("direct", f)
}

// crashyBodies is a deterministic workload whose runs exercise grants,
// self-blocking spins and decisions.
func crashyBodies(n, k int) []Proc {
	bodies := make([]Proc, n)
	for i := range bodies {
		bodies[i] = counterBody(k)
	}
	return bodies
}

// crashyConfig is a run configuration with crashes placed mid-run, a fresh
// adversary per call (adversaries are stateful).
func crashyConfig(trace int) Config {
	adv := NewPlan(NewRoundRobin()).CrashOnLabel(1, "inc/2", 1).CrashAtStep(9, 2)
	return Config{Adversary: adv, TraceCapacity: trace, MaxCrashes: 3}
}

// TestSessionReuseDeterminism is the session-reuse regression: N back-to-back
// runs on one Session produce byte-identical traces and outcomes to N runs
// on fresh runtimes, crashes included.
func TestSessionReuseDeterminism(t *testing.T) {
	directSubtest(t, func(t *testing.T) {
		const n, k, rounds = 4, 6, 5
		s, err := NewSession(n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for round := 0; round < rounds; round++ {
			got, err := s.Run(crashyConfig(1<<10), crashyBodies(n, k))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			want, err := Run(crashyConfig(1<<10), crashyBodies(n, k))
			if err != nil {
				t.Fatalf("round %d fresh: %v", round, err)
			}
			if len(got.Trace) == 0 || render(got) != render(want) {
				t.Fatalf("round %d: reused session diverged from a fresh runtime\n%s\nvs\n%s",
					round, render(got), render(want))
			}
		}
	})
}

// render formats a run's totals, per-process outcomes and trace as the text
// the goldens below pin.
func render(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d crashes=%d budget=%v\n", res.Steps, res.Crashes, res.BudgetExhausted)
	for i, o := range res.Outcomes {
		fmt.Fprintf(&b, "%d %v decided=%v value=%v steps=%d last=%v\n",
			i, o.Status, o.Decided, o.Value, o.Steps, o.LastLabel)
	}
	for i, e := range res.Trace {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%v", e.Proc, e.Label)
	}
	return b.String()
}

// checkGolden requires a run to render exactly as its golden.
func checkGolden(t *testing.T, what string, res *Result, want string) {
	t.Helper()
	if got := render(res); got != want {
		t.Fatalf("%s: run differs from its golden\ngot:\n%s\nwant:\n%s", what, got, want)
	}
}

// The goldens were recorded when the scheduler still had three protocols
// (direct coroutines, inline goroutine token passing and a central
// rendezvous coordinator), all of which produced these byte-identical runs.
// The differential reference survives as data.

// goldenCrashy is crashyConfig over crashyBodies(5, 7): a crash on a label
// and a crash at a step, mid-run.
const goldenCrashy = `steps=25 crashes=2 budget=false
0 decided decided=true value=7 steps=7 last=inc/6
1 crashed decided=false value=<nil> steps=2 last=inc/2
2 crashed decided=false value=<nil> steps=2 last=inc/2
3 decided decided=true value=7 steps=7 last=inc/6
4 decided decided=true value=7 steps=7 last=inc/6
0:(start) 1:(start) 2:(start) 3:(start) 4:(start) 0:inc/0 1:inc/0 2:inc/0 3:inc/0 4:inc/0 0:inc/1 1:inc/1 2:inc/1 3:inc/1 4:inc/1 0:inc/2 3:inc/2 4:inc/2 0:inc/3 3:inc/3 4:inc/3 0:inc/4 3:inc/4 4:inc/4 0:inc/5 3:inc/5 4:inc/5 0:inc/6 3:inc/6 4:inc/6`

// goldenBatched is crashyConfig over crashyBodies(4, 5), the schedule
// TestBatchedGrantsEquivalence re-emits as one batched Plan.
const goldenBatched = `steps=14 crashes=2 budget=false
0 decided decided=true value=5 steps=5 last=inc/4
1 crashed decided=false value=<nil> steps=2 last=inc/2
2 crashed decided=false value=<nil> steps=2 last=inc/2
3 decided decided=true value=5 steps=5 last=inc/4
0:(start) 1:(start) 2:(start) 3:(start) 0:inc/0 1:inc/0 2:inc/0 3:inc/0 0:inc/1 1:inc/1 2:inc/1 3:inc/1 0:inc/2 0:inc/3 3:inc/2 0:inc/4 3:inc/3 3:inc/4`

// goldenSprint is round-robin over counterBody(2), counterBody(2) and
// counterBody(8): process 2's tail runs solo.
const goldenSprint = `steps=12 crashes=0 budget=false
0 decided decided=true value=2 steps=2 last=inc/1
1 decided decided=true value=2 steps=2 last=inc/1
2 decided decided=true value=8 steps=8 last=inc/7
0:(start) 1:(start) 2:(start) 0:inc/0 1:inc/0 2:inc/0 0:inc/1 1:inc/1 2:inc/1 2:inc/2 2:inc/3 2:inc/4 2:inc/5 2:inc/6 2:inc/7`

// goldenSelfCrash is round-robin over crashyBodies(3, 6) with processes 1
// and 0 crashed in one decision at step 4.
const goldenSelfCrash = `steps=9 crashes=2 budget=false
0 crashed decided=false value=<nil> steps=2 last=inc/2
1 crashed decided=false value=<nil> steps=1 last=inc/1
2 decided decided=true value=6 steps=6 last=inc/5
0:(start) 1:(start) 2:(start) 0:inc/0 1:inc/0 2:inc/0 0:inc/1 2:inc/1 2:inc/2 2:inc/3 2:inc/4 2:inc/5`

// TestProtocolEquivalence replays the crashy schedule and requires the
// recorded trace, outcomes and totals byte for byte, both from a fresh
// session and from one that already ran.
func TestProtocolEquivalence(t *testing.T) {
	const n, k = 5, 7
	directSubtest(t, func(t *testing.T) {
		s, err := NewSession(n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for round := 0; round < 2; round++ {
			res, err := s.Run(crashyConfig(1<<10), crashyBodies(n, k))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("round %d", round), res, goldenCrashy)
		}
	})
}

// planningAdversary wraps a recorded schedule and re-emits it as batched
// grants: the first decision carries the whole remainder as a Plan. It also
// exercises Sprint when asked: once only one process remains scheduled in
// the tail, it emits a sprint round instead of the plan tail.
type planningAdversary struct {
	script  []Grant
	pos     int
	sprint  bool
	emitted bool
}

func (a *planningAdversary) Next(v View) Decision {
	if a.pos >= len(a.script) {
		return Decision{Run: v.Runnable[0]}
	}
	g := a.script[a.pos]
	a.pos++
	var dec Decision
	if g.Crash {
		dec = CrashDecision(g.ID)
	} else {
		dec = Decision{Run: g.ID}
	}
	if !a.emitted {
		a.emitted = true
		dec.Plan = a.script[a.pos:]
		a.pos = len(a.script)
	}
	return dec
}

// sprintingAdversary schedules round-robin until only one process is still
// parked, then emits a single Sprint round for it.
type sprintingAdversary struct {
	rr        *RoundRobin
	sprinted  bool
	SprintLog []TraceEntry
}

func (a *sprintingAdversary) Next(v View) Decision {
	if len(v.Runnable) == 1 && !a.sprinted {
		a.sprinted = true
		return Decision{Run: v.Runnable[0], Sprint: true}
	}
	return a.rr.Next(v)
}

func (a *sprintingAdversary) SprintStep(id ProcID, label Label) {
	a.SprintLog = append(a.SprintLog, TraceEntry{Proc: id, Label: label})
}

// TestBatchedGrantsEquivalence: the crashy schedule pre-committed as one
// batched Plan reproduces the golden of its step-by-step execution, crashes
// included.
func TestBatchedGrantsEquivalence(t *testing.T) {
	const n, k = 4, 5
	ref, err := Run(crashyConfig(1<<10), crashyBodies(n, k))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "unbatched", ref, goldenBatched)
	// Rebuild the schedule as explicit grants: crashes are not in the trace,
	// so reconstruct them from outcome order via a replaying probe run.
	script := recordGrants(t, n, k)

	s, err := NewSession(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	adv := &planningAdversary{script: script}
	got, err := s.Run(Config{Adversary: adv, TraceCapacity: 1 << 10, MaxCrashes: 3}, crashyBodies(n, k))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batched", got, goldenBatched)
}

// grantRecorder wraps an adversary and records every decision it makes as a
// flat grant script (crash-only rounds become crash grants).
type grantRecorder struct {
	base   Adversary
	grants []Grant
}

func (a *grantRecorder) Next(v View) Decision {
	d := a.base.Next(v)
	// Track which processes remain parked after this round's crashes, so the
	// recorded run grant is the one the runtime actually resolves (a round
	// may crash the very process it named in Run, falling back to the first
	// parked process — a planned grant must name that process explicitly).
	parked := make(map[ProcID]bool, len(v.Runnable))
	for _, id := range v.Runnable {
		parked[id] = true
	}
	for _, c := range d.Crash {
		if parked[c] {
			a.grants = append(a.grants, Grant{ID: c, Crash: true})
			delete(parked, c)
		}
	}
	run := d.Run
	if run < 0 && len(d.Crash) > 0 {
		return d // crash-only round
	}
	if !parked[run] {
		run = -1
		for _, id := range v.Runnable {
			if parked[id] && (run < 0 || id < run) {
				run = id
			}
		}
	}
	if run >= 0 {
		a.grants = append(a.grants, Grant{ID: run})
	}
	return d
}

// recordGrants replays the crashyConfig schedule once, recording each round
// as explicit grants.
func recordGrants(t *testing.T, n, k int) []Grant {
	t.Helper()
	rec := &grantRecorder{base: NewPlan(NewRoundRobin()).CrashOnLabel(1, "inc/2", 1).CrashAtStep(9, 2)}
	if _, err := Run(Config{Adversary: rec, MaxCrashes: 3}, crashyBodies(n, k)); err != nil {
		t.Fatal(err)
	}
	return rec.grants
}

// TestSprintEquivalence: a run whose tail is granted via Sprint reproduces
// the golden of the same run scheduled step by step, and the SprintObserver
// sees exactly the sprinted grants.
func TestSprintEquivalence(t *testing.T) {
	const n = 3
	// Process 2 gets a longer body so the tail is a solo sprint.
	mk := func() []Proc {
		return []Proc{counterBody(2), counterBody(2), counterBody(8)}
	}
	want, err := Run(Config{Adversary: NewRoundRobin(), TraceCapacity: 1 << 10}, mk())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stepwise", want, goldenSprint)
	s, err := NewSession(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	adv := &sprintingAdversary{rr: NewRoundRobin()}
	got, err := s.Run(Config{Adversary: adv, TraceCapacity: 1 << 10}, mk())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sprinted", got, goldenSprint)
	if len(adv.SprintLog) == 0 {
		t.Fatal("sprint observer saw no grants")
	}
	for _, e := range adv.SprintLog {
		if e.Proc != 2 {
			t.Fatalf("sprint granted process %d, want 2", e.Proc)
		}
	}
}

// TestSessionSurvivesErrorRuns: a session stays usable after a run fails
// (body panic) and after a run is reaped on the step budget.
func TestSessionSurvivesErrorRuns(t *testing.T) {
	directSubtest(t, func(t *testing.T) {
		s, err := NewSession(2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		// Run 1: a body panics; Run must surface the error.
		boom := []Proc{
			func(e *Env) { e.Step("boom"); panic("kaboom") },
			counterBody(3),
		}
		if _, err := s.Run(Config{}, boom); err == nil {
			t.Fatal("panicking body should fail the run")
		}

		// Run 2: budget exhaustion reaps both processes.
		spin := func(e *Env) {
			for {
				e.Step("spin")
			}
		}
		res, err := s.Run(Config{MaxSteps: 10}, []Proc{spin, spin})
		if err != nil {
			t.Fatal(err)
		}
		if !res.BudgetExhausted || res.Outcomes[0].Status != StatusBlocked {
			t.Fatalf("expected blocked outcome, got %+v", res)
		}

		// Run 3: MaxCrashes violation errors out.
		adv := NewCrashSet(NewRoundRobin(), 0, 1)
		if _, err := s.Run(Config{Adversary: adv, MaxCrashes: 1}, crashyBodies(2, 3)); err == nil {
			t.Fatal("MaxCrashes violation should fail the run")
		}

		// Run 4: a normal run still works and is clean.
		res, err = s.Run(Config{Adversary: NewRoundRobin()}, crashyBodies(2, 3))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumDecided() != 2 || res.Crashes != 0 || res.Steps != 6 {
			t.Fatalf("post-error run corrupted: %+v", res)
		}
	})
}

// TestSessionRunAfterCloseFails verifies the closed-session guard.
func TestSessionRunAfterCloseFails(t *testing.T) {
	s, err := NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Run(Config{}, crashyBodies(1, 1)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestSessionBodyCountMismatch verifies the arity guard.
func TestSessionBodyCountMismatch(t *testing.T) {
	s, err := NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(Config{}, crashyBodies(3, 1)); err == nil {
		t.Fatal("mismatched body count should fail")
	}
	if _, err := s.Run(Config{}, []Proc{counterBody(1), nil}); err == nil {
		t.Fatal("nil body should fail")
	}
}

// retainingAdversary retains the View slices across Next calls — documented
// as invalid — and, after each decision, scribbles into the retained
// Runnable alias. The runtime recomputes the runnable set into the View from
// its own state every round, so mutations through stale aliases between
// decisions must be erased before the next View is observed; retained slices
// merely go stale (they alias a buffer the runtime keeps reusing), which is
// why retaining is documented as invalid.
type retainingAdversary struct {
	base     Adversary
	runnable []ProcID // retained alias of a previous round's View.Runnable
	pending  []Label  // retained alias, read-only
}

func (a *retainingAdversary) Next(v View) Decision {
	d := a.base.Next(v)
	if a.pending != nil {
		_ = a.pending[0] // stale reads are allowed, just meaningless
	}
	a.runnable = v.Runnable
	a.pending = v.Pending
	// Scribble through the alias after deciding. If the runtime trusted the
	// handed-out buffer across rounds, the next round's View (and with it
	// the schedule) would be corrupted.
	for i := range a.runnable {
		a.runnable[i] = ProcID(-7)
	}
	return d
}

// TestRetainingAdversaryCannotCorrupt: a View-retaining adversary (invalid
// per the contract) that mutates its retained Runnable slice between
// decisions must still see the same schedule as a well-behaved control,
// across multiple runs of one session.
func TestRetainingAdversaryCannotCorrupt(t *testing.T) {
	directSubtest(t, func(t *testing.T) {
		const n, k = 3, 5
		s, err := NewSession(n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for round := 0; round < 3; round++ {
			got, err := s.Run(Config{
				Adversary:     &retainingAdversary{base: NewRoundRobin()},
				TraceCapacity: 1 << 10,
			}, crashyBodies(n, k))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(Config{Adversary: NewRoundRobin(), TraceCapacity: 1 << 10},
				crashyBodies(n, k))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Trace) != len(want.Trace) {
				t.Fatalf("round %d: trace lengths differ: %d vs %d",
					round, len(got.Trace), len(want.Trace))
			}
			for i := range got.Trace {
				if got.Trace[i] != want.Trace[i] {
					t.Fatalf("round %d: retained-slice mutation changed the schedule at %d",
						round, i)
				}
			}
		}
	})
}

// TestReapedWhileParkedOnStartLabel: a process that never received its start
// grant when the budget runs out is reaped as StatusBlocked with the
// synthetic start label as its last label and zero steps.
func TestReapedWhileParkedOnStartLabel(t *testing.T) {
	directSubtest(t, func(t *testing.T) {
		s, err := NewSession(2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		spin := func(e *Env) {
			for {
				e.Step("spin")
			}
		}
		// The adversary always runs process 0, so process 1 stays parked on
		// its start label until the budget reaps it.
		only0 := NewStriped(1<<30, 0)
		res, err := s.Run(Config{Adversary: only0, MaxSteps: 5}, []Proc{spin, spin})
		if err != nil {
			t.Fatal(err)
		}
		if !res.BudgetExhausted {
			t.Fatal("budget should have been exhausted")
		}
		o := res.Outcomes[1]
		if o.Status != StatusBlocked {
			t.Fatalf("proc 1 status = %v, want blocked", o.Status)
		}
		if o.Steps != 0 {
			t.Fatalf("proc 1 steps = %d, want 0", o.Steps)
		}
		if o.LastLabel != LabelStart {
			t.Fatalf("proc 1 last label = %q, want %q", o.LastLabel, StartLabel)
		}
		if res.Outcomes[0].Status != StatusBlocked || res.Outcomes[0].Steps != 5 {
			t.Fatalf("proc 0 outcome: %+v", res.Outcomes[0])
		}
	})
}

// TestSessionSelfCrashMidRound: the adversary crashes two processes in one
// decision, one of them the process granted just before, then the run
// continues and reproduces its golden.
func TestSessionSelfCrashMidRound(t *testing.T) {
	directSubtest(t, func(t *testing.T) {
		s, err := NewSession(3)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		adv := NewPlan(NewRoundRobin()).CrashAtStep(4, 1, 0)
		res, err := s.Run(Config{Adversary: adv, TraceCapacity: 1 << 10, MaxCrashes: 3},
			crashyBodies(3, 6))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "self-crash", res, goldenSelfCrash)
	})
}

// panicky is an adversary that panics after a fixed number of decisions.
type panicky struct{ left int }

func (a *panicky) Next(v View) Decision {
	if a.left <= 0 {
		panic("adversary bug")
	}
	a.left--
	return Decision{Run: v.Runnable[0]}
}

// TestAdversaryPanicFailsRunUnderBothProtocols: a panic inside
// Adversary.Next surfaces as the recorded run error (the one every retired
// protocol reported too), every process is reaped, and the session stays
// usable.
func TestAdversaryPanicFailsRunUnderBothProtocols(t *testing.T) {
	directSubtest(t, func(t *testing.T) {
		s, err := NewSession(2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, err = s.Run(Config{Adversary: &panicky{left: 3}}, crashyBodies(2, 5))
		if err == nil {
			t.Fatal("adversary panic should fail the run")
		}
		if got, want := err.Error(), "sched: adversary panicked: adversary bug"; got != want {
			t.Fatalf("run error %q, want %q", got, want)
		}
		// The session must still work.
		res, err := s.Run(Config{Adversary: NewRoundRobin()}, crashyBodies(2, 3))
		if err != nil || res.NumDecided() != 2 {
			t.Fatalf("session unusable after adversary panic: %v %+v", err, res)
		}
	})
}

// TestSessionManyRunsStress reuses one session for a large number of short
// runs with rotating adversaries — the explorer's usage pattern in
// miniature.
func TestSessionManyRunsStress(t *testing.T) {
	s, err := NewSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 500; i++ {
		var adv Adversary
		switch i % 3 {
		case 0:
			adv = NewRoundRobin()
		case 1:
			adv = NewRandom(int64(i))
		default:
			adv = NewPlan(NewRoundRobin()).CrashAtStep(i%7, ProcID(i%3))
		}
		res, err := s.Run(Config{Adversary: adv, MaxCrashes: 3}, crashyBodies(3, 4))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.NumDecided()+res.Crashes != 3 {
			t.Fatalf("run %d: %d decided + %d crashed != 3", i, res.NumDecided(), res.Crashes)
		}
	}
}
