package bg

// Lifecycle of the simulated threads: each is a coroutine nested inside its
// simulator's body, so every way a simulator's body ends (a usable
// decision, a foreign panic in a thread, a crash of the simulator while it
// performs a thread's step) must reap every thread it created.

import (
	"strings"
	"testing"

	"mpcn/internal/algorithms"
	"mpcn/internal/sched"
	"mpcn/internal/tasks"
)

// runSimulation runs alg over 3 simulated processes on the given number of
// simulators with safe_agreement.
func runSimulation(t *testing.T, alg algorithms.Algorithm, simulators int, cfg sched.Config) (*Result, error) {
	t.Helper()
	run, err := New(Config{
		Alg:          alg,
		Inputs:       tasks.DistinctInputs(3),
		Simulators:   simulators,
		SourceX:      1,
		NewAgreement: SafeAgreementProvider(simulators),
		Sched:        cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run.Run()
}

// TestNeverStartedThreadReaped: a simulator that decides on its first
// thread's decision reaps its other threads without running them.
func TestNeverStartedThreadReaped(t *testing.T) {
	started := make([]bool, 3)
	alg := misbehavingAlg{
		name: "first-decides",
		run: func(api algorithms.API) {
			started[api.ID()] = true
			api.Decide(api.Input())
		},
	}
	res, err := runSimulation(t, alg, 1, sched.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClaimedProc[0] != 0 {
		t.Fatalf("simulator claimed process %d, want 0", res.ClaimedProc[0])
	}
	if !started[0] || started[1] || started[2] {
		t.Fatalf("started = %v, want only thread 0 to have run", started)
	}
}

// TestThreadForeignPanicFailsRun: a panic in a simulated thread, before or
// after its first shared step, surfaces as the run error with its message.
func TestThreadForeignPanicFailsRun(t *testing.T) {
	for _, afterStep := range []bool{false, true} {
		alg := misbehavingAlg{
			name: "panics",
			run: func(api algorithms.API) {
				if afterStep {
					api.Write(api.Input())
				}
				if api.ID() == 1 {
					panic("simulated process blew up")
				}
				for {
					api.Write(api.Input())
				}
			},
		}
		_, err := runSimulation(t, alg, 2, sched.Config{Seed: 3})
		if err == nil || !strings.Contains(err.Error(), "simulated process blew up") {
			t.Fatalf("afterStep=%v: run error %v, want the thread's panic message", afterStep, err)
		}
	}
}

// TestCrashWithPendingRequestReapsThreads: the adversary crashes simulator
// 0 while it is parked on a MEM update one of its threads requested. The
// crash unwinds the simulator, which stops every thread it started; the
// threads' deferred exits all run.
func TestCrashWithPendingRequestReapsThreads(t *testing.T) {
	started, exited := 0, 0
	alg := misbehavingAlg{
		name: "write-snapshot",
		run: func(api algorithms.API) {
			started++
			defer func() { exited++ }()
			api.Write(api.Input())
			api.Decide(api.Snapshot()[api.ID()])
		},
	}
	adv := sched.NewPlan(sched.NewRoundRobin()).CrashOnLabel(0, "MEM[0].update", 2)
	res, err := runSimulation(t, alg, 2, sched.Config{Adversary: adv, MaxCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Sched.Outcomes[0]
	if o.Status != sched.StatusCrashed || o.LastLabel.String() != "MEM[0].update" {
		t.Fatalf("simulator 0: %+v, want crashed on its pending MEM update", o)
	}
	if started < 2 || exited != started {
		t.Fatalf("%d threads started, %d exited: want every started thread reaped", started, exited)
	}
}
