package object

import (
	"testing"
	"testing/quick"

	"mpcn/internal/sched"
)

// runOne runs a single-process body and fails the test on error.
func runOne(t *testing.T, body sched.Proc) {
	t.Helper()
	if _, err := sched.Run(sched.Config{}, []sched.Proc{body}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTestAndSetFirstWins(t *testing.T) {
	ts := NewTestAndSet("ts")
	runOne(t, func(e *sched.Env) {
		if !ts.TestAndSet(e) {
			panic("first caller must win")
		}
		if ts.TestAndSet(e) {
			panic("second call must lose")
		}
		e.Decide(0)
	})
}

func TestTestAndSetSingleWinnerConcurrent(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%5) + 2
		ts := NewTestAndSet("ts")
		winners := 0
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			bodies[i] = func(e *sched.Env) {
				if ts.TestAndSet(e) {
					winners++
				}
				e.Decide(0)
			}
		}
		if _, err := sched.Run(sched.Config{Seed: seed}, bodies); err != nil {
			return false
		}
		return winners == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]("q")
	runOne(t, func(e *sched.Env) {
		if _, ok := q.Dequeue(e); ok {
			panic("empty queue returned a value")
		}
		q.Enqueue(e, 1)
		q.Enqueue(e, 2)
		q.Enqueue(e, 3)
		for want := 1; want <= 3; want++ {
			v, ok := q.Dequeue(e)
			if !ok || v != want {
				panic("FIFO order violated")
			}
		}
		e.Decide(0)
	})
}

func TestQueueInit(t *testing.T) {
	q := NewQueue("q", "w", "l")
	runOne(t, func(e *sched.Env) {
		v, ok := q.Dequeue(e)
		if !ok || v != "w" {
			panic("init order violated")
		}
		e.Decide(0)
	})
}

func TestStackLIFO(t *testing.T) {
	s := NewStack[int]("s")
	runOne(t, func(e *sched.Env) {
		if _, ok := s.Pop(e); ok {
			panic("empty stack returned a value")
		}
		s.Push(e, 1)
		s.Push(e, 2)
		for want := 2; want >= 1; want-- {
			v, ok := s.Pop(e)
			if !ok || v != want {
				panic("LIFO order violated")
			}
		}
		e.Decide(0)
	})
}

func TestCompareAndSwap(t *testing.T) {
	c := NewCompareAndSwap("c", -1)
	runOne(t, func(e *sched.Env) {
		if !c.CompareAndSwap(e, -1, 7) {
			panic("CAS from initial value failed")
		}
		if c.CompareAndSwap(e, -1, 8) {
			panic("CAS with stale old succeeded")
		}
		if got := c.Read(e); got != 7 {
			panic("read after CAS wrong")
		}
		e.Decide(0)
	})
}

func TestXConsensusAgreementValidity(t *testing.T) {
	f := func(seed int64, rawX uint8) bool {
		x := int(rawX%5) + 1
		ids := make([]sched.ProcID, x)
		for i := range ids {
			ids[i] = sched.ProcID(i)
		}
		c := NewXConsensus("xc", x, ids)
		got := make([]any, x)
		bodies := make([]sched.Proc, x)
		for i := range bodies {
			i := i
			bodies[i] = func(e *sched.Env) {
				got[i] = c.Propose(e, i*10)
				e.Decide(got[i])
			}
		}
		res, err := sched.Run(sched.Config{Seed: seed}, bodies)
		if err != nil {
			return false
		}
		if res.DistinctDecided() != 1 {
			return false
		}
		v, ok := got[0].(int)
		return ok && v%10 == 0 && v/10 < x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestXConsensusPortViolation(t *testing.T) {
	c := NewXConsensus("xc", 2, []sched.ProcID{0, 1})
	bodies := []sched.Proc{
		func(e *sched.Env) { c.Propose(e, 1); e.Decide(0) },
		func(e *sched.Env) { c.Propose(e, 2); e.Decide(0) },
		func(e *sched.Env) { c.Propose(e, 3); e.Decide(0) }, // not a port
	}
	if _, err := sched.Run(sched.Config{}, bodies); err == nil {
		t.Fatal("port violation must surface as an error")
	}
}

func TestXConsensusDoubleProposePanics(t *testing.T) {
	c := NewXConsensus("xc", 2, nil)
	bodies := []sched.Proc{func(e *sched.Env) {
		c.Propose(e, 1)
		c.Propose(e, 2)
	}}
	if _, err := sched.Run(sched.Config{}, bodies); err == nil {
		t.Fatal("double propose must surface as an error")
	}
}

func TestXConsensusCapacityExceeded(t *testing.T) {
	// Unrestricted ports but capacity x=2: a third distinct proposer is a
	// model violation.
	c := NewXConsensus("xc", 2, nil)
	mk := func() sched.Proc {
		return func(e *sched.Env) { c.Propose(e, 0); e.Decide(0) }
	}
	if _, err := sched.Run(sched.Config{}, []sched.Proc{mk(), mk(), mk()}); err == nil {
		t.Fatal("capacity violation must surface as an error")
	}
}

func TestXConsensusTooManyPortsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("constructor accepted more ports than x")
		}
	}()
	NewXConsensus("xc", 1, []sched.ProcID{0, 1})
}

func TestMLSetAgreementBound(t *testing.T) {
	f := func(seed int64, rawM, rawL uint8) bool {
		m := int(rawM%6) + 1
		l := int(rawL)%m + 1
		o := NewMLSetAgreement("ml", m, l, nil)
		distinct := make(map[any]bool)
		proposed := make(map[any]bool)
		bodies := make([]sched.Proc, m)
		for i := range bodies {
			i := i
			bodies[i] = func(e *sched.Env) {
				proposed[i] = true
				v := o.Propose(e, i)
				distinct[v] = true
				e.Decide(v)
			}
		}
		if _, err := sched.Run(sched.Config{Seed: seed}, bodies); err != nil {
			return false
		}
		if len(distinct) > l {
			return false
		}
		for v := range distinct {
			if !proposed[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMLSetAgreementReachesBound(t *testing.T) {
	// With a round-robin schedule and l = m, every proposer keeps its own
	// value: the object really allows l distinct decisions.
	const m = 3
	o := NewMLSetAgreement("ml", m, m, nil)
	distinct := make(map[any]bool)
	bodies := make([]sched.Proc, m)
	for i := range bodies {
		i := i
		bodies[i] = func(e *sched.Env) {
			distinct[o.Propose(e, i)] = true
			e.Decide(0)
		}
	}
	if _, err := sched.Run(sched.Config{Adversary: sched.NewRoundRobin()}, bodies); err != nil {
		t.Fatal(err)
	}
	if len(distinct) != m {
		t.Fatalf("distinct = %d, want %d", len(distinct), m)
	}
}

func TestMLSetAgreementInvalidParams(t *testing.T) {
	for _, c := range []struct{ m, l int }{{0, 1}, {1, 0}, {2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMLSetAgreement(%d, %d) should panic", c.m, c.l)
				}
			}()
			NewMLSetAgreement("bad", c.m, c.l, nil)
		}()
	}
}

// TestCheckerSideAccessors covers the no-step accessors the exploration
// checkers read after a run completes: IsSet, Items (queue and stack, as
// copies) and Value.
func TestCheckerSideAccessors(t *testing.T) {
	ts := NewTestAndSet("ts")
	if ts.IsSet() {
		t.Fatal("fresh test&set reports set")
	}
	q := NewQueue[int]("q", 1, 2)
	s := NewStack[int]("s")
	c := NewCompareAndSwap[int]("c", 7)
	runOne(t, func(e *sched.Env) {
		ts.TestAndSet(e)
		q.Enqueue(e, 3)
		q.Dequeue(e)
		s.Push(e, 4)
		s.Push(e, 5)
		c.CompareAndSwap(e, 7, 9)
		e.Decide(0)
	})
	if !ts.IsSet() {
		t.Fatal("won test&set reports unset")
	}
	qi := q.Items()
	if len(qi) != 2 || qi[0] != 2 || qi[1] != 3 {
		t.Fatalf("queue Items = %v, want [2 3]", qi)
	}
	si := s.Items()
	if len(si) != 2 || si[0] != 4 || si[1] != 5 {
		t.Fatalf("stack Items = %v, want [4 5]", si)
	}
	if got := c.Value(); got != 9 {
		t.Fatalf("cas Value = %d, want 9", got)
	}
	// Items returns copies: mutating them must not corrupt the objects.
	qi[0] = 99
	si[0] = 99
	if q.Items()[0] != 2 || s.Items()[0] != 4 {
		t.Fatal("Items aliases internal state")
	}
}

// digest folds one object's fingerprint.
func digest(f sched.Fingerprinter) sched.Fingerprint {
	var h sched.FP
	f.Fingerprint(&h)
	return h.Sum()
}

func TestTestAndSetResetFingerprintsFresh(t *testing.T) {
	ts := NewTestAndSet("ts")
	fresh := digest(NewTestAndSet("ts"))
	runOne(t, func(e *sched.Env) {
		ts.TestAndSet(e)
		e.Decide(0)
	})
	if digest(ts) == fresh {
		t.Fatal("a won test&set fingerprints like a fresh one")
	}
	ts.Reset()
	if digest(ts) != fresh || ts.IsSet() {
		t.Fatal("reset test&set differs from a fresh one")
	}
}

func TestXConsensusResetFingerprintsFresh(t *testing.T) {
	ports := []sched.ProcID{0, 1}
	c := NewXConsensus("xc", 2, ports)
	fresh := digest(NewXConsensus("xc", 2, ports))
	run := func() {
		bodies := []sched.Proc{
			func(e *sched.Env) { e.Decide(c.Propose(e, "a")) },
			func(e *sched.Env) { e.Decide(c.Propose(e, "b")) },
		}
		if _, err := sched.Run(sched.Config{}, bodies); err != nil {
			t.Fatal(err)
		}
	}
	run()
	used := digest(c)
	if used == fresh {
		t.Fatal("a decided x-consensus fingerprints like a fresh one")
	}
	c.Reset()
	if digest(c) != fresh {
		t.Fatal("reset x-consensus fingerprints unlike a fresh one")
	}
	// Every port may propose again after a reset, and the same schedule
	// reaches the same state.
	run()
	if digest(c) != used {
		t.Fatal("a reset x-consensus diverged from its first run")
	}
}
