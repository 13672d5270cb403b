package reg

import (
	"testing"
	"testing/quick"

	"mpcn/internal/sched"
)

func TestRegisterReadWrite(t *testing.T) {
	r := NewWith("r", 41)
	body := func(e *sched.Env) {
		if got := r.Read(e); got != 41 {
			panic("initial value lost")
		}
		r.Write(e, 42)
		if got := r.Read(e); got != 42 {
			panic("write lost")
		}
		e.Decide(0)
	}
	res, err := sched.Run(sched.Config{}, []sched.Proc{body})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Outcomes[0].Steps != 3 {
		t.Fatalf("steps = %d, want 3 (one per register access)", res.Outcomes[0].Steps)
	}
}

func TestRegisterZeroValue(t *testing.T) {
	r := New[string]("s")
	body := func(e *sched.Env) {
		if got := r.Read(e); got != "" {
			panic("zero value expected")
		}
		e.Decide(0)
	}
	if _, err := sched.Run(sched.Config{}, []sched.Proc{body}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayReadWriteCollect(t *testing.T) {
	a := NewArray[int]("a", 4)
	if a.Len() != 4 {
		t.Fatalf("Len = %d, want 4", a.Len())
	}
	body := func(e *sched.Env) {
		for i := 0; i < 4; i++ {
			a.Write(e, i, i*i)
		}
		got := a.Collect(e)
		for i, v := range got {
			if v != i*i {
				panic("collect mismatch")
			}
		}
		if got2 := a.Read(e, 3); got2 != 9 {
			panic("read mismatch")
		}
		e.Decide(0)
	}
	if _, err := sched.Run(sched.Config{}, []sched.Proc{body}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayWithInit(t *testing.T) {
	a := NewArrayWith("a", 3, -1)
	body := func(e *sched.Env) {
		for _, v := range a.Collect(e) {
			if v != -1 {
				panic("init value missing")
			}
		}
		e.Decide(0)
	}
	if _, err := sched.Run(sched.Config{}, []sched.Proc{body}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray accepted size 0")
		}
	}()
	NewArray[int]("bad", 0)
}

// TestQuickLastWriterWins checks that under arbitrary interleavings a MWMR
// register always returns the most recently written value: each writer spins
// writing its ID and finally a reader observes some writer's ID.
func TestQuickLastWriterWins(t *testing.T) {
	f := func(seed int64, rawW uint8) bool {
		writers := int(rawW%4) + 1
		r := NewWith("r", -1)
		bodies := make([]sched.Proc, writers+1)
		for w := 0; w < writers; w++ {
			w := w
			bodies[w] = func(e *sched.Env) {
				for k := 0; k < 5; k++ {
					r.Write(e, w)
				}
				e.Decide(0)
			}
		}
		seen := -2
		bodies[writers] = func(e *sched.Env) {
			seen = r.Read(e)
			e.Decide(0)
		}
		if _, err := sched.Run(sched.Config{Seed: seed}, bodies); err != nil {
			return false
		}
		return seen == -1 || (seen >= 0 && seen < writers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterResetFingerprintsFresh(t *testing.T) {
	digest := func(r *Register[int]) sched.Fingerprint {
		var h sched.FP
		r.Fingerprint(&h)
		return h.Sum()
	}
	for _, mk := range []func() *Register[int]{
		func() *Register[int] { return New[int]("rr") },
		func() *Register[int] { return NewWith("rr", 41) },
	} {
		r := mk()
		fresh := digest(mk())
		if _, err := sched.Run(sched.Config{}, []sched.Proc{func(e *sched.Env) {
			r.Write(e, 7)
			e.Decide(0)
		}}); err != nil {
			t.Fatal(err)
		}
		if digest(r) == fresh {
			t.Fatal("a written register fingerprints like a fresh one")
		}
		r.Reset()
		if digest(r) != fresh {
			t.Fatalf("reset register (value %d) fingerprints unlike a fresh one", r.v)
		}
	}
}
