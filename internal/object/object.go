// Package object implements the shared objects of Herlihy's hierarchy used
// by the ASM(n, t, x) model: test&set, queues, stacks and compare&swap as
// consensus-number exhibits, x-ported consensus objects (the paper's
// "objects with consensus number x"), and the (m, ℓ)-set agreement objects of
// the related work (§1.3).
//
// Every operation is a single atomic step of the sched runtime. Objects that
// the model restricts to x statically-chosen processes enforce their port
// sets: accessing an x-ported object from an unregistered process panics,
// because it is a programming error in the experiment, not a run-time
// condition of the model.
package object

import (
	"fmt"

	"mpcn/internal/sched"
)

// ports guards an object whose access is restricted to a static set of
// processes, as the paper requires for consensus-number-x objects.
type ports struct {
	name    string
	allowed map[sched.ProcID]bool // nil means unrestricted
}

func newPorts(name string, ids []sched.ProcID, max int) ports {
	if ids == nil {
		return ports{name: name}
	}
	if len(ids) > max {
		panic(fmt.Sprintf("object: %s declares %d ports, limit %d", name, len(ids), max))
	}
	m := make(map[sched.ProcID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return ports{name: name, allowed: m}
}

func (p *ports) check(id sched.ProcID) {
	if p.allowed != nil && !p.allowed[id] {
		panic(fmt.Sprintf("object: process %d is not a port of %s", id, p.name))
	}
}

// TestAndSet is a one-shot test&set object (consensus number 2). The first
// invocation returns true ("winner"); all later invocations return false.
type TestAndSet struct {
	name string
	tasL sched.Label
	set  bool
}

// NewTestAndSet returns a fresh one-shot test&set object.
func NewTestAndSet(name string) *TestAndSet {
	return &TestAndSet{name: name, tasL: sched.Intern(name + ".test&set")}
}

// Fingerprint implements sched.Fingerprinter.
func (t *TestAndSet) Fingerprint(h *sched.FP) {
	h.Label(t.tasL)
	h.Bool(t.set)
}

// Reset returns the object to its unset state, keeping its interned label.
func (t *TestAndSet) Reset() { t.set = false }

// IsSet reports whether the object has been won. It is a harness/checker-side
// accessor: it takes no scheduling step and must not be called from process
// bodies mid-run.
func (t *TestAndSet) IsSet() bool { return t.set }

// TestAndSet atomically sets the object and reports whether the caller won.
func (t *TestAndSet) TestAndSet(e *sched.Env) bool {
	e.StepL(t.tasL)
	won := !t.set
	t.set = true
	sched.Observe(e, won)
	return won
}

// Queue is an atomic FIFO queue (consensus number 2).
type Queue[T any] struct {
	name     string
	enqueueL sched.Label
	dequeueL sched.Label
	items    []T
}

// NewQueue returns a queue initialized with the given items (front first).
func NewQueue[T any](name string, init ...T) *Queue[T] {
	items := make([]T, len(init))
	copy(items, init)
	return &Queue[T]{
		name:     name,
		enqueueL: sched.Intern(name + ".enqueue"),
		dequeueL: sched.Intern(name + ".dequeue"),
		items:    items,
	}
}

// Enqueue atomically appends v.
func (q *Queue[T]) Enqueue(e *sched.Env, v T) {
	e.StepL(q.enqueueL)
	q.items = append(q.items, v)
}

// Fingerprint implements sched.Fingerprinter: identity plus the queued items
// front to back.
func (q *Queue[T]) Fingerprint(h *sched.FP) {
	h.Label(q.enqueueL)
	h.Int(len(q.items))
	for i := range q.items {
		h.Value(q.items[i])
	}
}

// Items returns a copy of the queued items, front first. It is a
// harness/checker-side accessor (e.g. for element-conservation checks): it
// takes no scheduling step and must not be called from process bodies
// mid-run.
func (q *Queue[T]) Items() []T {
	return append([]T(nil), q.items...)
}

// Dequeue atomically removes and returns the front item; ok is false when
// the queue is empty.
func (q *Queue[T]) Dequeue(e *sched.Env) (v T, ok bool) {
	e.StepL(q.dequeueL)
	if len(q.items) == 0 {
		sched.Observe(e, false)
		return v, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	sched.Observe(e, true)
	sched.Observe(e, v)
	return v, true
}

// Stack is an atomic LIFO stack (consensus number 2).
type Stack[T any] struct {
	name  string
	pushL sched.Label
	popL  sched.Label
	items []T
}

// NewStack returns a stack initialized with the given items (bottom first).
func NewStack[T any](name string, init ...T) *Stack[T] {
	items := make([]T, len(init))
	copy(items, init)
	return &Stack[T]{
		name:  name,
		pushL: sched.Intern(name + ".push"),
		popL:  sched.Intern(name + ".pop"),
		items: items,
	}
}

// Push atomically pushes v.
func (s *Stack[T]) Push(e *sched.Env, v T) {
	e.StepL(s.pushL)
	s.items = append(s.items, v)
}

// Fingerprint implements sched.Fingerprinter: identity plus the stacked
// items bottom to top.
func (s *Stack[T]) Fingerprint(h *sched.FP) {
	h.Label(s.pushL)
	h.Int(len(s.items))
	for i := range s.items {
		h.Value(s.items[i])
	}
}

// Items returns a copy of the stacked items, bottom first. It is a
// harness/checker-side accessor (e.g. for element-conservation checks): it
// takes no scheduling step and must not be called from process bodies
// mid-run.
func (s *Stack[T]) Items() []T {
	return append([]T(nil), s.items...)
}

// Pop atomically removes and returns the top item; ok is false when the
// stack is empty.
func (s *Stack[T]) Pop(e *sched.Env) (v T, ok bool) {
	e.StepL(s.popL)
	if len(s.items) == 0 {
		sched.Observe(e, false)
		return v, false
	}
	v = s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	sched.Observe(e, true)
	sched.Observe(e, v)
	return v, true
}

// CompareAndSwap is an atomic compare&swap register (consensus number ∞).
type CompareAndSwap[T comparable] struct {
	name  string
	readL sched.Label
	casL  sched.Label
	v     T
}

// NewCompareAndSwap returns a CAS register initialized to init.
func NewCompareAndSwap[T comparable](name string, init T) *CompareAndSwap[T] {
	return &CompareAndSwap[T]{
		name:  name,
		readL: sched.Intern(name + ".read"),
		casL:  sched.Intern(name + ".cas"),
		v:     init,
	}
}

// Read atomically reads the register.
func (c *CompareAndSwap[T]) Read(e *sched.Env) T {
	e.StepL(c.readL)
	sched.Observe(e, c.v)
	return c.v
}

// Value returns the register's current content. It is a harness/checker-side
// accessor (e.g. for lost-update checks): it takes no scheduling step and
// must not be called from process bodies mid-run — bodies read via Read.
func (c *CompareAndSwap[T]) Value() T { return c.v }

// Fingerprint implements sched.Fingerprinter.
func (c *CompareAndSwap[T]) Fingerprint(h *sched.FP) {
	h.Label(c.casL)
	h.Value(c.v)
}

// CompareAndSwap atomically replaces old with new and reports success.
func (c *CompareAndSwap[T]) CompareAndSwap(e *sched.Env, old, new T) bool {
	e.StepL(c.casL)
	if c.v != old {
		sched.Observe(e, false)
		return false
	}
	c.v = new
	sched.Observe(e, true)
	return true
}

// XConsensus is an object with consensus number x: a one-shot consensus
// object accessible by at most x statically-declared processes (the paper's
// x_cons objects, §2.3). Each port may propose at most once; the first
// proposal to take a step wins.
type XConsensus struct {
	ports    ports
	propL    sched.Label
	x        int
	decided  bool
	value    any
	proposed map[sched.ProcID]bool
}

// NewXConsensus returns an x-ported consensus object. portIDs lists the
// processes allowed to access it; nil leaves the object unrestricted (used
// when port discipline is enforced by a higher layer, e.g. dynamically-owned
// objects). len(portIDs) must not exceed x.
func NewXConsensus(name string, x int, portIDs []sched.ProcID) *XConsensus {
	if x < 1 {
		panic(fmt.Sprintf("object: XConsensus %q needs x >= 1, got %d", name, x))
	}
	return &XConsensus{
		ports:    newPorts(name, portIDs, x),
		propL:    sched.Intern(name + ".x_cons_propose"),
		x:        x,
		proposed: make(map[sched.ProcID]bool),
	}
}

// Reset returns the object to its freshly constructed state — undecided,
// with no port proposed — keeping its label and port set, so replay engines
// can reuse one object across runs.
func (c *XConsensus) Reset() {
	c.decided, c.value = false, nil
	clear(c.proposed)
}

// X returns the object's consensus number (its port capacity).
func (c *XConsensus) X() int { return c.x }

// Fingerprint implements sched.Fingerprinter: identity, decision state and
// the (unordered) set of ports that already proposed.
func (c *XConsensus) Fingerprint(h *sched.FP) {
	h.Label(c.propL)
	h.Bool(c.decided)
	h.Value(c.value)
	h.ProcSet(c.proposed)
}

// Propose proposes v and returns the object's decided value. It panics when
// called from a non-port process or twice from the same process: both are
// violations of the model's static-port, one-shot discipline.
func (c *XConsensus) Propose(e *sched.Env, v any) any {
	id := e.ID()
	c.ports.check(id)
	if c.proposed[id] {
		panic(fmt.Sprintf("object: process %d proposed twice to %s", id, c.ports.name))
	}
	c.proposed[id] = true
	if len(c.proposed) > c.x {
		panic(fmt.Sprintf("object: %s accessed by %d processes, consensus number %d",
			c.ports.name, len(c.proposed), c.x))
	}
	e.StepL(c.propL)
	if !c.decided {
		c.decided = true
		c.value = v
	}
	sched.Observe(e, c.value)
	return c.value
}

// MLSetAgreement is an (m, ℓ)-set agreement object: it solves ℓ-set
// agreement among at most m processes (§1.3). At most ℓ distinct values are
// ever returned; each returned value was proposed.
type MLSetAgreement struct {
	ports   ports
	propL   sched.Label
	m, l    int
	decided []any
	seen    map[sched.ProcID]bool
}

// NewMLSetAgreement returns an (m, l)-set agreement object restricted to
// portIDs (nil = unrestricted, capacity still m).
func NewMLSetAgreement(name string, m, l int, portIDs []sched.ProcID) *MLSetAgreement {
	if m < 1 || l < 1 || l > m {
		panic(fmt.Sprintf("object: MLSetAgreement %q needs 1 <= l <= m, got (%d, %d)", name, m, l))
	}
	return &MLSetAgreement{
		ports: newPorts(name, portIDs, m),
		propL: sched.Intern(name + ".ml_propose"),
		m:     m,
		l:     l,
		seen:  make(map[sched.ProcID]bool),
	}
}

// Fingerprint implements sched.Fingerprinter: identity, the decided values
// in decision order (later proposers are served by index into this list, so
// the order is semantically relevant) and the set of proposers seen.
func (o *MLSetAgreement) Fingerprint(h *sched.FP) {
	h.Label(o.propL)
	h.Int(len(o.decided))
	for _, v := range o.decided {
		h.Value(v)
	}
	h.ProcSet(o.seen)
}

// Propose proposes v and returns one of at most ℓ decided values. The object
// adversarially maximizes disagreement: it keeps admitting new distinct
// values until ℓ are decided.
func (o *MLSetAgreement) Propose(e *sched.Env, v any) any {
	id := e.ID()
	o.ports.check(id)
	if o.seen[id] {
		panic(fmt.Sprintf("object: process %d proposed twice to %s", id, o.ports.name))
	}
	o.seen[id] = true
	if len(o.seen) > o.m {
		panic(fmt.Sprintf("object: %s accessed by %d processes, capacity %d",
			o.ports.name, len(o.seen), o.m))
	}
	e.StepL(o.propL)
	var out any
	if len(o.decided) < o.l {
		o.decided = append(o.decided, v)
		out = v
	} else {
		// Spread returned values across the decided set to keep disagreement
		// maximal while staying deterministic.
		out = o.decided[len(o.seen)%len(o.decided)]
	}
	sched.Observe(e, out)
	return out
}
