package reg

// Weak-memory register backends: the same cell-array interface as Array, but
// under weaker consistency than atomicity. The explorer needs no new choice
// mechanism for them — every weak behaviour is encoded as extra scheduler
// steps, so the ordinary run/crash adversary already enumerates exactly the
// weak outcomes:
//
//   - Regular: a write is three steps (expose new → flick back to old →
//     commit). A read scheduled between them returns new-then-old, the
//     read inversion atomicity forbids but a regular register permits: a
//     read concurrent with a write may return either the old or the new
//     value, with no monotonicity across overlapping reads.
//   - TSO: writes go into a per-process FIFO store buffer (one step), reads
//     forward from the newest own-buffer entry for the cell before falling
//     back to memory, and an explicit Flush drains the buffer to memory one
//     step per entry. Store-load reordering (the SB litmus outcome r1=r2=0)
//     becomes reachable; single-cell reads of OTHER processes' writes stay
//     monotonic because the buffer drains in FIFO order.
//
// Step labels reuse the "name[i].op" scheme, so partial-order reduction
// stays sound unchanged: every backend step on cell i shares the label
// object "name[i]", and only ".read"-suffixed labels are read-only.
//
// Capabilities per backend: all three fingerprint (dedup-capable) and are
// prune-safe; only Atomic is symmetry-capable (the weak backends' extra
// state is not canonicalized by the orbit lanes' process permutation alone,
// so sessions must not declare Symmetric for them).

import (
	"fmt"

	"mpcn/internal/sched"
)

// Backend selects the memory model of a register array. The zero value is
// Atomic; the integer values index BackendNames, which is also the encoding
// the spec registry's string-domain "backend" parameter uses.
type Backend int

const (
	// Atomic is the multi-writer multi-reader atomic register of the paper's
	// base model: Array, unchanged.
	Atomic Backend = iota
	// Regular is Lamport's regular register: reads concurrent with a write
	// may return either the old or the new value.
	Regular
	// TSO is total-store-order: per-process store buffers with explicit
	// flush steps, as on x86.
	TSO
)

// BackendNames returns the backend names in encoding order (index i names
// Backend(i)) — the value list of the spec-level "backend" parameter.
func BackendNames() []string { return []string{"atomic", "regular", "tso"} }

// String implements fmt.Stringer.
func (b Backend) String() string {
	names := BackendNames()
	if b < 0 || int(b) >= len(names) {
		return fmt.Sprintf("Backend(%d)", int(b))
	}
	return names[b]
}

// SupportsSymmetry reports whether arrays of this backend canonicalize
// soundly under process-permutation symmetry reduction. Only Atomic does:
// the weak backends carry per-write transient state (flicker phase, store
// buffers) that the orbit fold does not canonicalize.
func (b Backend) SupportsSymmetry() bool { return b == Atomic }

// BackendArray is the backend-polymorphic register array: the Array API
// plus Flush, which drains buffered writes to memory (a no-op for the
// backends without buffers). All three implementations fingerprint their
// full abstract state, so state dedup is sound for every backend.
type BackendArray[T any] interface {
	Len() int
	Read(e *sched.Env, i int) T
	Write(e *sched.Env, i int, v T)
	Flush(e *sched.Env)
	Fingerprint(h *sched.FP)
}

// NewBackendArray returns an n-cell register array of backend b holding zero
// values. procs bounds the process IDs that will access the array (the TSO
// backend sizes its store buffers by it; the others ignore it). The Atomic
// case returns the plain *Array — same labels, same steps, byte-identical
// exploration trees to code constructing Array directly.
func NewBackendArray[T any](b Backend, name string, n, procs int) BackendArray[T] {
	switch b {
	case Atomic:
		return NewArray[T](name, n)
	case Regular:
		return NewRegularArray[T](name, n)
	case TSO:
		return NewTSOArray[T](name, n, procs)
	}
	panic(fmt.Sprintf("reg: unknown backend %d", int(b)))
}

// Flush implements BackendArray for the atomic backend: writes are visible
// at their single linearization step, so there is nothing to drain — no
// step, no state change.
func (a *Array[T]) Flush(e *sched.Env) {}

// RegularArray is an array of regular registers: each Write takes three
// scheduler steps — expose the new value, flick visibility back to the old
// value, commit — so a concurrent Read (which samples the visible value in
// one step) may observe new-then-old across the write, the inversion that
// distinguishes regular from atomic. Reads and writes of the same process
// never overlap, so the per-process sequential semantics are unchanged.
type RegularArray[T any] struct {
	name    string
	readL   []sched.Label
	writeL  []sched.Label
	flickL  []sched.Label
	commitL []sched.Label
	cells   []T // committed values
	visible []T // what a concurrent read returns right now
}

// NewRegularArray returns an n-cell regular register array of zero values.
func NewRegularArray[T any](name string, n int) *RegularArray[T] {
	if n <= 0 {
		panic(fmt.Sprintf("reg: array %q must have positive size, got %d", name, n))
	}
	return &RegularArray[T]{
		name:    name,
		readL:   sched.InternIndexed("%s[%d].read", name, n),
		writeL:  sched.InternIndexed("%s[%d].write", name, n),
		flickL:  sched.InternIndexed("%s[%d].flick", name, n),
		commitL: sched.InternIndexed("%s[%d].commit", name, n),
		cells:   make([]T, n),
		visible: make([]T, n),
	}
}

// Len returns the number of cells.
func (a *RegularArray[T]) Len() int { return len(a.cells) }

// Read samples the currently visible value of cell i in one step.
func (a *RegularArray[T]) Read(e *sched.Env, i int) T {
	e.StepL(a.readL[i])
	sched.ObserveAt(e, &a.visible[i])
	return a.visible[i]
}

// Write writes v to cell i in three steps: expose v, flick back to the
// committed old value, commit v. A crash between the steps leaves the cell
// at one of the two values — a write that either took effect or didn't,
// both legal outcomes of an incomplete regular write.
func (a *RegularArray[T]) Write(e *sched.Env, i int, v T) {
	old := a.cells[i]
	e.StepL(a.writeL[i])
	a.visible[i] = v
	e.StepL(a.flickL[i])
	a.visible[i] = old
	e.StepL(a.commitL[i])
	a.cells[i] = v
	a.visible[i] = v
}

// Flush implements BackendArray: regular registers buffer nothing.
func (a *RegularArray[T]) Flush(e *sched.Env) {}

// Fingerprint folds the array identity plus each cell's committed AND
// visible value — mid-write flicker states dedup apart from quiescent ones.
func (a *RegularArray[T]) Fingerprint(h *sched.FP) {
	h.Label(a.writeL[0])
	for i := range a.cells {
		t := h.Lane(sched.ProcID(i))
		sched.ValueAt(t, &a.cells[i])
		sched.ValueAt(t, &a.visible[i])
	}
}

// tsoEntry is one buffered store: the target cell and the value.
type tsoEntry[T any] struct {
	cell int
	v    T
}

// TSOArray is an array of registers under total store order: each process
// owns a FIFO store buffer. Write appends to the writer's buffer in one
// step; Read (one step) forwards from the newest own-buffer entry for the
// cell, falling back to memory; Flush drains the caller's buffer to memory,
// one step per entry, in FIFO order. A process that never flushes keeps its
// writes invisible to everyone else — harnesses decide where flushes go,
// and the adversary schedules the drain steps like any other.
type TSOArray[T any] struct {
	name   string
	readL  []sched.Label
	writeL []sched.Label
	flushL []sched.Label
	mem    []T
	buf    [][]tsoEntry[T] // per-process FIFO store buffers
}

// NewTSOArray returns an n-cell TSO register array of zero values with one
// store buffer per process ID in 0..procs-1.
func NewTSOArray[T any](name string, n, procs int) *TSOArray[T] {
	if n <= 0 {
		panic(fmt.Sprintf("reg: array %q must have positive size, got %d", name, n))
	}
	if procs <= 0 {
		panic(fmt.Sprintf("reg: TSO array %q needs a positive process bound, got %d", name, procs))
	}
	return &TSOArray[T]{
		name:   name,
		readL:  sched.InternIndexed("%s[%d].read", name, n),
		writeL: sched.InternIndexed("%s[%d].write", name, n),
		flushL: sched.InternIndexed("%s[%d].flush", name, n),
		mem:    make([]T, n),
		buf:    make([][]tsoEntry[T], procs),
	}
}

// Len returns the number of cells.
func (a *TSOArray[T]) Len() int { return len(a.mem) }

// Read reads cell i in one step: the newest own-buffer entry for the cell
// if any (store-to-load forwarding), otherwise memory.
func (a *TSOArray[T]) Read(e *sched.Env, i int) T {
	e.StepL(a.readL[i])
	buf := a.buf[e.ID()]
	for k := len(buf) - 1; k >= 0; k-- {
		if buf[k].cell == i {
			sched.ObserveAt(e, &buf[k].v)
			return buf[k].v
		}
	}
	sched.ObserveAt(e, &a.mem[i])
	return a.mem[i]
}

// Write appends (i, v) to the caller's store buffer in one step. The store
// reaches memory only when a Flush drains it.
func (a *TSOArray[T]) Write(e *sched.Env, i int, v T) {
	e.StepL(a.writeL[i])
	a.buf[e.ID()] = append(a.buf[e.ID()], tsoEntry[T]{cell: i, v: v})
}

// Flush drains the caller's store buffer to memory in FIFO order, one step
// per entry (labeled with the drained cell). An empty buffer takes no steps.
// A crash mid-flush leaves a prefix of the buffer applied — exactly the
// partial drain TSO permits.
func (a *TSOArray[T]) Flush(e *sched.Env) {
	me := e.ID()
	for len(a.buf[me]) > 0 {
		ent := a.buf[me][0]
		e.StepL(a.flushL[ent.cell])
		a.buf[me] = a.buf[me][1:]
		a.mem[ent.cell] = ent.v
	}
}

// Fingerprint folds the array identity, memory, and every store buffer in
// process order (length-prefixed, so buffer boundaries cannot alias).
func (a *TSOArray[T]) Fingerprint(h *sched.FP) {
	h.Label(a.writeL[0])
	for i := range a.mem {
		sched.ValueAt(h.Lane(sched.ProcID(i)), &a.mem[i])
	}
	for p := range a.buf {
		t := h.Lane(sched.ProcID(p))
		t.Int(len(a.buf[p]))
		for k := range a.buf[p] {
			t.Int(a.buf[p][k].cell)
			sched.ValueAt(t, &a.buf[p][k].v)
		}
	}
}
