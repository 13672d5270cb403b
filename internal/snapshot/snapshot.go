// Package snapshot provides atomic snapshot objects over the sched runtime.
//
// The paper's shared memory mem[1..n] is a single-writer atomic snapshot
// object [Afek et al. 1993]: process j writes component j with
// mem[j].write(v) and any process atomically reads the whole array with
// mem.snapshot(). Two interchangeable implementations are provided:
//
//   - Primitive: Update and Scan are each a single atomic step. This matches
//     the paper, which takes snapshot objects as given primitives.
//   - Afek: the real wait-free construction from single-writer registers
//     (double collect with embedded views), demonstrating that the substrate
//     needs nothing stronger than read/write registers (consensus number 1).
//
// Upper layers accept the Snapshot interface, so every experiment can run on
// either implementation; bench_test.go compares them (ablation E12).
package snapshot

import (
	"fmt"

	"mpcn/internal/sched"
)

// Snapshot is an n-component atomic snapshot object.
type Snapshot[T any] interface {
	// Update atomically writes v to component i.
	Update(e *sched.Env, i int, v T)
	// Scan atomically reads all components and returns a fresh slice.
	Scan(e *sched.Env) []T
	// Len returns the number of components.
	Len() int
}

// Primitive is a snapshot object whose Update and Scan are single atomic
// steps, the granularity at which the paper's algorithms use mem. Step
// labels are interned at construction, so operations perform no per-step
// string work.
type Primitive[T any] struct {
	name    string
	updateL []sched.Label
	scanL   sched.Label
	cells   []T
}

var _ Snapshot[int] = (*Primitive[int])(nil)

// NewPrimitive returns an n-component primitive snapshot named name.
func NewPrimitive[T any](name string, n int) *Primitive[T] {
	if n <= 0 {
		panic(fmt.Sprintf("snapshot: %q must have positive size, got %d", name, n))
	}
	return &Primitive[T]{
		name:    name,
		updateL: sched.InternIndexed("%s[%d].update", name, n),
		scanL:   sched.Intern(name + ".scan"),
		cells:   make([]T, n),
	}
}

// Update implements Snapshot.
func (s *Primitive[T]) Update(e *sched.Env, i int, v T) {
	e.StepL(s.updateL[i])
	s.cells[i] = v
}

// Scan implements Snapshot.
func (s *Primitive[T]) Scan(e *sched.Env) []T {
	e.StepL(s.scanL)
	if e.Observing() {
		for i := range s.cells {
			sched.ObserveAt(e, &s.cells[i])
		}
	}
	out := make([]T, len(s.cells))
	copy(out, s.cells)
	return out
}

// ScanView is the zero-copy Scan for callers that consume the view before
// their next step: it returns the object's live component array. Between two
// steps no other process runs, so the cells cannot change under a caller that
// reads the view immediately; the slice must not be written, and is invalid
// after the caller's next step. Replay-engine hot paths use it to avoid the
// per-scan copy.
func (s *Primitive[T]) ScanView(e *sched.Env) []T {
	e.StepL(s.scanL)
	if e.Observing() {
		for i := range s.cells {
			sched.ObserveAt(e, &s.cells[i])
		}
	}
	return s.cells
}

// Reset clears every component to the zero value, returning the object to
// its freshly constructed state without re-interning any labels. Replay
// engines rebuild shared state millions of times; label interning was the
// dominant cost of construction.
func (s *Primitive[T]) Reset() {
	var zero T
	for i := range s.cells {
		s.cells[i] = zero
	}
}

// Len implements Snapshot.
func (s *Primitive[T]) Len() int { return len(s.cells) }

// Fingerprint implements sched.Fingerprinter: it folds the object's identity
// and every component in index order. Component i routes through digest lane
// i — snapshot components are per-process by construction (process i updates
// component i) — so the object canonicalizes under symmetry reduction; on a
// plain FP, Lane is the identity and the fold is the exact in-order fold.
func (s *Primitive[T]) Fingerprint(h *sched.FP) {
	h.Label(s.scanL)
	for i := range s.cells {
		sched.ValueAt(h.Lane(sched.ProcID(i)), &s.cells[i])
	}
}

// afekCell is one single-writer register of the Afek et al. construction:
// the value, the writer's sequence number, and the view embedded by the
// write's preceding scan.
type afekCell[T any] struct {
	val  T
	seq  int
	view []T
}

// Fingerprint implements sched.Fingerprinter so afekCell observations and
// state folds avoid the fmt fallback.
func (c afekCell[T]) Fingerprint(h *sched.FP) {
	h.Value(c.val)
	h.Int(c.seq)
	h.Int(len(c.view))
	for i := range c.view {
		h.Value(c.view[i])
	}
}

// Afek is the wait-free snapshot construction of Afek, Attiya, Dolev, Gafni,
// Merritt and Shavit (JACM 1993) built from single-writer multi-reader
// registers. A scanner double-collects until either two collects agree
// (a clean double collect linearizes between them) or some updater is seen
// to move twice, in which case the updater's second embedded view was
// obtained entirely within the scanner's interval and is borrowed.
type Afek[T any] struct {
	regs *regArray[T]
}

var _ Snapshot[int] = (*Afek[int])(nil)

// regArray is a minimal SWMR register array; each access is one step, with
// the per-cell labels interned at construction.
type regArray[T any] struct {
	name   string
	readL  []sched.Label
	writeL []sched.Label
	cells  []afekCell[T]
}

func (a *regArray[T]) read(e *sched.Env, i int) afekCell[T] {
	e.StepL(a.readL[i])
	sched.ObserveAt(e, &a.cells[i])
	return a.cells[i]
}

func (a *regArray[T]) write(e *sched.Env, i int, c afekCell[T]) {
	e.StepL(a.writeL[i])
	a.cells[i] = c
}

// NewAfek returns an n-component Afek-et-al snapshot named name.
func NewAfek[T any](name string, n int) *Afek[T] {
	if n <= 0 {
		panic(fmt.Sprintf("snapshot: %q must have positive size, got %d", name, n))
	}
	return &Afek[T]{regs: &regArray[T]{
		name:   name,
		readL:  sched.InternIndexed("%s[%d].read", name, n),
		writeL: sched.InternIndexed("%s[%d].write", name, n),
		cells:  make([]afekCell[T], n),
	}}
}

// Len implements Snapshot.
func (s *Afek[T]) Len() int { return len(s.regs.cells) }

// Fingerprint implements sched.Fingerprinter: it folds every underlying
// register — value, sequence number and embedded view — in index order.
func (s *Afek[T]) Fingerprint(h *sched.FP) {
	h.Label(s.regs.writeL[0])
	for i := range s.regs.cells {
		s.regs.cells[i].Fingerprint(h)
	}
}

// Update implements Snapshot: it embeds a fresh scan in the written cell so
// that concurrent scanners can borrow it.
func (s *Afek[T]) Update(e *sched.Env, i int, v T) {
	view := s.Scan(e)
	old := s.regs.cells[i] // the owner's own cell: safe to read locally
	s.regs.write(e, i, afekCell[T]{val: v, seq: old.seq + 1, view: view})
}

// Scan implements Snapshot.
func (s *Afek[T]) Scan(e *sched.Env) []T {
	n := len(s.regs.cells)
	moved := make([]int, n)
	prev := s.collect(e)
	for {
		cur := s.collect(e)
		if seqsEqual(prev, cur) {
			return values(cur)
		}
		for j := 0; j < n; j++ {
			if cur[j].seq != prev[j].seq {
				moved[j]++
				if moved[j] >= 2 {
					// j completed an entire Update inside our scan; its
					// embedded view is a linearizable snapshot within our
					// interval.
					out := make([]T, n)
					copy(out, cur[j].view)
					return out
				}
			}
		}
		prev = cur
	}
}

func (s *Afek[T]) collect(e *sched.Env) []afekCell[T] {
	out := make([]afekCell[T], len(s.regs.cells))
	for i := range out {
		out[i] = s.regs.read(e, i)
	}
	return out
}

func seqsEqual[T any](a, b []afekCell[T]) bool {
	for i := range a {
		if a[i].seq != b[i].seq {
			return false
		}
	}
	return true
}

func values[T any](cs []afekCell[T]) []T {
	out := make([]T, len(cs))
	for i, c := range cs {
		out[i] = c.val
	}
	return out
}
