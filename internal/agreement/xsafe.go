package agreement

import (
	"fmt"

	"mpcn/internal/mathx"
	"mpcn/internal/object"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// TAS abstracts the one-shot test&set objects used by x_compete, so the
// cascade can run either on primitive test&set objects or on test&set built
// from x-consensus objects (the [19] construction), as the ASM(n, t', x)
// model with x >= 2 provides. bench_test.go ablates the two.
type TAS interface {
	TestAndSet(e *sched.Env) bool
}

// TASProvider constructs the i-th test&set object of a cascade.
type TASProvider func(name string) TAS

// PrimitiveTAS is the default provider: a plain one-step test&set object.
func PrimitiveTAS(name string) TAS {
	return object.NewTestAndSet(name)
}

// XCompete implements the x_compete operation of Figure 5: a cascade of x
// one-shot test&set objects. At most x callers win; when at most x processes
// invoke it, every non-crashed invoker wins.
type XCompete struct {
	name string
	ts   []TAS
}

// NewXCompete returns an x-slot compete object using the given provider
// (nil means PrimitiveTAS).
func NewXCompete(name string, x int, provider TASProvider) *XCompete {
	if x < 1 {
		panic(fmt.Sprintf("agreement: XCompete %q needs x >= 1, got %d", name, x))
	}
	if provider == nil {
		provider = PrimitiveTAS
	}
	ts := make([]TAS, x)
	for i := range ts {
		ts[i] = provider(fmt.Sprintf("%s.TS[%d]", name, i))
	}
	return &XCompete{name: name, ts: ts}
}

// Fingerprint implements sched.Fingerprinter: every test&set of the cascade
// in order. The provider's objects must themselves be Fingerprinters (the
// primitive test&set and the hierarchy constructions are).
func (c *XCompete) Fingerprint(h *sched.FP) {
	for _, t := range c.ts {
		t.(sched.Fingerprinter).Fingerprint(h)
	}
}

// Reset returns every test&set of the cascade to unset. The provider's
// objects must implement Reset (the primitive test&set does).
func (c *XCompete) Reset() {
	for _, t := range c.ts {
		t.(interface{ Reset() }).Reset()
	}
}

// Compete runs the cascade (Figure 5) and reports whether the caller is one
// of the at most x winners.
func (c *XCompete) Compete(e *sched.Env) bool {
	for l := 0; l < len(c.ts); l++ { // lines 01-04
		if c.ts[l].TestAndSet(e) {
			return true
		}
	}
	return false
}

// xsagResult is a value written to the X_SAFE_AG register, which holds a
// pointer to one: nil is the initial ⊥. Each simulator writes at most once
// per run, so every object keeps one result cell per simulator and the
// register never boxes a fresh value, neither on a write nor when a read is
// observed or the register fingerprinted.
type xsagResult struct {
	v any
}

// Fingerprint implements sched.Fingerprinter so register contents hash
// without fmt formatting: whether the register was written, then the value
// (nil for ⊥).
func (r *xsagResult) Fingerprint(h *sched.FP) {
	var v any
	if r != nil {
		v = r.v
	}
	h.Bool(r != nil)
	h.Value(v)
}

// XSafeFactory builds x_safe_agreement objects for a fixed population of n
// simulators and consensus number x. It precomputes SET_LIST[1..m], the m =
// C(n, x) size-x subsets of simulators in lexicographic order — the common
// scan order all owners must follow (§4.3).
type XSafeFactory struct {
	n, x     int
	setList  [][]int
	provider TASProvider
}

// NewXSafeFactory returns a factory for n simulators and consensus number x
// (1 <= x <= n). provider selects the test&set implementation backing
// x_compete (nil means PrimitiveTAS).
func NewXSafeFactory(n, x int, provider TASProvider) *XSafeFactory {
	if x < 1 || x > n {
		panic(fmt.Sprintf("agreement: XSafeFactory needs 1 <= x <= n, got x=%d n=%d", x, n))
	}
	return &XSafeFactory{
		n:        n,
		x:        x,
		setList:  mathx.Subsets(n, x),
		provider: provider,
	}
}

// N returns the simulator population size.
func (f *XSafeFactory) N() int { return f.n }

// X returns the consensus number the factory's objects are built from.
func (f *XSafeFactory) X() int { return f.x }

// NumSubsets returns m = C(n, x), the length of SET_LIST.
func (f *XSafeFactory) NumSubsets() int { return len(f.setList) }

// New returns a fresh x_safe_agreement object.
func (f *XSafeFactory) New(name string) *XSafeAgreement {
	return &XSafeAgreement{
		name:     name,
		f:        f,
		compete:  NewXCompete(name+".X_T&S", f.x, f.provider),
		xcons:    make([]*object.XConsensus, len(f.setList)),
		touched:  make([]bool, len(f.setList)),
		result:   reg.New[*xsagResult](name + ".X_SAFE_AG"),
		cells:    make([]xsagResult, f.n),
		proposed: make(map[sched.ProcID]bool),
	}
}

// XSafeAgreement is the x_safe_agreement object type of Figure 6. Its
// termination property: if at most x-1 processes crash while executing
// Propose, every correct simulator that invokes Decide returns.
type XSafeAgreement struct {
	name     string
	f        *XSafeFactory
	compete  *XCompete
	xcons    []*object.XConsensus // lazily created, ports = SET_LIST[l]
	touched  []bool               // XCONS[l] accessed since the last Reset
	result   *reg.Register[*xsagResult]
	cells    []xsagResult // per-simulator result values, see xsagResult
	proposed map[sched.ProcID]bool
}

// Reset returns the object to its freshly constructed state without
// re-interning any step labels: the compete cascade, every consensus object
// created so far and the result register are reset, and the proposed set
// cleared. The consensus objects stay allocated for the next run, but one
// not yet accessed in the run fingerprints as never created, so a reset
// object digests exactly like a fresh one.
func (xs *XSafeAgreement) Reset() {
	xs.compete.Reset()
	for _, c := range xs.xcons {
		if c != nil {
			c.Reset()
		}
	}
	clear(xs.touched)
	xs.result.Reset()
	clear(xs.cells)
	clear(xs.proposed)
}

// consAt returns XCONS[l], creating it on first access with ports
// SET_LIST[l], and marks it accessed in this run. Lazy creation is safe
// under the serialized runtime and avoids allocating all C(n, x) objects for
// instances that only ever see one owner set.
func (xs *XSafeAgreement) consAt(l int) *object.XConsensus {
	if xs.xcons[l] == nil {
		sub := xs.f.setList[l]
		ids := make([]sched.ProcID, len(sub))
		for i, p := range sub {
			ids[i] = sched.ProcID(p)
		}
		xs.xcons[l] = object.NewXConsensus(
			fmt.Sprintf("%s.XCONS[%d]", xs.name, l), xs.f.x, ids)
	}
	xs.touched[l] = true
	return xs.xcons[l]
}

// Fingerprint implements sched.Fingerprinter: the compete cascade, the
// consensus objects accessed in this run (slot by slot; the others fold as
// a zero word), the result register and the proposed set.
func (xs *XSafeAgreement) Fingerprint(h *sched.FP) {
	xs.compete.Fingerprint(h)
	for l, c := range xs.xcons {
		if !xs.touched[l] {
			h.Word(0)
			continue
		}
		c.Fingerprint(h)
	}
	xs.result.Fingerprint(h)
	h.ProcSet(xs.proposed)
}

// Propose proposes v (Figure 6, lines 01-08). The caller first competes for
// ownership; a non-owner returns immediately (at least x others proposed,
// and x of them own the object). An owner funnels its value through the
// consensus objects of every subset containing it, in the common
// lexicographic order, and finally writes the result register.
func (xs *XSafeAgreement) Propose(e *sched.Env, v any) {
	if v == nil {
		panic(fmt.Sprintf("agreement: nil proposal to %s", xs.name))
	}
	id := e.ID()
	if int(id) >= xs.f.n {
		panic(fmt.Sprintf("agreement: simulator %d outside population %d of %s", id, xs.f.n, xs.name))
	}
	if xs.proposed[id] {
		panic(fmt.Sprintf("agreement: simulator %d proposed twice to %s", id, xs.name))
	}
	xs.proposed[id] = true

	if !xs.compete.Compete(e) { // line 01
		return
	}
	res := v // line 03
	for l := range xs.f.setList {
		if mathx.Contains(xs.f.setList[l], int(id)) { // lines 04-06
			res = xs.consAt(l).Propose(e, res)
		}
	}
	out := &xs.cells[id]
	out.v = res
	xs.result.Write(e, out) // line 07
}

// TryDecide performs one probe of the decide wait (Figure 6, line 09): it
// returns (value, true) once the result register is written.
func (xs *XSafeAgreement) TryDecide(e *sched.Env) (any, bool) {
	r := xs.result.Read(e)
	if r == nil {
		return nil, false
	}
	return r.v, true
}

// Decide spins until the result register is written (Figure 6, lines 09-10).
// Simulator threads should use TryDecide and yield between probes.
func (xs *XSafeAgreement) Decide(e *sched.Env) any {
	for {
		if v, ok := xs.TryDecide(e); ok {
			return v
		}
	}
}
