package sched

import (
	"fmt"
	"sync"
)

// Fingerprint is a 128-bit canonical digest of a run state, computed at a
// decision boundary (every process parked or finished, no step in flight).
// Replay engines use fingerprints to recognize that two different decision
// prefixes converged on the same state and to cut off the redundant subtree,
// turning the decision *tree* into a state *graph* (SPIN/TLA-style state
// hashing). Two states with equal fingerprints are treated as identical; at
// 128 bits the collision probability over even billions of states is
// negligible, but — as in every hashing checker — not zero.
type Fingerprint struct {
	Hi, Lo uint64
}

// FP accumulates a Fingerprint from a sequence of words. The zero value is
// ready to use; feed state through the typed helpers and call Sum. The
// accumulation is order-sensitive: callers that need a canonical digest must
// fold state in a canonical order (or combine per-element digests
// commutatively — see Mix — for genuinely unordered collections such as
// maps).
//
// The zero FP is a plain value (two words, no heap state): hashing allocates
// nothing as long as the values folded are label IDs, integers, booleans,
// []any views of those, and Fingerprinter cells folded in place (ValueAt).
//
// NewOrbitFP builds an FP in orbit-canonical mode: it additionally carries
// one digest lane per process, and Sum folds the lane digests in sorted
// order, so state that reaches the hash through the lanes is canonical under
// process permutation (symmetry reduction). Everything folded into the root
// FP stays order-sensitive, which is where asymmetric state (partial-order
// context, rank-keyed structures) belongs. In plain mode Lane returns the
// root and Sub returns a zero FP, so symmetry-aware fold code is byte-exact
// with the pre-orbit fold when run on a plain FP.
type FP struct {
	a, b uint64
	orb  *orbit
}

// orbit is the heap side of an orbit-mode FP: the canonicalization hook, the
// per-process digest lanes (root only), and reusable scratch. Lanes and the
// Sub carrier share the root's canon so value canonicalization applies
// uniformly wherever harness state is folded.
type orbit struct {
	canon func(any) any
	owner ProcID        // lane's process; -1 on the root and the Sub carrier
	lanes []FP          // root only: one digest lane per process
	subs  []orbit       // root only: backing storage for the lanes' orbits
	sums  []Fingerprint // root only: scratch for Sum's sorted lane fold
	sub   *orbit        // canon-only carrier handed out by Sub
}

// NewOrbitFP returns an FP in orbit-canonical mode with n per-process digest
// lanes. canon, when non-nil, is applied to every value folded through Value
// (on the root, the lanes and Sub carriers alike) before hashing — the hook
// sessions use to erase value parameterizations that differ only by process
// identity (e.g. per-process proposal values). Orbit FPs are reusable via
// Reset; they are not safe for concurrent use.
func NewOrbitFP(n int, canon func(any) any) *FP {
	if n <= 0 {
		panic(fmt.Sprintf("sched: NewOrbitFP needs a positive lane count, got %d", n))
	}
	carrier := &orbit{canon: canon, owner: -1}
	carrier.sub = carrier
	orb := &orbit{
		canon: canon,
		owner: -1,
		lanes: make([]FP, n),
		subs:  make([]orbit, n),
		sums:  make([]Fingerprint, 0, n),
		sub:   carrier,
	}
	for i := range orb.subs {
		orb.subs[i] = orbit{canon: canon, owner: ProcID(i), sub: carrier}
		orb.lanes[i] = FP{orb: &orb.subs[i]}
	}
	return &FP{orb: orb}
}

// Symmetric reports whether the FP is in orbit-canonical mode.
func (h *FP) Symmetric() bool { return h.orb != nil }

// Lanes returns the per-process lane count (0 in plain mode).
func (h *FP) Lanes() int {
	if h.orb == nil {
		return 0
	}
	return len(h.orb.lanes)
}

// Lane returns the digest lane of process id. In plain mode — and for ids
// outside the lane range, such as object cells beyond the process count — it
// returns the root FP itself, so fold code written against Lane degrades to
// the exact plain in-order fold when symmetry is off.
func (h *FP) Lane(id ProcID) *FP {
	if h.orb == nil || id < 0 || int(id) >= len(h.orb.lanes) {
		return h
	}
	return &h.orb.lanes[id]
}

// Sub returns a fresh sub-accumulator for per-element digests (the Mix
// multiset idiom): a zero FP in plain mode, and a zero-state FP carrying the
// orbit's canon hook in orbit mode, so element values canonicalize exactly
// like top-level ones. The returned FP shares no digest state with h.
func (h *FP) Sub() FP {
	if h.orb == nil {
		return FP{}
	}
	return FP{orb: h.orb.sub}
}

// Reset clears the accumulated digest (root and all lanes), keeping the
// orbit configuration, so one orbit FP can be reused across fingerprints.
func (h *FP) Reset() {
	h.a, h.b = 0, 0
	if h.orb != nil {
		for i := range h.orb.lanes {
			h.orb.lanes[i].a, h.orb.lanes[i].b = 0, 0
		}
	}
}

// mixing constants: splitmix64 / murmur3 finalizer multipliers and the
// 64-bit golden ratio.
const (
	fpM1     = 0xff51afd7ed558ccd
	fpM2     = 0xc4ceb9fe1a85ec53
	fpGolden = 0x9e3779b97f4a7c15
)

// Mix is a 64-bit finalizer (murmur3-style avalanche). It is exported so
// harnesses can combine per-element digests of unordered collections
// commutatively: sum (or xor) Mix-ed element digests, then fold the total
// into the FP with Word.
func Mix(z uint64) uint64 {
	z ^= z >> 33
	z *= fpM1
	z ^= z >> 29
	z *= fpM2
	z ^= z >> 32
	return z
}

// Word folds one 64-bit word. The two lanes use decorrelated update
// functions so the pair behaves like a 128-bit digest.
func (h *FP) Word(v uint64) {
	h.a = Mix(h.a ^ v)
	h.b = Mix(h.b + fpGolden + v*fpM1)
}

// Int folds an int.
func (h *FP) Int(v int) { h.Word(uint64(v)) }

// Bool folds a boolean.
func (h *FP) Bool(v bool) {
	if v {
		h.Word(1)
	} else {
		h.Word(0)
	}
}

// Label folds an interned step label by identity. Labels are stable for the
// process lifetime, so this is the allocation-free way to fold object
// identities (objects intern their labels at construction).
func (h *FP) Label(l Label) { h.Word(uint64(uint32(l))) }

// String folds a string (length-prefixed, so concatenations cannot collide).
func (h *FP) String(s string) {
	h.Word(uint64(len(s)))
	var w uint64
	n := 0
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if n++; n == 8 {
			h.Word(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h.Word(w)
	}
}

// type tags keep differently-typed values from colliding in Value.
const (
	fpTagNil uint64 = iota + 0x51
	fpTagBool
	fpTagInt
	fpTagUint
	fpTagString
	fpTagLabel
	fpTagProc
	fpTagOther
	fpTagOwnCell
	fpTagSlice
)

// SymLabel folds an interned label the way a symmetric per-process lane
// needs it: when the label is a per-cell operation (interned via
// InternIndexed) and the cell index equals the lane's own process, the fold
// replaces the concrete index with the family's base label plus an "own
// cell" marker, so two processes parked on their own cell of the same object
// hash identically up to permutation. Every other label — unindexed
// operations, and cells of OTHER processes — folds raw: a raw foreign index
// keeps the canonicalization conservative (two states merge only when their
// cross-process references literally coincide), which can under-merge but
// never unsoundly over-merge. On a plain FP, SymLabel is exactly Label.
func (h *FP) SymLabel(l Label) {
	if h.orb != nil && h.orb.owner >= 0 {
		if base, idx, ok := IndexedLabel(l); ok && ProcID(idx) == h.orb.owner {
			h.Word(fpTagOwnCell)
			h.Label(base)
			return
		}
	}
	h.Label(l)
}

// Value folds a dynamically-typed value, as stored in registers, snapshots
// and decision logs. Common scalar types fold without allocation; a []any
// (a snapshot view, as BG's simulated snapshots return) folds as a type tag,
// its length and each element through Value; values implementing
// Fingerprinter fold themselves. Every value a registered spec observes or
// fingerprints is one of these. The last-resort fmt formatting of any other
// type allocates and grows the caller's stack; it exists for ad-hoc callers
// (tests, one-off tools), and the registry's fallback guard test fails if a
// registered spec reaches it.
func (h *FP) Value(v any) {
	if h.orb != nil && h.orb.canon != nil {
		v = h.orb.canon(v)
	}
	switch t := v.(type) {
	case nil:
		h.Word(fpTagNil)
	case bool:
		h.Word(fpTagBool)
		h.Bool(t)
	case int:
		h.Word(fpTagInt)
		h.Int(t)
	case int32:
		h.Word(fpTagInt)
		h.Word(uint64(t))
	case int64:
		h.Word(fpTagInt)
		h.Word(uint64(t))
	case uint:
		h.Word(fpTagUint)
		h.Word(uint64(t))
	case uint64:
		h.Word(fpTagUint)
		h.Word(t)
	case string:
		h.Word(fpTagString)
		h.String(t)
	case Label:
		h.Word(fpTagLabel)
		h.Label(t)
	case ProcID:
		h.Word(fpTagProc)
		h.Int(int(t))
	case []any:
		h.Word(fpTagSlice)
		h.Int(len(t))
		for _, x := range t {
			h.Value(x)
		}
	case Fingerprinter:
		t.Fingerprint(h)
	default:
		typ := fmt.Sprintf("%T", v)
		fallbackTypes.Store(typ, true)
		h.Word(fpTagOther)
		h.String(typ + ":" + fmt.Sprint(v))
	}
}

// fallbackTypes is the set of dynamic types (as "%T" strings) Value has
// folded through its fmt fallback. Only that cold branch writes it; the
// registered-spec guard test reads and clears it.
var fallbackTypes sync.Map // string -> bool

// ValueAt folds the cell *p as Value(*p) does, except that a Fingerprinter
// cell folds through the pointer instead of being boxed into an interface —
// for a composite cell type (a struct or a named slice with a Fingerprint
// method) that conversion allocates on every fold. The words folded are the
// same; a Fingerprint method with a pointer receiver, which Value(*p) cannot
// see, is used too. Object code folding and observing its cells in place
// uses it. An orbit FP's canon hook sees the values such a cell folds
// through Value, not the cell itself: canon hooks rewrite plain values
// (proposals), which cells hold but never are.
func ValueAt[T any](h *FP, p *T) {
	if f, ok := any(p).(Fingerprinter); ok {
		f.Fingerprint(h)
		return
	}
	h.Value(*p)
}

// Sum finalizes the accumulated state into a Fingerprint. Sum does not
// consume the FP; more words may be folded and Sum taken again. In orbit
// mode the root digest, the lane count and the per-process lane digests —
// sorted, so any permutation of lane contents sums identically — are
// combined into the result.
func (h *FP) Sum() Fingerprint {
	if h.orb != nil && len(h.orb.lanes) > 0 {
		return h.orbitSum()
	}
	return fpSum(h.a, h.b)
}

// fpSum finalizes one (a, b) lane pair.
func fpSum(a, b uint64) Fingerprint {
	return Fingerprint{
		Lo: Mix(a + fpGolden*b),
		Hi: Mix(b ^ (a>>31 | a<<33)),
	}
}

// fpLess orders Fingerprints lexicographically by (Hi, Lo).
func fpLess(x, y Fingerprint) bool {
	return x.Hi < y.Hi || (x.Hi == y.Hi && x.Lo < y.Lo)
}

// orbitSum folds base digest, lane count and sorted lane digests. Insertion
// sort over the reusable scratch keeps the decision-boundary hot path free
// of sort.Slice's allocation; lane counts are process counts (tiny).
func (h *FP) orbitSum() Fingerprint {
	t := FP{a: h.a, b: h.b}
	t.Int(len(h.orb.lanes))
	sums := h.orb.sums[:0]
	for i := range h.orb.lanes {
		ln := &h.orb.lanes[i]
		s := fpSum(ln.a, ln.b)
		j := len(sums)
		sums = append(sums, s)
		for j > 0 && fpLess(s, sums[j-1]) {
			sums[j] = sums[j-1]
			j--
		}
		sums[j] = s
	}
	h.orb.sums = sums[:0]
	for _, s := range sums {
		t.Word(s.Hi)
		t.Word(s.Lo)
	}
	return fpSum(t.a, t.b)
}

// Observe folds v into the calling process's observation digest when the
// run's Config.Observe is set (and is a cheap branch otherwise — v is not
// boxed unless tracking is on). Shared-object implementations call it with
// every value they return that derives from shared state: the value a read
// or scan observed, the winner/emptiness verdict of a test&set, dequeue or
// CAS, an oracle's output. Writes need no observation (no information flows
// back into the process). The digests make each process's local state a
// function of its fingerprintable history; replay engines rely on that for
// state deduplication. Objects observing a stored cell use ObserveAt.
func Observe[T any](e *Env, v T) {
	if !e.s.cfg.Observe {
		return
	}
	e.s.obs[e.id].Value(v)
}

// ObserveAt is Observe(e, *p) without the interface conversion: the cell is
// folded in place through ValueAt, so observing a composite Fingerprinter
// cell (a struct, a named slice) allocates nothing.
func ObserveAt[T any](e *Env, p *T) {
	if !e.s.cfg.Observe {
		return
	}
	ValueAt(&e.s.obs[e.id], p)
}

// ProcSet folds an unordered process set commutatively (membership-counted,
// iteration-order-insensitive) — the canonical fold for the proposed/seen
// maps shared objects keep.
func (h *FP) ProcSet(m map[ProcID]bool) {
	var sum uint64
	n := 0
	for id, ok := range m {
		if ok {
			sum += Mix(uint64(id) + 1)
			n++
		}
	}
	h.Int(n)
	h.Word(sum)
}

// Fingerprinter is implemented by shared objects (and by harness state) that
// can fold their current state into a canonical digest. The contract:
//
//   - Fingerprint must fold the object's complete checker-observable state:
//     two objects folding identical words must behave identically under
//     every future operation sequence.
//   - Fingerprint must be deterministic: no map-iteration order, pointer
//     values or timestamps may reach the hash. Unordered collections must be
//     folded commutatively (see Mix) or in a canonical element order.
//   - Fingerprint must not take scheduler steps (no Env access): it runs at
//     decision boundaries, outside any process.
//
// The reg, snapshot, object and agreement packages implement Fingerprinter
// on every shared-object type; exploration harnesses compose those into a
// per-run digest (explore.Session.Fingerprint) that also covers the harness's
// own logs.
type Fingerprinter interface {
	Fingerprint(h *FP)
}
