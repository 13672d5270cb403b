package sched

import "testing"

// TestFPWordsDistinct feeds many small distinct inputs and requires distinct
// 128-bit sums — the sanity floor for a state-hashing digest.
func TestFPWordsDistinct(t *testing.T) {
	seen := make(map[Fingerprint]uint64)
	for i := uint64(0); i < 100000; i++ {
		var h FP
		h.Word(i)
		s := h.Sum()
		if prev, dup := seen[s]; dup {
			t.Fatalf("collision: Word(%d) and Word(%d) both sum to %+v", i, prev, s)
		}
		seen[s] = i
	}
}

// TestFPOrderSensitive: the digest must distinguish fold orders (callers
// canonicalize ordering themselves).
func TestFPOrderSensitive(t *testing.T) {
	var a, b FP
	a.Word(1)
	a.Word(2)
	b.Word(2)
	b.Word(1)
	if a.Sum() == b.Sum() {
		t.Fatal("FP ignored fold order")
	}
}

// TestFPValueTags: equal underlying bits of different types must not collide,
// and strings must be length-prefixed.
func TestFPValueTags(t *testing.T) {
	sums := make(map[Fingerprint]string)
	add := func(name string, v any) {
		var h FP
		h.Value(v)
		s := h.Sum()
		if prev, dup := sums[s]; dup {
			t.Fatalf("Value collision between %s and %s", prev, name)
		}
		sums[s] = name
	}
	add("nil", nil)
	add("int(1)", 1)
	add("int64(1)", int64(2)) // int64 shares the int tag; distinct value
	add("uint64(1)", uint64(1))
	add("bool(true)", true)
	add("string(1)", "1")
	add("Label(1)", Label(1))
	add("ProcID(1)", ProcID(1))
	var h1, h2 FP
	h1.String("ab")
	h1.String("c")
	h2.String("a")
	h2.String("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("String concatenation collided across boundaries")
	}
}

// TestFPDeterminism: identical fold sequences produce identical sums, across
// FP values and including the Fingerprinter hook.
func TestFPDeterminism(t *testing.T) {
	fold := func() Fingerprint {
		var h FP
		h.Int(42)
		h.Bool(true)
		h.Label(LabelStart)
		h.String("mem[3].write")
		h.Value(fpHookVal{7})
		return h.Sum()
	}
	if fold() != fold() {
		t.Fatal("FP is not deterministic")
	}
}

type fpHookVal struct{ v int }

func (f fpHookVal) Fingerprint(h *FP) { h.Int(f.v) }

// TestFPValueFallback: exotic types go through the fmt fallback and still
// hash deterministically and distinctly, and the fallback records their type
// (what the registered-spec guard reads).
func TestFPValueFallback(t *testing.T) {
	type odd struct{ A, B int }
	ResetFallbacks()
	var h1, h2, h3 FP
	h1.Value(odd{1, 2})
	h2.Value(odd{1, 2})
	h3.Value(odd{2, 1})
	if h1.Sum() != h2.Sum() {
		t.Fatal("fallback not deterministic")
	}
	if h1.Sum() == h3.Sum() {
		t.Fatal("fallback collided on distinct values")
	}
	if got := FallbackTypes(); len(got) != 1 || got[0] != "sched.odd" {
		t.Fatalf("fallback recorded %v, want [sched.odd]", got)
	}
	ResetFallbacks()
	var h FP
	h.Value([]any{1, "a", []any{true, nil}, Label(3), fpHookVal{2}})
	if got := FallbackTypes(); len(got) != 0 {
		t.Fatalf("structural values reached the fallback: %v", got)
	}
}

// valueSum folds v through Value into a fresh FP.
func valueSum(v any) Fingerprint {
	var h FP
	h.Value(v)
	return h.Sum()
}

// TestFPValueSlices: []any snapshot views fold structurally — equal nested
// views fold equal, and views fmt renders identically stay apart.
func TestFPValueSlices(t *testing.T) {
	nested := func() any { return []any{1, nil, []any{"x", uint64(2)}, []any{}} }
	if valueSum(nested()) != valueSum(nested()) {
		t.Fatal("equal nested views folded differently")
	}
	for _, pair := range [][2]any{
		{[]any{1}, []any{"1"}},      // both "[1]" under %v
		{[]any{1, 2}, []any{"1 2"}}, // both "[1 2]"
		{[]any{[]any{1}, 2}, []any{1, []any{2}}},
		{[]any{}, []any{nil}},
		{[]any(nil), nil},
		{[]any{1, 2}, []any{[]any{1, 2}}},
	} {
		if valueSum(pair[0]) == valueSum(pair[1]) {
			t.Errorf("Value(%#v) and Value(%#v) collide", pair[0], pair[1])
		}
	}
}

// TestValueAtMatchesValue: folding a cell in place is byte-identical to
// folding the cell's value, for Fingerprinter and plain cells alike, and an
// orbit FP's canon hook still rewrites the values inside a cell.
func TestValueAtMatchesValue(t *testing.T) {
	hook := fpHookVal{9}
	var a, b FP
	ValueAt(&a, &hook)
	b.Value(hook)
	if a.Sum() != b.Sum() {
		t.Fatal("ValueAt of a Fingerprinter cell differs from Value")
	}
	n, view := 1234, any([]any{1, "y"})
	a, b = FP{}, FP{}
	ValueAt(&a, &n)
	ValueAt(&a, &view)
	b.Value(n)
	b.Value(view)
	if a.Sum() != b.Sum() {
		t.Fatal("ValueAt of plain cells differs from Value")
	}
	canon := func(v any) any {
		if v == 100 {
			return "proposal"
		}
		return v
	}
	cell := fpCell{100}
	o1, o2 := NewOrbitFP(1, canon), NewOrbitFP(1, canon)
	ValueAt(o1, &cell)
	o2.Value(fpCell{"proposal"})
	if o1.Sum() != o2.Sum() {
		t.Fatal("the orbit canon hook missed a value folded by a cell")
	}
}

// fpCell is a composite cell holding a dynamically-typed value.
type fpCell struct{ v any }

func (c fpCell) Fingerprint(h *FP) { h.Value(c.v) }

// TestMixCommutativeFold: the documented unordered-collection recipe —
// summing Mix-ed element digests — is insensitive to iteration order and
// sensitive to membership.
func TestMixCommutativeFold(t *testing.T) {
	digest := func(ids []int) uint64 {
		var sum uint64
		for _, id := range ids {
			sum += Mix(uint64(id) + 1)
		}
		return sum
	}
	if digest([]int{1, 2, 3}) != digest([]int{3, 1, 2}) {
		t.Fatal("commutative fold depends on order")
	}
	if digest([]int{1, 2, 3}) == digest([]int{1, 2, 4}) {
		t.Fatal("commutative fold ignored membership")
	}
}
