package universal

import (
	"testing"

	"mpcn/internal/sched"
)

// TestOpDescFingerprint: an operation descriptor folds port, sequence number
// and operation; an empty announce cell (a typed-nil *opDesc) folds as nil
// instead of panicking.
func TestOpDescFingerprint(t *testing.T) {
	descs := []*opDesc[int]{
		nil, {}, {port: 1}, {seq: 1}, {op: 1}, {port: 1, seq: 1, op: 1},
		{port: 1, seq: 2, op: 1}, {port: 2, seq: 1, op: 1}, {port: 1, seq: 1, op: 2},
	}
	seen := make(map[sched.Fingerprint]*opDesc[int])
	for _, d := range descs {
		var h sched.FP
		h.Value(d)
		if prev, dup := seen[h.Sum()]; dup {
			t.Errorf("%+v and %+v fold equal", prev, d)
		}
		seen[h.Sum()] = d
	}
	var typedNil, untyped sched.FP
	typedNil.Value((*opDesc[int])(nil))
	untyped.Value(nil)
	if typedNil.Sum() != untyped.Sum() {
		t.Error("a typed-nil *opDesc does not fold as nil")
	}
}
