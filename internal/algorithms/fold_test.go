package algorithms

import (
	"testing"

	"mpcn/internal/sched"
)

// TestRenameCellFingerprint: a published renaming cell folds both fields.
func TestRenameCellFingerprint(t *testing.T) {
	seen := make(map[sched.Fingerprint]renameCell)
	for _, c := range []renameCell{{}, {orig: 1}, {prop: 1}, {orig: 1, prop: 1}, {orig: 1, prop: 2}, {orig: 2, prop: 1}} {
		var h sched.FP
		h.Value(c)
		if prev, dup := seen[h.Sum()]; dup {
			t.Errorf("%+v and %+v fold equal", prev, c)
		}
		seen[h.Sum()] = c
	}
}
