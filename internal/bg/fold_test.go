package bg

import (
	"fmt"
	"testing"

	"mpcn/internal/sched"
)

// TestMemRowFingerprint: a MEM row folds every field of every cell, its
// length, and equal rows fold equal.
func TestMemRowFingerprint(t *testing.T) {
	rows := []memRow{
		nil,
		{{val: nil, sn: 0}},
		{{val: 1, sn: 1}},
		{{val: 1, sn: 2}},
		{{val: 2, sn: 1}},
		{{val: "1", sn: 1}},
		{{val: []any{1}, sn: 1}},
		{{val: 1, sn: 1}, {val: nil, sn: 0}},
		{{val: nil, sn: 0}, {val: 1, sn: 1}},
	}
	seen := make(map[sched.Fingerprint]int)
	for i, row := range rows {
		var h, again sched.FP
		h.Value(row)
		again.Value(append(memRow(nil), row...))
		if h.Sum() != again.Sum() {
			t.Errorf("row %v: equal rows folded differently", row)
		}
		if j, dup := seen[h.Sum()]; dup {
			t.Errorf("rows %v and %v fold equal", rows[j], row)
		}
		seen[h.Sum()] = i
	}
}

// TestAgreementNames: the cached agreement names are byte-identical to the
// formatted SAFE_AG[j,sn] / XSAFE_AG[a] names step labels and replay scripts
// are built from, on first use and when served from the table.
func TestAgreementNames(t *testing.T) {
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < 4; j++ {
			for sn := 0; sn < 300; sn += 7 {
				if got, want := agNames.snapName(agKey{j: j, snapsn: sn}), fmt.Sprintf("SAFE_AG[%d,%d]", j, sn); got != want {
					t.Fatalf("snapshot agreement name %q, want %q", got, want)
				}
			}
			if got, want := agNames.xconsName(j*111), fmt.Sprintf("XSAFE_AG[%d]", j*111); got != want {
				t.Fatalf("x_cons agreement name %q, want %q", got, want)
			}
		}
	}
}
