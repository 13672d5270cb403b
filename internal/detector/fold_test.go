package detector

import (
	"testing"

	"mpcn/internal/sched"
)

// TestCellFingerprints: announcement and decision cells fold both fields.
func TestCellFingerprints(t *testing.T) {
	cells := []sched.Fingerprinter{
		annCell{}, annCell{round: 1}, annCell{v: 1}, annCell{round: 1, v: 1},
		annCell{round: 1, v: "1"}, annCell{round: 2, v: 1},
	}
	decs := []sched.Fingerprinter{
		decCell{}, decCell{set: true}, decCell{v: 1}, decCell{set: true, v: 1},
		decCell{set: true, v: 2},
	}
	for _, group := range [][]sched.Fingerprinter{cells, decs} {
		seen := make(map[sched.Fingerprint]sched.Fingerprinter)
		for _, c := range group {
			var h sched.FP
			h.Value(c)
			if prev, dup := seen[h.Sum()]; dup {
				t.Errorf("%+v and %+v fold equal", prev, c)
			}
			seen[h.Sum()] = c
		}
	}
}
