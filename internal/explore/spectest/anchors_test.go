package spectest_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/explore/spectest"
	"mpcn/internal/sched"
)

// walkAnchor is one plain sequential walk of a conformance cell: runs
// visited, alternatives pruned and the deepest decision.
type walkAnchor struct {
	runs, pruned, depth int
}

// unboundedAnchor pins the bounded smoke of a spec whose tree cannot be
// exhausted: the capped walk's runs and outcome-set size, and a digest of
// the scripts a seed-1 PCT pass draws at crash budgets 0 and 1.
type unboundedAnchor struct {
	walkAnchor
	outcomes int
	pct      [2]string
}

// gridCells resolves the spec's conformance grid (the options of
// TestConformanceAllSpecs) to its cells, in crash-budget order.
func gridCells(t *testing.T, s spec.Spec) ([]spec.Params, int) {
	t.Helper()
	opt := options(s)
	crashes, maxRuns := opt.Crashes, opt.MaxRuns
	if crashes == nil {
		crashes = []int{0, 1}
	}
	if maxRuns == 0 {
		maxRuns = 100000
	}
	var cells []spec.Params
	for _, c := range crashes {
		p := opt.Params.Clone()
		if p == nil {
			p = spec.Params{}
		}
		p[spec.ParamCrashes] = c
		resolved, err := spec.Resolve(s, p)
		if err != nil {
			t.Fatalf("Resolve(%s): %v", s.Name(), err)
		}
		cells = append(cells, resolved)
	}
	return cells, maxRuns
}

// walk runs the plain sequential walk of one cell, recording the
// outcome-set signature of every run.
func walk(t *testing.T, s spec.Spec, p spec.Params, maxRuns int) (walkAnchor, int) {
	t.Helper()
	cfg, err := spec.Config(s, p, explore.Config{MaxRuns: maxRuns, Workers: 1})
	if err != nil {
		t.Fatalf("spec.Config(%s): %v", s.Name(), err)
	}
	sess := s.New(p)
	inner, leafFP := sess.Check, sess.Fingerprint
	outcomes := make(map[string]bool)
	sess.Check = func(res *sched.Result) error {
		if err := inner(res); err != nil {
			return err
		}
		outcomes[spectest.LeafSignature(res, leafFP)] = true
		return nil
	}
	st, err := explore.ExploreSession(sess, cfg)
	if err != nil {
		t.Fatalf("explore %s at %s: %v", s.Name(), p.Text(s), err)
	}
	return walkAnchor{runs: st.Runs, pruned: st.Pruned, depth: st.MaxDepth}, len(outcomes)
}

// pctDigest hashes the scripts of a 200-sample seed-1 PCT pass.
func pctDigest(t *testing.T, s spec.Spec, p spec.Params, maxCrashes int) string {
	t.Helper()
	h := sha256.New()
	cfg := sample.Config{
		Samples:    200,
		Seed:       1,
		MaxCrashes: maxCrashes,
		MaxSteps:   p[spec.ParamSteps],
		Depth:      s.Sampling().Depth,
		Workers:    1,
		OnSample: func(i int, script []string) {
			fmt.Fprintf(h, "%d\n%s\n", i, strings.Join(script, "\n"))
		},
	}
	if _, err := sample.Run(s.New(p), sample.StrategyPCT, cfg); err != nil {
		t.Fatalf("PCT %s: %v", s.Name(), err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// walkAnchors are the plain sequential walks of every exhaustible spec's
// conformance cells, one per crash budget (0, then 1). They were recorded
// when BG still stepped from helper goroutines on a channel-based scheduler
// protocol; the scheduler rewrite that retired it must not move a single
// run.
var walkAnchors = map[string][]walkAnchor{
	"cas":         {{20, 0, 8}, {112, 0, 8}},
	"commitadopt": {{252, 0, 10}, {1174, 0, 10}},
	"hierarchy":   {{20, 0, 7}, {108, 0, 7}},
	"mlset":       {{90, 0, 6}, {450, 0, 6}},
	"queue":       {{1680, 0, 9}, {8820, 0, 9}},
	"registers":   {{1680, 0, 9}, {8820, 0, 9}},
	"renaming":    {{364, 0, 14}, {1670, 0, 14}},
	"safe":        {{482, 0, 11}, {2124, 0, 11}},
	"sb":          {{20, 0, 6}, {88, 0, 6}},
	"stack":       {{1680, 0, 9}, {8820, 0, 9}},
	"testandset":  {{90, 0, 6}, {450, 0, 6}},
	"universal":   {{132, 0, 10}, {686, 0, 10}},
	"xcompete":    {{288, 0, 8}, {1350, 0, 8}},
	"xconsensus":  {{6, 0, 4}, {24, 0, 4}},
	"xsafe":       {{126, 0, 9}, {548, 0, 9}},
}

// unboundedAnchors pin the bounded smokes of the specs whose trees no run
// budget exhausts, recorded alongside walkAnchors.
var unboundedAnchors = map[string]unboundedAnchor{
	"bg":       {walkAnchor{300, 0, 26}, 1, [2]string{"daf41ba4ff039368", "8a124ebdf52e5666"}},
	"detector": {walkAnchor{300, 0, 18}, 1, [2]string{"0841e66feacc99e0", "634fc4731a193889"}},
}

// TestSpecAnchors extends the atomic-anchor pattern to the whole registry:
// every registered spec's conformance cells reproduce their recorded walks,
// and the unbounded specs their smokes and seed-1 PCT scripts. A new spec
// records its anchors here.
func TestSpecAnchors(t *testing.T) {
	for _, s := range spec.All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			cells, maxRuns := gridCells(t, s)
			if spec.Unbounded(s) {
				want, ok := unboundedAnchors[s.Name()]
				if !ok {
					t.Fatalf("no unbounded anchor recorded for %q", s.Name())
				}
				w, outcomes := walk(t, s, cells[0], maxRuns)
				if w != want.walkAnchor || outcomes != want.outcomes {
					t.Errorf("bounded smoke: %+v with %d outcomes, want %+v with %d",
						w, outcomes, want.walkAnchor, want.outcomes)
				}
				for crashes, digest := range want.pct {
					if got := pctDigest(t, s, cells[0], crashes); got != digest {
						t.Errorf("seed-1 PCT scripts at %d crashes: digest %s, want %s", crashes, got, digest)
					}
				}
				return
			}
			want, ok := walkAnchors[s.Name()]
			if !ok || len(want) != len(cells) {
				t.Fatalf("walk anchors for %q: %v, want one per cell of %d", s.Name(), want, len(cells))
			}
			for i, p := range cells {
				if got, _ := walk(t, s, p, maxRuns); got != want[i] {
					t.Errorf("%s: walk %+v, want %+v", p.Text(s), got, want[i])
				}
			}
		})
	}
}
