package sched_test

import (
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	_ "mpcn/internal/explore/sessions" // registers the specs
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
)

// TestRegisteredSpecsNeverFallBack: every value a registered spec observes or
// fingerprints folds structurally, never through Value's fmt fallback. Each
// spec runs at its default parameters (with one crash where the domain
// allows it) twice: a short PCT sample with coverage on, which folds every
// observation and the harness digest at every decision boundary, and — when
// the spec has a fingerprint — a bounded dedup walk.
func TestRegisteredSpecsNeverFallBack(t *testing.T) {
	for _, s := range spec.All() {
		t.Run(s.Name(), func(t *testing.T) {
			p, err := spec.Resolve(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if crashes, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: 1}); err == nil {
				p = crashes
			}
			sched.ResetFallbacks()

			scfg := sample.Config{
				Samples: 60, Seed: 1, Coverage: true, CoverageMem: 1 << 20,
				MaxCrashes: p[spec.ParamCrashes], MaxSteps: p[spec.ParamSteps],
				Depth: s.Sampling().Depth,
			}
			if _, err := sample.Run(s.New(p), sample.StrategyPCT, scfg); err != nil {
				t.Fatalf("sampling: %v", err)
			}
			if got := sched.FallbackTypes(); len(got) > 0 {
				t.Errorf("coverage sampling folded %v through the fmt fallback", got)
			}

			if !s.SupportsDedup() {
				return
			}
			sched.ResetFallbacks()
			cfg, err := spec.Config(s, p, explore.Config{MaxRuns: 300, Dedup: true, DedupMem: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := explore.ExploreSession(s.New(p), cfg); err != nil {
				t.Fatalf("dedup walk: %v", err)
			}
			if got := sched.FallbackTypes(); len(got) > 0 {
				t.Errorf("dedup walk folded %v through the fmt fallback", got)
			}
		})
	}
}
