package bg_test

import (
	"runtime"
	"testing"

	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"

	_ "mpcn/internal/explore/sessions" // registers the bg spec
)

// TestSampledCrashesLeakNoGoroutines: 1,000 crash-injecting samples of the
// BG spec leave no goroutine behind once the sampler has closed its
// runtime. Each run creates one coroutine (a goroutine the runtime counts)
// per simulated thread, and crashes unwind simulators mid-step, so a thread
// a crash failed to reap would show up here. One worker without a context
// samples on the calling goroutine, so nothing exits asynchronously.
func TestSampledCrashesLeakNoGoroutines(t *testing.T) {
	s, err := spec.Lookup("bg")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: 1, spec.ParamSteps: 400})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	st, err := sample.Run(s.New(p), sample.StrategySwarm, sample.Config{
		Samples:    1000,
		Seed:       1,
		MaxCrashes: 1,
		MaxSteps:   400,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 1000 {
		t.Fatalf("%d samples, want 1000", st.Samples)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("%d goroutines after sampling, baseline %d", got, baseline)
	}
}
