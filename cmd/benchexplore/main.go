// Command benchexplore records the exhaustive-exploration throughput
// trajectory, driven entirely by the spec registry: every registered
// scenario contributes a crash-free and a crashes=1 sweep at its declared
// defaults, each run under up to four engines — the sequential
// session-reuse explorer, the parallel session-backed worker pool, and the
// sequential + parallel engines with state-fingerprint deduplication (dedup
// engines only for specs whose SupportsDedup flag is set). Every cell is a
// service job run through service.Execute, the execution path the CLI and
// the exploredd daemon share. Results land as JSON (BENCH_explore.json via
// `make bench-json`).
//
// Scenarios the run budget cannot exhaust (the BG simulation) are skipped
// with a note: a throughput number is only meaningful for a completed state
// space.
//
// Every registered spec additionally contributes a schedule-sampling series
// (engine "sample-pct"): a seeded PCT run at the spec's declared sampling
// budget recording samples/sec and the distinct-state coverage curve. The
// sampling series is the one series present for EVERY spec — including the
// exhaustion-skipped BG simulation, whose sampling cell is its only
// recorded trajectory — and the run fails if any registered spec is missing
// one (the sampling presence gate).
//
// Every tree-walking cell asserts the engines visited the state space of
// the sequential session engine before reporting, so a number in the file
// is also a passed determinism check. The dedup cells assert the exhaustion
// verdict is unchanged and that the visited-run count never exceeds the
// tree walk's; the run as a whole asserts at least one sweep reaches a >= 2x
// runs-explored reduction (the dedup regression gate).
//
// Specs declaring the symmetry capability additionally contribute a symmetry
// series (engine "sequential-session-symmetry"): the sequential dedup walk
// with orbit-canonical fingerprints, recorded with its runs-explored
// collapse vs dedup alone (OrbitCollapseX). The symmetry gate requires every
// symmetry-declaring spec to carry the series and the tracked commit-adopt
// n=3 cell to show a strict (> 1x) collapse. -symmetry-only runs just this
// series and gate (the CI symmetry-conformance mode); -o "" measures and
// gates without writing the file.
//
// The file additionally carries the per-commit throughput trajectory
// ("trend"): an append-only series of tracked-cell measurements, one point
// per recorded commit. The tracked cell is the three-process crash-free
// commit-adopt exhaustion under the sequential session engine — the
// throughput-campaign workload (deep enough to amortize setup, converging
// enough to exercise the batched-grant fast path). Every full run and every
// -trend-only run appends a point (stamped with -commit) and gates the fresh
// runs/sec against the last recorded point within -trend-tolerance: the
// throughput regression gate, wired into CI next to the dedup-reduction and
// orbit-collapse gates. -trend-dry gates against the checked-in trajectory
// without rewriting the file (the CI mode). -print-trend prints the recorded
// series and exits (`make bench-trend`).
//
// -cpuprofile/-memprofile write pprof profiles of the measurement run — the
// profile-gated optimization workflow (`make profile`).
//
// Usage:
//
//	benchexplore [-o BENCH_explore.json] [-workers N] [-reps 3] [-probe 20000] [-samples 4000] [-symmetry-only]
//	benchexplore -trend-only [-trend-dry] [-commit abc1234] [-trend-tolerance 0.25]
//	benchexplore -print-trend
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/service"

	// Register the built-in scenarios.
	_ "mpcn/internal/explore/sessions"
)

// sweep is one benchmarked workload cell: a registered spec at a resolved
// parameter assignment.
type sweep struct {
	name string
	spec spec.Spec
	p    spec.Params
}

// Record is one engine measurement of one sweep, as serialized.
type Record struct {
	Sweep  string `json:"sweep"`
	Spec   string `json:"spec"`
	Params string `json:"params"`
	Engine string `json:"engine"`
	Runs   int    `json:"runs"`
	Pruned int    `json:"pruned"`

	ElapsedSec float64 `json:"elapsed_sec"`
	RunsPerSec float64 `json:"runs_per_sec"`
	// Dedup-engine extras: distinct states visited, visited-state hits, and
	// the runs-explored reduction vs the same engine without dedup.
	DedupStates int64   `json:"dedup_states,omitempty"`
	DedupHits   int64   `json:"dedup_hits,omitempty"`
	ReductionX  float64 `json:"reduction_x,omitempty"`
	// Symmetry-engine extra (engine "sequential-session-symmetry"): the
	// runs-explored collapse vs the same engine with dedup alone — the
	// additional reduction bought by orbit-canonical fingerprints.
	OrbitCollapseX float64 `json:"orbit_collapse_x,omitempty"`
	// Sampling-engine extras (engine "sample-pct"): sampled runs, sampling
	// throughput, the distinct-state estimate and its growth curve.
	Samples        int                    `json:"samples,omitempty"`
	SamplesPerSec  float64                `json:"samples_per_sec,omitempty"`
	DistinctStates int64                  `json:"distinct_states,omitempty"`
	CoverageSeries []sample.CoveragePoint `json:"coverage_series,omitempty"`
}

// Report is the file layout of BENCH_explore.json.
type Report struct {
	GeneratedUnix int64    `json:"generated_unix"`
	GoVersion     string   `json:"go_version"`
	NumCPU        int      `json:"num_cpu"`
	Workers       int      `json:"workers"`
	Reps          int      `json:"reps"`
	Records       []Record `json:"records"`
	// Trend is the append-only per-commit throughput trajectory of the
	// tracked cells; every run appends one point and gates against the last.
	Trend []TrendPoint `json:"trend,omitempty"`
}

// TrendCell is one tracked-cell measurement inside a trend point.
type TrendCell struct {
	Runs       int     `json:"runs"`
	RunsPerSec float64 `json:"runs_per_sec"`
}

// TrendPoint is one commit's entry in the throughput trajectory. Cells is
// keyed "spec|params|engine".
type TrendPoint struct {
	Commit    string               `json:"commit"`
	Unix      int64                `json:"unix"`
	GoVersion string               `json:"go_version"`
	Cells     map[string]TrendCell `json:"cells"`
}

// benchOptions carries the flag set through the run.
type benchOptions struct {
	out        string
	workers    int
	reps       int
	probe      int
	samples    int
	symOnly    bool
	trendOnly  bool
	trendDry   bool
	printTrend bool
	commit     string
	trendTol   float64
	cpuprofile string
	memprofile string
}

func main() {
	var o benchOptions
	flag.StringVar(&o.out, "o", "BENCH_explore.json", "output file (empty = measure and gate without writing)")
	flag.IntVar(&o.workers, "workers", 0, "parallel worker-pool size (<= 0 selects the default)")
	flag.IntVar(&o.reps, "reps", 3, "repetitions per cell; the best rep is reported")
	flag.IntVar(&o.probe, "probe", 20000, "exhaustibility probe: skip sweeps that exceed this many runs")
	flag.IntVar(&o.samples, "samples", 4000, "sampling-series budget per spec (specs may declare smaller)")
	flag.BoolVar(&o.symOnly, "symmetry-only", false, "run only the symmetry series and its gate (the CI symmetry-conformance mode)")
	flag.BoolVar(&o.trendOnly, "trend-only", false, "measure only the tracked trend cells, gate against the last recorded point, and append (the CI throughput-gate mode)")
	flag.BoolVar(&o.trendDry, "trend-dry", false, "with -trend-only: gate against the recorded trend but leave the file unwritten (CI reads the checked-in trajectory without dirtying it)")
	flag.BoolVar(&o.printTrend, "print-trend", false, "print the recorded trend series and exit without measuring")
	flag.StringVar(&o.commit, "commit", "", "commit hash recorded in the appended trend point")
	flag.Float64Var(&o.trendTol, "trend-tolerance", 0.25, "allowed fractional runs/sec drop vs the last recorded trend point before the gate fails")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measurement run to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile (after a final GC) to this file")
	flag.Parse()
	if err := runMain(o); err != nil {
		fmt.Fprintf(os.Stderr, "benchexplore: %v\n", err)
		os.Exit(1)
	}
}

func runMain(o benchOptions) error {
	if o.printTrend {
		return printTrendSeries(o.out)
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchexplore: %v\n", err)
				return
			}
			runtime.GC() // retained allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchexplore: %v\n", err)
			}
			f.Close()
		}()
	}
	return run(o)
}

// sweeps derives the benchmark cells from the registry: per spec, the
// declared defaults without crashes and with a single-crash budget — plus
// one weak-memory cell (the regular-register writers at n=2, non-violating
// without readers), so the file tracks a weak backend's step-inflated tree
// next to the atomic default.
func sweeps() ([]sweep, error) {
	var out []sweep
	for _, s := range spec.All() {
		for _, crashes := range []int{0, 1} {
			p, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: crashes})
			if err != nil {
				return nil, fmt.Errorf("spec %q: %w", s.Name(), err)
			}
			name := s.Name() + "/defaults"
			if crashes > 0 {
				name = fmt.Sprintf("%s/crashes=%d", s.Name(), crashes)
			}
			out = append(out, sweep{name: name, spec: s, p: p})
		}
	}
	weak, err := weakSweep()
	if err != nil {
		return nil, err
	}
	return append(out, weak), nil
}

// weakSweep builds the tracked weak-memory cell: registers at n=2 under the
// regular backend, crash-free. The writer-only harness has no property a
// weak backend can break, so the cell exhausts cleanly; at n=2 the
// three-step writes keep the tree inside the probe budget.
func weakSweep() (sweep, error) {
	s, err := spec.Lookup("registers")
	if err != nil {
		return sweep{}, fmt.Errorf("weak cell: %w", err)
	}
	backend := -1
	for _, d := range s.Params() {
		if d.Name == "backend" {
			if i, ok := d.ValueIndex("regular"); ok {
				backend = i
			}
		}
	}
	if backend < 0 {
		return sweep{}, fmt.Errorf("weak cell: registers declares no regular backend")
	}
	p, err := spec.Resolve(s, spec.Params{"n": 2, "backend": backend, spec.ParamCrashes: 0})
	if err != nil {
		return sweep{}, fmt.Errorf("weak cell: %w", err)
	}
	return sweep{name: "registers/backend=regular", spec: s, p: p}, nil
}

func run(o benchOptions) error {
	out, workers, reps, probe, samples := o.out, o.workers, o.reps, o.probe, o.samples
	if workers <= 0 {
		workers = explore.DefaultWorkers()
	}
	if reps < 1 {
		reps = 1
	}
	// The trend series is append-only: carry the recorded trajectory forward
	// from the existing file (absent or unreadable = empty history).
	prior, priorErr := readReport(out)
	report := Report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		Workers:       workers,
		Reps:          reps,
		Trend:         prior.Trend,
	}
	if o.trendOnly {
		// CI throughput-gate mode: measure only the tracked cells, gate, and
		// append — the rest of the file (records and metadata) is preserved.
		// -trend-dry gates without writing (the measurement still ran and the
		// gate still failed the process on a regression).
		trend, err := appendTrend(prior.Trend, o, reps)
		if err != nil {
			return err
		}
		if o.trendDry {
			return nil
		}
		if priorErr != nil {
			report.Trend = trend
			return write(out, report)
		}
		prior.Trend = trend
		return write(out, prior)
	}
	if o.symOnly {
		symmetric, err := symmetrySeries(reps)
		if err != nil {
			return err
		}
		if err := symmetryGate(symmetric); err != nil {
			return err
		}
		report.Records = symmetric
		return write(out, report)
	}
	cells, err := sweeps()
	if err != nil {
		return err
	}
	bestReduction := 0.0
	for _, sw := range cells {
		// Exhaustibility probe: a throughput number is only meaningful for a
		// completed state space.
		job := &service.Job{Spec: sw.spec, Params: sw.p,
			Engine: service.Engine{Mode: service.ModeExhaustive, Workers: 1, MaxRuns: probe}}
		if st, _, err := service.Execute(context.Background(), job, nil, nil); err != nil {
			return fmt.Errorf("%s (probe): %w", sw.name, err)
		} else if !st.Exhausted {
			fmt.Printf("%-28s skipped: exceeds the %d-run probe budget\n", sw.name, probe)
			continue
		}
		engines := []string{"sequential-session", "parallel-session"}
		if sw.spec.SupportsDedup() {
			engines = append(engines, "sequential-session-dedup", "parallel-session-dedup")
		}
		var baseline explore.Stats
		for _, engine := range engines {
			best, err := measure(sw, engine, workers, reps)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", sw.name, engine, err)
			}
			dedup := strings.HasSuffix(engine, "-dedup")
			if engine == "sequential-session" {
				baseline = best
			} else if dedup {
				// Dedup cuts converged subtrees: the verdict must match the
				// tree walk, the visited-run count must not exceed it.
				if best.Runs > baseline.Runs {
					return fmt.Errorf("%s/%s: dedup explored MORE runs than the tree walk: %d vs %d",
						sw.name, engine, best.Runs, baseline.Runs)
				}
			} else if best.Runs != baseline.Runs || best.Pruned != baseline.Pruned {
				return fmt.Errorf("%s/%s: state space diverged from the sequential session engine: %d/%d vs %d/%d runs/pruned",
					sw.name, engine, best.Runs, best.Pruned, baseline.Runs, baseline.Pruned)
			}
			rec := Record{
				Sweep:      sw.name,
				Spec:       sw.spec.Name(),
				Params:     sw.p.String(),
				Engine:     engine,
				Runs:       best.Runs,
				Pruned:     best.Pruned,
				ElapsedSec: best.Elapsed.Seconds(),
				RunsPerSec: best.RunsPerSec(),
			}
			if dedup {
				rec.DedupStates = best.Dedup.States
				rec.DedupHits = best.Dedup.Hits
				rec.ReductionX = float64(baseline.Runs) / float64(best.Runs)
				if rec.ReductionX > bestReduction {
					bestReduction = rec.ReductionX
				}
				fmt.Printf("%-28s %-26s %8d runs %10.0f runs/sec %8.1fx fewer runs\n",
					sw.name, engine, rec.Runs, rec.RunsPerSec, rec.ReductionX)
			} else {
				fmt.Printf("%-28s %-26s %8d runs %10.0f runs/sec\n",
					sw.name, engine, rec.Runs, rec.RunsPerSec)
			}
			report.Records = append(report.Records, rec)
		}
	}
	if bestReduction < 2 {
		return fmt.Errorf("dedup regression: best runs-explored reduction %.2fx < 2x", bestReduction)
	}
	symmetric, err := symmetrySeries(reps)
	if err != nil {
		return err
	}
	report.Records = append(report.Records, symmetric...)
	if err := symmetryGate(symmetric); err != nil {
		return err
	}
	sampled, err := sampleSeries(workers, samples)
	if err != nil {
		return err
	}
	report.Records = append(report.Records, sampled...)
	if err := sampledSpecsPresent(report.Records); err != nil {
		return err
	}
	trend, err := appendTrend(report.Trend, o, reps)
	if err != nil {
		return err
	}
	report.Trend = trend
	return write(out, report)
}

// readReport parses an existing report file (the append-mode input).
func readReport(path string) (Report, error) {
	var r Report
	if path == "" {
		return r, os.ErrNotExist
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, err
	}
	return r, nil
}

// trackedCells returns the trend-tracked sweeps: the throughput-campaign
// workloads whose runs/sec series gates regressions per commit. Currently the
// single tracked cell is the three-process crash-free commit-adopt exhaustion
// (756k runs at depth 15: deep enough to amortize per-run setup, converging
// enough to exercise every batching fast path).
func trackedCells() ([]sweep, error) {
	s, err := spec.Lookup("commitadopt")
	if err != nil {
		return nil, fmt.Errorf("trend: %w", err)
	}
	p, err := spec.Resolve(s, spec.Params{"n": 3, spec.ParamCrashes: 0})
	if err != nil {
		return nil, fmt.Errorf("trend: %w", err)
	}
	return []sweep{{name: "commitadopt/n=3", spec: s, p: p}}, nil
}

// trendKey names one tracked cell in a trend point.
func trendKey(sw sweep, engine string) string {
	return sw.spec.Name() + "|" + sw.p.String() + "|" + engine
}

// appendTrend measures the tracked cells, gates the fresh throughput against
// the last recorded point, and returns the series with the new point
// appended.
func appendTrend(trend []TrendPoint, o benchOptions, reps int) ([]TrendPoint, error) {
	cells, err := trackedCells()
	if err != nil {
		return nil, err
	}
	point := TrendPoint{
		Commit:    o.commit,
		Unix:      time.Now().Unix(),
		GoVersion: runtime.Version(),
		Cells:     make(map[string]TrendCell, len(cells)),
	}
	if point.Commit == "" {
		point.Commit = "unrecorded"
	}
	const engine = "sequential-session"
	for _, sw := range cells {
		best, err := measure(sw, engine, 0, reps)
		if err != nil {
			return nil, fmt.Errorf("trend %s/%s: %w", sw.name, engine, err)
		}
		key := trendKey(sw, engine)
		point.Cells[key] = TrendCell{Runs: best.Runs, RunsPerSec: best.RunsPerSec()}
		fmt.Printf("%-28s %-26s %8d runs %10.0f runs/sec (trend)\n",
			sw.name, engine, best.Runs, best.RunsPerSec())
	}
	if err := trendGate(trend, point, o.trendTol); err != nil {
		return nil, err
	}
	return append(trend, point), nil
}

// trendGate compares the fresh point against the last recorded one: a
// tracked cell's runs/sec may not drop by more than the tolerance fraction.
// A changed visited-run count is reported but not gated — the state space
// legitimately moves when specs change; throughput is what regresses
// silently.
func trendGate(trend []TrendPoint, point TrendPoint, tol float64) error {
	if len(trend) == 0 {
		return nil
	}
	last := trend[len(trend)-1]
	for key, cur := range point.Cells {
		prev, ok := last.Cells[key]
		if !ok {
			continue
		}
		if prev.Runs != cur.Runs {
			fmt.Printf("trend note: %s visited %d runs, last recorded point (%s) visited %d\n",
				key, cur.Runs, last.Commit, prev.Runs)
		}
		floor := prev.RunsPerSec * (1 - tol)
		if cur.RunsPerSec < floor {
			return fmt.Errorf("throughput regression: %s at %.0f runs/sec is below %.0f (last recorded %.0f at %s, tolerance %.0f%%)",
				key, cur.RunsPerSec, floor, prev.RunsPerSec, last.Commit, tol*100)
		}
		fmt.Printf("trend gate: %s %.0f -> %.0f runs/sec (%.2fx vs %s)\n",
			key, prev.RunsPerSec, cur.RunsPerSec, cur.RunsPerSec/prev.RunsPerSec, last.Commit)
	}
	return nil
}

// printTrendSeries renders the recorded trajectory (`make bench-trend`).
func printTrendSeries(path string) error {
	r, err := readReport(path)
	if err != nil {
		return fmt.Errorf("print-trend: %w", err)
	}
	if len(r.Trend) == 0 {
		fmt.Println("no trend points recorded")
		return nil
	}
	keys := make(map[string]bool)
	for _, pt := range r.Trend {
		for k := range pt.Cells {
			keys[k] = true
		}
	}
	for k := range keys {
		fmt.Printf("%s:\n", k)
		var first float64
		for _, pt := range r.Trend {
			c, ok := pt.Cells[k]
			if !ok {
				continue
			}
			if first == 0 {
				first = c.RunsPerSec
			}
			fmt.Printf("  %-12s %s  %8d runs %10.0f runs/sec %6.2fx\n",
				pt.Commit, time.Unix(pt.Unix, 0).UTC().Format("2006-01-02"),
				c.Runs, c.RunsPerSec, c.RunsPerSec/first)
		}
	}
	return nil
}

// write serializes the report; an empty path means "measure and gate only".
func write(out string, report Report) error {
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// symmetrySweeps derives the symmetry-series cells: per symmetry-declaring
// spec the declared defaults at crash budgets 0 and 1, plus the
// three-process crash-free commit-adopt cell the orbit-collapse gate tracks
// (at the two-process defaults the orbit structure is too small to measure).
func symmetrySweeps() ([]sweep, error) {
	var out []sweep
	for _, s := range spec.All() {
		if !s.SupportsSymmetry() {
			continue
		}
		grids := []spec.Params{
			{spec.ParamCrashes: 0},
			{spec.ParamCrashes: 1},
		}
		if s.Name() == "commitadopt" {
			grids = append(grids, spec.Params{"n": 3, spec.ParamCrashes: 0})
		}
		for _, g := range grids {
			p, err := spec.Resolve(s, g)
			if err != nil {
				return nil, fmt.Errorf("spec %q: %w", s.Name(), err)
			}
			name := fmt.Sprintf("%s/%v", s.Name(), g)
			out = append(out, sweep{name: name, spec: s, p: p})
		}
	}
	return out, nil
}

// symmetrySeries measures the symmetry engine against its dedup baseline:
// per cell, the sequential dedup walk and the sequential dedup+symmetry walk
// (both exhausted), asserting the symmetric walk never explores more runs,
// and recording the runs-explored collapse as OrbitCollapseX.
func symmetrySeries(reps int) ([]Record, error) {
	cells, err := symmetrySweeps()
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, sw := range cells {
		baseline, err := measure(sw, "sequential-session-dedup", 0, reps)
		if err != nil {
			return nil, fmt.Errorf("%s/sequential-session-dedup: %w", sw.name, err)
		}
		best, err := measure(sw, "sequential-session-symmetry", 0, reps)
		if err != nil {
			return nil, fmt.Errorf("%s/sequential-session-symmetry: %w", sw.name, err)
		}
		if best.Runs > baseline.Runs {
			return nil, fmt.Errorf("%s: symmetry explored MORE runs than dedup alone: %d vs %d",
				sw.name, best.Runs, baseline.Runs)
		}
		rec := Record{
			Sweep:          sw.name,
			Spec:           sw.spec.Name(),
			Params:         sw.p.String(),
			Engine:         "sequential-session-symmetry",
			Runs:           best.Runs,
			Pruned:         best.Pruned,
			ElapsedSec:     best.Elapsed.Seconds(),
			RunsPerSec:     best.RunsPerSec(),
			DedupStates:    best.Dedup.States,
			DedupHits:      best.Dedup.Hits,
			OrbitCollapseX: float64(baseline.Runs) / float64(best.Runs),
		}
		fmt.Printf("%-28s %-26s %8d runs %10.0f runs/sec %8.2fx orbit collapse\n",
			sw.name, rec.Engine, rec.Runs, rec.RunsPerSec, rec.OrbitCollapseX)
		out = append(out, rec)
	}
	return out, nil
}

// symmetryGate is the symmetry regression gate: every symmetry-declaring
// spec carries at least one symmetry record, and the tracked commit-adopt
// n=3 cell shows a strict orbit collapse (> 1x) — a ratio of exactly 1 means
// the canonicalization never merged a single orbit.
func symmetryGate(records []Record) error {
	have := make(map[string]bool)
	tracked := 0.0
	for _, r := range records {
		if r.Engine != "sequential-session-symmetry" {
			continue
		}
		have[r.Spec] = true
		if r.Spec == "commitadopt" && strings.Contains(r.Params, "n=3") && r.OrbitCollapseX > tracked {
			tracked = r.OrbitCollapseX
		}
	}
	for _, s := range spec.All() {
		if s.SupportsSymmetry() && !have[s.Name()] {
			return fmt.Errorf("symmetry gate: spec %q declares symmetry but has no symmetry series", s.Name())
		}
	}
	if tracked <= 1 {
		return fmt.Errorf("symmetry gate: commitadopt n=3 orbit collapse %.2fx is not > 1x", tracked)
	}
	return nil
}

// sampleSeries records one seeded PCT sampling cell per registered spec —
// including specs the exhaustibility probe skips (the BG simulation), for
// which this is the only recorded trajectory. The cell runs at the spec's
// declared sampling budget (capped by -samples) with a single-crash budget
// and the distinct-state coverage estimator on.
func sampleSeries(workers, samples int) ([]Record, error) {
	var out []Record
	for _, s := range spec.All() {
		// A single-crash budget, clamped to the spec's declared crashes
		// domain (Decls may tighten the auto-declared engine params).
		crashes := 1
		for _, d := range s.Params() {
			if d.Name == spec.ParamCrashes {
				if crashes > d.Max {
					crashes = d.Max
				}
				if crashes < d.Min {
					crashes = d.Min
				}
			}
		}
		p, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: crashes})
		if err != nil {
			return nil, fmt.Errorf("%s (sampling): %w", s.Name(), err)
		}
		if spec.Unbounded(s) && p[spec.ParamSteps] <= 0 {
			// Unbounded trees walk to the engine's step default on most
			// schedules; bound the per-run length so the series stays cheap.
			p[spec.ParamSteps] = 800
		}
		job := &service.Job{Spec: s, Params: p, Seed: 1, Engine: service.Engine{
			Mode:     service.ModeSample,
			Workers:  workers,
			Strategy: sample.StrategyPCT,
			Samples:  samples,
			Depth:    s.Sampling().Depth,
		}}
		if b := s.Sampling().Budget; b > 0 && b < samples {
			job.Engine.Samples = b
		}
		_, st, err := service.Execute(context.Background(), job, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s/sample-pct: %w", s.Name(), err)
		}
		rec := Record{
			Sweep:          s.Name() + "/sample",
			Spec:           s.Name(),
			Params:         p.String(),
			Engine:         "sample-pct",
			ElapsedSec:     st.Elapsed.Seconds(),
			Samples:        st.Samples,
			SamplesPerSec:  st.SamplesPerSec(),
			DistinctStates: st.Distinct,
			CoverageSeries: st.Series,
		}
		fmt.Printf("%-28s %-26s %8d samples %8.0f samples/sec %8d distinct states\n",
			rec.Sweep, rec.Engine, rec.Samples, rec.SamplesPerSec, rec.DistinctStates)
		out = append(out, rec)
	}
	return out, nil
}

// sampledSpecsPresent is the sampling presence gate: every registered spec
// must carry a sampling series with a non-empty coverage curve.
func sampledSpecsPresent(records []Record) error {
	have := make(map[string]bool)
	for _, r := range records {
		if strings.HasPrefix(r.Engine, "sample-") && r.Samples > 0 && len(r.CoverageSeries) > 0 {
			have[r.Spec] = true
		}
	}
	for _, s := range spec.All() {
		if !have[s.Name()] {
			return fmt.Errorf("sampling gate: spec %q has no sampling series", s.Name())
		}
	}
	return nil
}

// engineJob is the service job of one (sweep, engine) cell: the
// sequential-* engines run on one worker, the parallel-* ones on workers.
func engineJob(sw sweep, engine string, workers int) (*service.Job, error) {
	e := service.Engine{Mode: service.ModeExhaustive, Workers: 1}
	switch engine {
	case "sequential-session":
	case "parallel-session":
		e.Workers = workers
	case "sequential-session-dedup":
		e.Dedup = true
	case "sequential-session-symmetry":
		e.Dedup, e.Symmetry = true, true
	case "parallel-session-dedup":
		e.Dedup, e.Workers = true, workers
	default:
		return nil, fmt.Errorf("unknown engine %q", engine)
	}
	return &service.Job{Spec: sw.spec, Params: sw.p, Engine: e}, nil
}

// measure runs one (sweep, engine) cell reps times and returns the fastest
// exhausted run.
func measure(sw sweep, engine string, workers, reps int) (explore.Stats, error) {
	var best explore.Stats
	job, err := engineJob(sw, engine, workers)
	if err != nil {
		return best, err
	}
	for r := 0; r < reps; r++ {
		stats, _, err := service.Execute(context.Background(), job, nil, nil)
		if err != nil {
			return best, err
		}
		if !stats.Exhausted {
			return best, fmt.Errorf("sweep did not exhaust")
		}
		if r == 0 || stats.Elapsed < best.Elapsed {
			best = stats
		}
	}
	return best, nil
}
