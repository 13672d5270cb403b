package main

// The engine workloads: tree and dedup call the exhaustive walker
// (explore.ExploreSession at one worker, explore.ExploreParallel at two),
// sample calls the sampling engine (sample.Run, sample.RunParallel). Each
// round runs every cell once at one worker, then once at two.

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
)

// cell is one checked configuration and the answers it must give.
type cell struct {
	label string
	spec  string
	set   spec.Params
	base  explore.Config // Dedup, Symmetry and MaxRuns of exhaustive cells
	// samples is the draw budget of sampling cells (0 = exhaustive cell).
	samples int

	want golden

	s spec.Spec
	p spec.Params
}

// golden pins what a cell's check returns. The counts were taken from the
// engines at the commit that introduced this benchmark; an engine change
// that alters any of them changes the checked state space.
type golden struct {
	runs      int
	exhausted bool
	// Store counters of the one-worker walk (zero without dedup). With two
	// workers the dedup counts depend on timing and only the verdict is
	// pinned.
	states, hits, lookups int64
	// Distinct states of a sampling cell at refSeed.
	refDistinct int64
}

// refSeed is the seed the sampling goldens were taken at.
const refSeed = 1

// Tree: dedup off, so fingerprints and the visited store do no work.
func treeCells() []*cell {
	return []*cell{
		{label: "commitadopt n=3", spec: "commitadopt", set: spec.Params{"n": 3},
			want: golden{runs: 756756, exhausted: true}},
		{label: "commitadopt n=3 crashes=1 maxruns=150000", spec: "commitadopt", set: spec.Params{"n": 3, "crashes": 1},
			base: explore.Config{MaxRuns: 150000}, want: golden{runs: 150000}},
	}
}

// Dedup: the store does most of its work; one cell mostly hits, the other
// mostly inserts orbit-canonical fingerprints.
func dedupCells() []*cell {
	return []*cell{
		{label: "xsafe n=4 x=2 dedup", spec: "xsafe", set: spec.Params{"n": 4, "x": 2},
			base: explore.Config{Dedup: true},
			want: golden{runs: 65269, exhausted: true, states: 33736, hits: 64549, lookups: 98285}},
		{label: "commitadopt n=4 crashes=1 dedup+symmetry", spec: "commitadopt", set: spec.Params{"n": 4, "crashes": 1},
			base: explore.Config{Dedup: true, Symmetry: true},
			want: golden{runs: 24765, exhausted: true, states: 15568, hits: 17512, lookups: 33080}},
	}
}

// Sample: seeded PCT draws of the BG simulation, the only harness on the
// inline (goroutine) protocol.
func sampleCells() []*cell {
	return []*cell{
		{label: "bg n=2 t=1 crashes=1 pct", spec: "bg", set: spec.Params{"n": 2, "t": 1, "crashes": 1},
			samples: 2000, want: golden{runs: 2000, refDistinct: 425}},
		{label: "bg n=3 t=1 pct", spec: "bg", set: spec.Params{"n": 3, "t": 1},
			samples: 1500, want: golden{runs: 1500, refDistinct: 851}},
	}
}

// resolve looks a cell up in the registry and folds its engine parameters.
func (c *cell) resolve() error {
	s, err := spec.Lookup(c.spec)
	if err != nil {
		return err
	}
	p, err := spec.Resolve(s, c.set)
	if err != nil {
		return err
	}
	if c.samples == 0 {
		if c.base, err = spec.Config(s, p, c.base); err != nil {
			return err
		}
	}
	c.s, c.p = s, p
	return nil
}

// outcome is what one engine call returned, in the fields the checks and
// the metrics read.
type outcome struct {
	runs      int
	exhausted bool
	distinct  int64
	dedup     explore.DedupStats
	workers   []explore.WorkerStats
	sworkers  []sample.WorkerStats
	elapsed   time.Duration
}

// call runs a cell once at the given worker count, budget (runs, or
// samples) and sampling seed, traced when tr is non-nil.
func (c *cell) call(workers, budget int, seed int64, tr *callTrace) (outcome, error) {
	newSession := spec.Factory(c.s, c.p)
	var rs explore.RuntimeSource
	if tr != nil {
		newSession = func() explore.Session { return tr.wrap(c.s.New(c.p)) }
		rs = runtimeSource{tr}
	}
	if c.samples > 0 {
		// Coverage on, as the CLI and the daemon run sampling.
		cfg := sample.Config{
			Samples:    budget,
			Seed:       seed,
			MaxCrashes: c.p[spec.ParamCrashes],
			MaxSteps:   c.p[spec.ParamSteps],
			Depth:      c.s.Sampling().Depth,
			Workers:    workers,
			Coverage:   true,
			Runtime:    rs,
		}
		var st sample.Stats
		var err error
		if workers == 1 {
			st, err = sample.Run(newSession(), sample.StrategyPCT, cfg)
		} else {
			st, err = sample.RunParallel(newSession, sample.StrategyPCT, cfg)
		}
		return outcome{runs: st.Samples, distinct: st.Distinct, sworkers: st.Workers, elapsed: st.Elapsed}, err
	}
	cfg := c.base
	cfg.Workers = workers
	cfg.Runtime = rs
	if budget > 0 {
		cfg.MaxRuns = budget
	}
	var st explore.Stats
	var err error
	if workers == 1 {
		st, err = explore.ExploreSession(newSession(), cfg)
	} else {
		st, err = explore.ExploreParallel(newSession, cfg)
	}
	return outcome{runs: st.Runs, exhausted: st.Exhausted, dedup: st.Dedup, workers: st.Workers, elapsed: st.Elapsed}, err
}

// verify checks a full-size call of the cell against its golden.
func (c *cell) verify(o outcome, err error, workers int) error {
	if err != nil {
		return fmt.Errorf("%s at %d workers: %w", c.label, workers, err)
	}
	w := c.want
	parallelDedup := workers > 1 && c.base.Dedup
	switch {
	case o.exhausted != w.exhausted:
		return fmt.Errorf("%s at %d workers: exhausted=%v, want %v", c.label, workers, o.exhausted, w.exhausted)
	case !parallelDedup && o.runs != w.runs:
		return fmt.Errorf("%s at %d workers: %d runs, want %d", c.label, workers, o.runs, w.runs)
	case parallelDedup && o.runs <= 0:
		return fmt.Errorf("%s at %d workers: no runs", c.label, workers)
	case workers == 1 && c.base.Dedup && (o.dedup.States != w.states || o.dedup.Hits != w.hits || o.dedup.Lookups != w.lookups):
		return fmt.Errorf("%s: store states/hits/lookups %d/%d/%d, want %d/%d/%d", c.label,
			o.dedup.States, o.dedup.Hits, o.dedup.Lookups, w.states, w.hits, w.lookups)
	}
	return nil
}

// engineBench is an engine workload: its cells in the seed's order.
type engineBench struct {
	b     *bench
	cells []*cell
}

func newEngineBench(b *bench, cells []*cell) *engineBench {
	rng := rand.New(rand.NewPCG(uint64(b.seed), 0x5eed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return &engineBench{b: b, cells: cells}
}

// setupOnce resolves the cells, spawns the runtime sessions their engines
// need, and warms every engine path the cells take with a small budget:
// session spawns, store allocation and the first touch of the code.
func (e *engineBench) setupOnce() (func(), error) {
	for _, c := range e.cells {
		if err := c.resolve(); err != nil {
			return nil, err
		}
		s := c.s.New(c.p)
		rt, err := sched.NewSessionWith(len(s.Make()), sched.SessionOptions{Direct: !s.ForeignStep})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		rt.Close()
		for _, w := range []int{1, 2} {
			budget := 500
			if c.samples > 0 {
				budget = 50
			}
			if _, err := c.call(w, budget, e.b.seed, nil); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", c.label, err)
			}
		}
	}
	return func() {}, nil
}

// phaseStats is one phase's totals, for the metrics.
type phaseStats struct {
	wall     time.Duration
	runs     int
	distinct int64
	dedup    explore.DedupStats
	trace    callStats
	setups   []float64 // per call, ms
	mallocs  uint64
	bytes    uint64
	busy     []float64 // per parallel call: Σ busy / (workers × elapsed)
	skew     []float64 // per parallel call: max/min worker runs
}

// phase runs every cell once at the given worker count and checks it.
func (e *engineBench) phase(r *round, workers int) phaseStats {
	var ps phaseStats
	var m0, m1 runtime.MemStats
	for _, c := range e.cells {
		var tr *callTrace
		if r.traced {
			tr = newCallTrace(e.b.spans, fmt.Sprintf("%s w=%d", c.label, workers), 256)
			runtime.ReadMemStats(&m0)
		}
		t := time.Now()
		o, err := c.call(workers, c.samples, e.b.seed, tr)
		ps.wall += time.Since(t)
		e.b.op(c.verify(o, err, workers))
		ps.runs += o.runs
		ps.distinct += o.distinct
		ps.dedup.States += o.dedup.States
		ps.dedup.Hits += o.dedup.Hits
		ps.dedup.Lookups += o.dedup.Lookups
		ps.dedup.Evictions += o.dedup.Evictions
		if tr == nil {
			continue
		}
		runtime.ReadMemStats(&m1)
		ps.mallocs += m1.Mallocs - m0.Mallocs
		ps.bytes += m1.TotalAlloc - m0.TotalAlloc
		cs := tr.finish()
		ps.setups = append(ps.setups, float64(cs.setupNs)/1e6)
		ps.trace.add(cs)
		busy, skew := workerBalance(o)
		if busy > 0 {
			ps.busy = append(ps.busy, busy)
			ps.skew = append(ps.skew, skew)
		}
	}
	return ps
}

func (a *callStats) add(b callStats) {
	a.runs += b.runs
	a.steps += b.steps
	a.fpCalls += b.fpCalls
	a.makeNs += b.makeNs
	a.execNs += b.execNs
	a.checkNs += b.checkNs
	a.fpNs += b.fpNs
	a.betweenNs += b.betweenNs
	a.betweens += b.betweens
	a.acquires += b.acquires
	a.makeD = append(a.makeD, b.makeD...)
	a.execD = append(a.execD, b.execD...)
	a.checkD = append(a.checkD, b.checkD...)
}

// workerBalance is the busy fraction Σ busy / (workers × elapsed) and the
// max/min run ratio of a parallel call (0, 0 when no worker ran).
func workerBalance(o outcome) (busy, skew float64) {
	var busySum time.Duration
	var runs []int
	for _, w := range o.workers {
		busySum += w.Busy
		runs = append(runs, w.Runs)
	}
	for _, w := range o.sworkers {
		busySum += w.Busy
		runs = append(runs, w.Samples)
	}
	if len(runs) == 0 || o.elapsed <= 0 {
		return 0, 0
	}
	lo, hi := runs[0], runs[0]
	for _, n := range runs {
		lo, hi = min(lo, n), max(hi, n)
	}
	busy = busySum.Seconds() / (float64(len(runs)) * o.elapsed.Seconds())
	if lo > 0 {
		skew = float64(hi) / float64(lo)
	}
	return busy, skew
}

func durations(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineRound runs one round: every cell at one worker, then at two.
func (e *engineBench) engineRound(r *round) (time.Duration, error) {
	p1 := e.phase(r, 1)
	p2 := e.phase(r, 2)
	r.e2e("verdict_s", p1.wall.Seconds())
	r.e2e("verdict_s_2w", p2.wall.Seconds())
	r.e2e("ops_1w", float64(p1.runs)/p1.wall.Seconds())
	r.e2e("ops_2w", float64(p2.runs)/p2.wall.Seconds())

	sampling := e.cells[0].samples > 0
	if sampling {
		r.exact("sample.distinct_states", float64(p1.distinct))
		if p1.distinct != p2.distinct {
			e.b.op(fmt.Errorf("distinct states: %d at one worker, %d at two", p1.distinct, p2.distinct))
		}
	} else {
		r.exact("explore.dedup_states", float64(p1.dedup.States))
		r.exact("explore.dedup_evictions", float64(p1.dedup.Evictions))
		r.exact("explore.dedup_lookups_per_run", ratio(float64(p1.dedup.Lookups), float64(p1.runs)))
		r.exact("explore.dedup_hit_ratio", ratio(float64(p1.dedup.Hits), float64(p1.dedup.Lookups)))
	}
	if !r.traced {
		return p1.wall + p2.wall, nil
	}
	t := p1.trace
	r.layer("harness.make_ns", median(durations(t.makeD)))
	r.layer("harness.check_ns", median(durations(t.checkD)))
	r.layer("harness.fingerprint_ns", ratio(float64(t.fpNs), float64(t.fpCalls)))
	r.exact("harness.fingerprint_calls_per_run", ratio(float64(t.fpCalls), float64(t.runs)))
	r.layer("sched.ns_per_step", ratio(float64(t.execNs), float64(t.steps)))
	r.layer("explore.runtime_acquires", float64(p1.trace.acquires+p2.trace.acquires))
	busy, skew := median(p2.busy), median(p2.skew)
	r.layer("explore.worker_busy_frac", busy)
	r.layer("explore.worker_run_skew", skew)
	if sampling {
		r.layer("sample.exec_ns", median(durations(t.execD)))
		r.exact("sample.steps_per_sample", ratio(float64(t.steps), float64(t.runs)))
		r.layer("sample.ns_per_step", ratio(float64(t.execNs), float64(t.steps)))
		r.layer("sample.allocs_per_sample", ratio(float64(p1.mallocs), float64(t.runs)))
		r.layer("sample.setup_ms", median(p1.setups))
	} else {
		r.layer("run.exec_ns", median(durations(t.execD)))
		r.exact("run.steps", ratio(float64(t.steps), float64(t.runs)))
		r.layer("explore.between_runs_ns", ratio(float64(t.betweenNs), float64(t.betweens)))
		r.layer("explore.setup_ms", median(p1.setups))
		r.layer("explore.allocs_per_run", ratio(float64(p1.mallocs), float64(t.runs)))
		r.layer("explore.bytes_per_run", ratio(float64(p1.bytes), float64(t.runs)))
	}
	return p1.wall + p2.wall, nil
}

// runEngine is the whole run of an engine workload. gate, when non-nil,
// runs after the set-up and before the measured rounds.
func runEngine(b *bench, cells []*cell, gate func()) (*engineBench, error) {
	e := newEngineBench(b, cells)
	td, err := b.setup(e.setupOnce)
	if err != nil {
		return nil, err
	}
	defer td()
	if gate != nil {
		gate()
	}
	if err := b.measure(e.engineRound); err != nil {
		return nil, err
	}
	return e, nil
}

func runTree(b *bench) error {
	if _, err := runEngine(b, treeCells(), nil); err != nil {
		return err
	}
	b.noteCommon()
	b.note("runs_per_sec", "1/s", median(b.e2e["ops_1w"]), "sequential sweep")
	b.note("runs_per_sec_2w", "1/s", median(b.e2e["ops_2w"]), "2 workers")
	return nil
}

func runDedup(b *bench) error {
	if _, err := runEngine(b, dedupCells(), nil); err != nil {
		return err
	}
	b.noteCommon()
	b.note("verdict_s", "s", median(b.e2e["verdict_s"]), "sequential sweep")
	b.note("verdict_s_2w", "s", median(b.e2e["verdict_s_2w"]), "2 workers")
	return nil
}

func runSample(b *bench) error {
	cells := sampleCells()
	// The pinned distinct-state counts at refSeed gate the measured rounds.
	gate := func() {
		for _, c := range cells {
			o, err := c.call(1, c.samples, refSeed, nil)
			if err == nil && (o.runs != c.want.runs || o.distinct != c.want.refDistinct) {
				err = fmt.Errorf("%s at seed %d: %d samples, %d distinct states; want %d, %d",
					c.label, refSeed, o.runs, o.distinct, c.want.runs, c.want.refDistinct)
			}
			b.op(err)
		}
	}
	if _, err := runEngine(b, cells, gate); err != nil {
		return err
	}
	b.noteCommon()
	b.note("samples_per_sec", "1/s", median(b.e2e["ops_1w"]), "1 worker")
	return nil
}

// noteCommon adds the metrics every workload reports to the stderr report.
func (b *bench) noteCommon() {
	b.note("setup_s", "s", median(b.e2e["setup_s"]), fmt.Sprintf("median of %d set-ups", setupReps))
	b.note("peak_heap_mb", "MiB", median(b.e2e["peak_heap_mb"]), fmt.Sprintf("median of %d rounds", len(b.e2e["peak_heap_mb"])))
}
