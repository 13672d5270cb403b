// Command perfbench is the repository benchmark: it drives one named
// workload through the public entry points of the checking engines
// (internal/explore, internal/explore/sample) or the exploration daemon
// (internal/service), checks every verdict and count it gets back, and
// prints the measured metrics as one JSON line on standard output.
//
//	perfbench --workload tree|dedup|sample|daemon --seed N --seconds S --trace 0|1
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run (see trace.go), and the span
// trace is written under .bench_build/perfbench/trace. A human-readable
// report goes to standard error. See README.md for the metrics, the
// workloads and why each exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	_ "mpcn/internal/explore/sessions" // registers the spec corpus
)

// Repetitions of the set-up procedure; setup_s is their median.
const setupReps = 9

// minRounds is the least number of measured rounds of a run: a round repeats
// the same seeded inputs, so two rounds already give the exact-repeat check.
const minRounds = 3

var workloads = map[string]func(*bench) error{
	"tree":   runTree,
	"dedup":  runDedup,
	"sample": runSample,
	"daemon": runDaemon,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tree, dedup, sample or daemon")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload tree|dedup|sample|daemon, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	b.heap.start()
	err := wl(b)
	b.heap.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := b.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if b.trace {
		path := filepath.Join(".bench_build", "perfbench", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := b.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	}
	fmt.Println(string(out))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// bench holds one run's settings and everything it measured.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool

	heap  *heapWatch
	spans *spanLog

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	e2e       map[string][]float64 // per-round end-to-end values
	layer     map[string][]float64 // per-round per-layer values (traced rounds)
	exact     map[string]float64   // host-independent counts every round repeats
	report    []string             // workload-specific metrics for the stderr report
	wallPlain []float64            // measured wall clock of untraced rounds
	wallTrace []float64            // the same for traced rounds
}

func newBench(name string, seed int64, seconds time.Duration, trace bool) *bench {
	return &bench{
		name: name, seed: seed, seconds: seconds, trace: trace,
		heap:  &heapWatch{},
		spans: newSpanLog(),
		e2e:   make(map[string][]float64),
		layer: make(map[string][]float64),
		exact: make(map[string]float64),
	}
}

// op counts one attempted operation; a non-nil err marks it failed.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// setup runs the workload's set-up procedure setupReps times from scratch,
// records the median as setup_s, and keeps the last instance for the
// measured rounds.
func (b *bench) setup(fn func() (teardown func(), err error)) (func(), error) {
	var ds []float64
	var td func()
	for i := 0; i < setupReps; i++ {
		if td != nil {
			td()
		}
		runtime.GC()
		t := time.Now()
		var err error
		td, err = fn()
		ds = append(ds, time.Since(t).Seconds())
		if err != nil {
			if td != nil {
				td()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	b.e2e["setup_s"] = []float64{median(ds)}
	return td, nil
}

// round is one measured repetition of the workload's seeded inputs.
type round struct {
	b      *bench
	index  int
	traced bool
}

// e2e records an end-to-end value; traced rounds do not count.
func (r *round) e2e(name string, v float64) {
	if !r.traced {
		r.b.e2e[name] = append(r.b.e2e[name], v)
	}
}

// layer records a per-layer value; only traced rounds measure them.
func (r *round) layer(name string, v float64) {
	if r.traced {
		r.b.layer[name] = append(r.b.layer[name], v)
	}
}

// exact records a host-independent count: every round of the run, traced or
// not, must reproduce it exactly.
func (r *round) exact(name string, v float64) {
	b := r.b
	if old, ok := b.exact[name]; ok && old != v {
		b.op(fmt.Errorf("%s: round %d counted %v, an earlier round %v", name, r.index, v, old))
	}
	b.exact[name] = v
	r.layer(name, v)
}

// measure repeats fn until the run's measured seconds are used up (at least
// minRounds rounds, and no round started that would overrun by more than a
// median round). fn returns the round's measured wall clock. Under --trace 1
// rounds alternate untraced and traced, and the ratio of their wall clocks
// is the tracing overhead.
func (b *bench) measure(fn func(r *round) (time.Duration, error)) error {
	start := time.Now()
	var rounds []float64
	need := minRounds
	if b.trace {
		need = 2 * minRounds
	}
	for i := 0; ; i++ {
		r := &round{b: b, index: i, traced: b.trace && i%2 == 1}
		runtime.GC()
		b.heap.reset()
		t := time.Now()
		wall, err := fn(r)
		if err != nil {
			return err
		}
		rounds = append(rounds, time.Since(t).Seconds())
		r.e2e("peak_heap_mb", float64(b.heap.peak())/(1<<20))
		if r.traced {
			b.wallTrace = append(b.wallTrace, wall.Seconds())
		} else {
			b.wallPlain = append(b.wallPlain, wall.Seconds())
		}
		el := time.Since(start)
		if i+1 >= need && el+time.Duration(median(rounds)*float64(time.Second)) > b.seconds {
			return nil
		}
	}
}

// note adds a workload-specific metric to the stderr report.
func (b *bench) note(name, unit string, v float64, extra string) {
	b.report = append(b.report, fmt.Sprintf("  %-26s %14.6g %-6s %s", name, v, unit, extra))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"verdict_s_2w", "s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer lists the per-layer metrics of the traced run. A metric of a
// layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"harness.make_ns", "ns"},
	{"harness.check_ns", "ns"},
	{"harness.fingerprint_ns", "ns"},
	{"harness.fingerprint_calls_per_run", "count"},
	{"run.exec_ns", "ns"},
	{"run.steps", "count"},
	{"sched.ns_per_step", "ns"},
	{"explore.between_runs_ns", "ns"},
	{"explore.setup_ms", "ms"},
	{"explore.allocs_per_run", "count"},
	{"explore.bytes_per_run", "B"},
	{"explore.dedup_lookups_per_run", "count"},
	{"explore.dedup_hit_ratio", "ratio"},
	{"explore.dedup_states", "count"},
	{"explore.dedup_evictions", "count"},
	{"explore.worker_busy_frac", "ratio"},
	{"explore.worker_run_skew", "ratio"},
	{"explore.runtime_acquires", "count"},
	{"sample.exec_ns", "ns"},
	{"sample.steps_per_sample", "count"},
	{"sample.ns_per_step", "ns"},
	{"sample.allocs_per_sample", "count"},
	{"sample.setup_ms", "ms"},
	{"sample.distinct_states", "count"},
	{"service.submit_ms_p50", "ms"},
	{"service.submit_ms_p99", "ms"},
	{"service.wait_ms_p50", "ms"},
	{"service.engine_ms_mean", "ms"},
	{"service.prepare_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.pool_reuse_ratio", "ratio"},
	{"service.jobs_retained", "count"},
	{"service.heap_bytes_per_job", "B"},
	{"trace.overhead_frac", "ratio"},
}

// result renders the final JSON line and prints the report to stderr.
func (b *bench) result() ([]byte, error) {
	ms := make(map[string]metric)
	if b.trace {
		if len(b.wallPlain) > 0 && len(b.wallTrace) > 0 {
			b.layer["trace.overhead_frac"] = []float64{median(b.wallTrace)/median(b.wallPlain) - 1}
		}
		for _, m := range perLayer {
			ms[m.name] = metric{median(b.layer[m.name]), m.unit}
		}
	} else {
		for _, m := range endToEnd {
			vs := b.e2e[m.name]
			if len(vs) == 0 {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			ms[m.name] = metric{median(vs), m.unit}
		}
	}
	errFrac := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Fprintf(os.Stderr, "workload %s seed %d trace %v: %d operations, %d failed\n", b.name, b.seed, b.trace, b.attempted, b.failed)
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", f)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	if !b.trace {
		fmt.Fprintf(os.Stderr, "workload-specific metrics:\n%s\n  %-26s %14.6g %-6s\n",
			strings.Join(b.report, "\n"), "error_frac", errFrac, "ratio")
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, max(b.attempted, 1), b.failed, ms})
}

// heapWatch tracks the peak heap between resets by polling the runtime's
// heap-object byte count, which needs no stop-the-world.
type heapWatch struct {
	max  atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func (h *heapWatch) start() {
	h.quit = make(chan struct{})
	h.done = make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.poll()
			}
		}
	}()
}

func (h *heapWatch) stop() {
	close(h.quit)
	<-h.done
}

func (h *heapWatch) poll() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapWatch) reset() {
	h.max.Store(0)
	h.poll()
}

func (h *heapWatch) peak() uint64 {
	h.poll()
	return h.max.Load()
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation (0 for
// none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
