package main

// The traced run. Tracing lives entirely in the benchmark: it wraps the
// harness closures a spec hands the engines (Make, Check, Fingerprint) and
// the engines' runtime source, and it times the daemon's HTTP calls from the
// client side. Nothing inside the program is instrumented.
//
// Every wrapped session is worker-private (the engines call a session from
// one walker at a time), so its recorder keeps plain counters without
// locks. Memory is bounded: exact aggregates for every run, plus the spans of
// every k-th run, capped per process.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

// maxSpans caps the spans one process keeps, whatever the run length.
const maxSpans = 50000

// span is one recorded interval. Start and End are nanoseconds since the
// process's trace epoch; Trace groups the spans of one engine call or job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// aggregate is the exact per-span-name total over every traced interval,
// sampled or not.
type aggregate struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// spanLog collects spans and aggregates for the whole process and writes
// them out when the benchmark ends.
type spanLog struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	nextID  int
	agg     map[string]*aggregate
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), agg: make(map[string]*aggregate)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// id reserves a span identifier.
func (l *spanLog) id() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// add records sampled spans, dropping them once the cap is reached.
func (l *spanLog) add(ss ...span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans)+len(ss) > maxSpans {
		l.dropped += int64(len(ss))
		return
	}
	l.spans = append(l.spans, ss...)
}

// total folds count intervals of the named span into the exact aggregates.
func (l *spanLog) total(name string, count, totalNs, selfNs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.agg[name]
	if a == nil {
		a = &aggregate{}
		l.agg[name] = a
	}
	a.Count += count
	a.TotalNs += totalNs
	a.SelfNs += selfNs
}

// write dumps the trace as one JSON document.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
	doc := struct {
		Aggregates map[string]*aggregate `json:"aggregates"`
		Spans      []span                `json:"spans"`
		Dropped    int64                 `json:"dropped_spans"`
	}{l.agg, l.spans, l.dropped}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runRecord is one sampled run's intervals, in spanLog time.
type runRecord struct {
	makeStart, made, checkStart, checkEnd int64
	fpNs, fpCalls                         int64
}

// recorder traces one wrapped harness session.
type recorder struct {
	every int64

	lastEnd    int64 // Check return of the previous run; 0 before the first
	makeStart  int64
	made       int64
	checkStart int64
	curFpNs    int64
	curFpCalls int64

	runs, makeNs, execNs, checkNs, fpNs, fpCalls, steps, betweenNs, betweens int64

	samples []runRecord
	// Per-call durations of the sampled runs, for medians.
	makeD, execD, checkD []int64
}

// callTrace traces one engine call: the sessions it built, the runtimes it
// acquired and its setup time (call start to the first Make).
type callTrace struct {
	log   *spanLog
	name  string
	every int64
	start int64
	first atomic.Int64 // first Make, any session; 0 = none yet

	acquires atomic.Int64

	mu   sync.Mutex
	recs []*recorder
}

func newCallTrace(log *spanLog, name string, every int) *callTrace {
	return &callTrace{log: log, name: name, every: int64(every), start: log.now()}
}

// wrap returns a copy of s whose Make, Check and Fingerprint report to a
// fresh recorder. Symmetric, Canon and ForeignStep are kept, so the engines
// see the same harness.
func (c *callTrace) wrap(s explore.Session) explore.Session {
	r := &recorder{every: c.every}
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
	log := c.log
	mk, ck, fp := s.Make, s.Check, s.Fingerprint
	s.Make = func() []sched.Proc {
		t := log.now()
		c.first.CompareAndSwap(0, t)
		if r.lastEnd != 0 {
			r.betweenNs += t - r.lastEnd
			r.betweens++
		}
		r.makeStart = t
		r.curFpNs, r.curFpCalls = 0, 0
		bodies := mk()
		r.made = log.now()
		return bodies
	}
	s.Check = func(res *sched.Result) error {
		r.checkStart = log.now()
		err := ck(res)
		end := log.now()
		r.lastEnd = end
		r.record(res.Steps, end)
		return err
	}
	if fp != nil {
		s.Fingerprint = func(h *sched.FP) {
			t := log.now()
			fp(h)
			r.curFpNs += log.now() - t
			r.curFpCalls++
		}
	}
	return s
}

// record folds the run that just finished into the aggregates.
func (r *recorder) record(steps int, end int64) {
	mk := r.made - r.makeStart
	ex := r.checkStart - r.made
	ck := end - r.checkStart
	r.runs++
	r.makeNs += mk
	r.execNs += ex
	r.checkNs += ck
	r.fpNs += r.curFpNs
	r.fpCalls += r.curFpCalls
	r.steps += int64(steps)
	if r.runs%r.every == 1 || r.every == 1 {
		r.makeD = append(r.makeD, mk)
		r.execD = append(r.execD, ex)
		r.checkD = append(r.checkD, ck)
		if len(r.samples) < maxSpans {
			r.samples = append(r.samples, runRecord{r.makeStart, r.made, r.checkStart, end, r.curFpNs, r.curFpCalls})
		}
	}
}

// callStats is what one traced engine call contributes to the layer
// metrics.
type callStats struct {
	runs, steps, fpCalls                     int64
	makeNs, execNs, checkNs, fpNs, betweenNs int64
	betweens                                 int64
	setupNs                                  int64
	acquires                                 int64
	makeD, execD, checkD                     []int64
}

// finish closes the call's span tree and returns its totals. It must be
// called after the engine call returned (no recorder is still running).
func (c *callTrace) finish() callStats {
	end := c.log.now()
	var st callStats
	callID := c.log.id()
	var spans []span
	for _, r := range c.recs {
		st.runs += r.runs
		st.steps += r.steps
		st.fpCalls += r.fpCalls
		st.makeNs += r.makeNs
		st.execNs += r.execNs
		st.checkNs += r.checkNs
		st.fpNs += r.fpNs
		st.betweenNs += r.betweenNs
		st.betweens += r.betweens
		st.makeD = append(st.makeD, r.makeD...)
		st.execD = append(st.execD, r.execD...)
		st.checkD = append(st.checkD, r.checkD...)
		for _, s := range r.samples {
			run := span{ID: c.log.id(), Parent: callID, Trace: callID, Name: "run", Start: s.makeStart, End: s.checkEnd}
			mk := span{ID: c.log.id(), Parent: run.ID, Trace: callID, Name: "make", Start: s.makeStart, End: s.made, Self: s.made - s.makeStart}
			ex := span{ID: c.log.id(), Parent: run.ID, Trace: callID, Name: "exec", Start: s.made, End: s.checkStart,
				Self: s.checkStart - s.made - s.fpNs}
			fp := span{ID: c.log.id(), Parent: ex.ID, Trace: callID, Name: "fingerprint", Start: s.made, End: s.made + s.fpNs,
				Self: s.fpNs, Calls: s.fpCalls}
			ck := span{ID: c.log.id(), Parent: run.ID, Trace: callID, Name: "check", Start: s.checkStart, End: s.checkEnd, Self: s.checkEnd - s.checkStart}
			spans = append(spans, run, mk, ex, fp, ck)
		}
	}
	if f := c.first.Load(); f != 0 {
		st.setupNs = f - c.start
	}
	st.acquires = c.acquires.Load()
	inRuns := st.makeNs + st.execNs + st.checkNs
	spans = append(spans, span{ID: callID, Trace: callID, Name: "call:" + c.name, Start: c.start, End: end, Self: end - c.start - inRuns})
	c.log.add(spans...)
	c.log.total("call", 1, end-c.start, end-c.start-inRuns)
	c.log.total("make", st.runs, st.makeNs, st.makeNs)
	c.log.total("exec", st.runs, st.execNs, st.execNs-st.fpNs)
	c.log.total("fingerprint", st.fpCalls, st.fpNs, st.fpNs)
	c.log.total("check", st.runs, st.checkNs, st.checkNs)
	c.log.total("between", st.betweens, st.betweenNs, st.betweenNs)
	return st
}

// runtimeSource counts the runtimes an engine call acquires. It does what
// the engines do without a source: spawn a fresh session and close it on
// release.
type runtimeSource struct{ call *callTrace }

var _ explore.RuntimeSource = runtimeSource{}

func (s runtimeSource) Acquire(n int, direct bool) (*sched.Session, error) {
	s.call.acquires.Add(1)
	rt, err := sched.NewSessionWith(n, sched.SessionOptions{Direct: direct})
	if err != nil {
		return nil, fmt.Errorf("spawn runtime: %w", err)
	}
	return rt, nil
}

func (s runtimeSource) Release(rt *sched.Session) { rt.Close() }
