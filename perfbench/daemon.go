package main

// The daemon workload: a closed loop of clients against service.NewServer
// behind a loopback net/http listener. Each client POSTs /jobs and reads
// /jobs/{id}/events to the result line before it sends again, as CLI and CI
// callers do. Half of every phase's jobs resubmit a warm set of small
// exhaustive cells (cache hits that still pass through the queue); the other
// half are sampling jobs with fresh seeds (cache misses). Every job sets
// workers:1 and rate limiting is off. Each phase runs against a freshly
// started daemon whose cache was filled with the warm set first.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/service"
)

const (
	// jobsPerPhase is the fixed job count of one phase; half are hits. The
	// daemon keeps every job's coverage store (48 MiB) for its lifetime, so
	// this also bounds the memory a phase holds.
	jobsPerPhase = 16
	// runners and clients bound the load to two threads of each.
	runners = 2
	clients = 2
	// jobSpanEvery keeps the spans of every k-th job of a traced round.
	jobSpanEvery = 8
)

// warmSet is the resubmitted exhaustive cells. The registers cell violates
// its property: its cached record carries a replay script.
var warmSet = []service.Request{
	{Spec: "commitadopt", Params: map[string]string{"n": "2"}, Engine: service.Engine{Workers: 1}},
	{Spec: "commitadopt", Params: map[string]string{"n": "2"}, Engine: service.Engine{Workers: 1, Dedup: true}},
	{Spec: "testandset", Params: map[string]string{"n": "3"}, Engine: service.Engine{Workers: 1}},
	{Spec: "safe", Params: map[string]string{"n": "2", "crashes": "1"}, Engine: service.Engine{Workers: 1}},
	{Spec: "xcompete", Params: map[string]string{"n": "2"}, Engine: service.Engine{Workers: 1}},
	{Spec: "registers", Params: map[string]string{"n": "2", "writes": "1", "readers": "1", "backend": "regular"}, Engine: service.Engine{Workers: 1}},
}

// missSet is the sampling jobs that get fresh seeds.
var missSet = []service.Request{
	{Spec: "commitadopt", Params: map[string]string{"n": "3"}, Engine: service.Engine{Mode: service.ModeSample, Workers: 1, Samples: 100}},
	{Spec: "testandset", Params: map[string]string{"n": "3"}, Engine: service.Engine{Mode: service.ModeSample, Workers: 1, Strategy: "pct", Samples: 100}},
	{Spec: "xsafe", Params: map[string]string{"n": "3", "x": "2", "crashes": "1"}, Engine: service.Engine{Mode: service.ModeSample, Workers: 1, Strategy: "pct", Samples: 100}},
	{Spec: "bg", Params: map[string]string{"n": "2", "t": "1"}, Engine: service.Engine{Mode: service.ModeSample, Workers: 1, Strategy: "pct", Samples: 50}},
}

type daemonBench struct {
	b   *bench
	mix []int // per job of a phase: index into warmSet, or -1-index into missSet

	// want holds each warm cell's record from a direct engine call, with
	// the elapsed time zeroed; first holds the record the daemon returned
	// for the key first, byte for byte.
	want  map[string][]byte
	first map[string][]byte
	warm  []jobResult // the warm-fill jobs of the running daemon

	srv     *service.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
}

// jobResult is one job as a client saw it.
type jobResult struct {
	req     service.Request
	hit     bool
	latency time.Duration // POST sent to result line read
	submit  time.Duration // POST round trip
	start   time.Time
	cached  bool
	raw     []byte // the result object, as sent
	err     error
}

func runDaemon(b *bench) error {
	d := &daemonBench{b: b, want: make(map[string][]byte), first: make(map[string][]byte)}
	rng := rand.New(rand.NewPCG(uint64(b.seed), 0xd43)) // the job mix
	for i := 0; i < jobsPerPhase; i++ {
		if i < jobsPerPhase/2 {
			d.mix = append(d.mix, i%len(warmSet))
		} else {
			d.mix = append(d.mix, -1-i%len(missSet))
		}
	}
	rng.Shuffle(len(d.mix), func(i, j int) { d.mix[i], d.mix[j] = d.mix[j], d.mix[i] })

	td, err := b.setup(d.start)
	if err != nil {
		return err
	}
	// The direct engine records every warm-set answer is checked against.
	for _, req := range warmSet {
		key, rec, err := direct(req)
		b.op(err)
		if err != nil {
			td()
			return err
		}
		d.want[key] = rec
	}
	d.checkWarm()
	td()

	var hits, misses, jobsPerSec []float64
	err = b.measure(func(r *round) (time.Duration, error) {
		var wall time.Duration
		var traced []jobResult
		for phase, n := range []int{1, clients} {
			res, w, err := d.phase(r, phase, n)
			if err != nil {
				return 0, err
			}
			wall += w
			if phase == 0 {
				r.e2e("verdict_s", w.Seconds())
			} else {
				r.e2e("verdict_s_2w", w.Seconds())
				if !r.traced {
					jobsPerSec = append(jobsPerSec, float64(len(res))/w.Seconds())
				}
			}
			for _, j := range res {
				if r.traced {
					traced = append(traced, j)
				} else if j.hit {
					hits = append(hits, j.latency.Seconds()*1e3)
				} else {
					misses = append(misses, j.latency.Seconds()*1e3)
				}
			}
		}
		if r.traced {
			d.layers(r, traced)
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	b.noteCommon()
	b.note("jobs_per_sec", "1/s", median(jobsPerSec), fmt.Sprintf("%d clients, closed loop", clients))
	notePercentiles(b, "cached_verdict", hits)
	notePercentiles(b, "uncached_verdict", misses)
	return nil
}

// phase starts a daemon, sends one phase's jobs from n clients, checks
// them, and shuts the daemon down. It returns the jobs and the wall clock
// of sending them. A fresh daemon per phase bounds the memory the daemon
// retains per job (every job's record and engine counters stay in its job
// table) to one phase's jobs.
func (d *daemonBench) phase(r *round, phase, n int) ([]jobResult, time.Duration, error) {
	runtime.GC() // the previous daemon's job table is garbage now
	td, err := d.start()
	if err != nil {
		if td != nil {
			td()
		}
		return nil, 0, err
	}
	d.checkWarm()
	var m0, m1 runtime.MemStats
	if r.traced {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	st0, err := d.stats()
	if err != nil {
		td()
		return nil, 0, err
	}
	res, wall := d.send(r, phase, n)
	st1, err := d.stats()
	if err != nil {
		td()
		return nil, 0, err
	}
	if r.traced {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		r.layer("service.heap_bytes_per_job", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(len(res)))
		r.layer("service.jobs_retained", float64(st1.Jobs))
	}
	td()
	runtime.GC() // drop the daemon's job table before the checks allocate
	d.verify(res)
	dh := st1.Cache.Hits - st0.Cache.Hits
	dall := dh + st1.Cache.Misses - st0.Cache.Misses + st1.Cache.Joins - st0.Cache.Joins
	r.exact("service.cache_hit_ratio", ratio(float64(dh), float64(dall)))
	if dh*2 != dall {
		d.b.op(fmt.Errorf("cache hits %d of %d jobs, designed half", dh, dall))
	}
	dr := st1.Pool.Reused - st0.Pool.Reused
	r.layer("service.pool_reuse_ratio", ratio(float64(dr), float64(dr+st1.Pool.Spawned-st0.Pool.Spawned)))
	return res, wall, nil
}

// notePercentiles reports a latency class's median and its 99th percentile
// while at least ten samples lie beyond it; otherwise the 90th, under the
// same rule.
func notePercentiles(b *bench, name string, ms []float64) {
	b.note(name+"_p50_ms", "ms", quantile(ms, 0.5), fmt.Sprintf("%d jobs", len(ms)))
	switch {
	case len(ms) >= 1000:
		b.note(name+"_p99_ms", "ms", quantile(ms, 0.99), fmt.Sprintf("%d jobs", len(ms)))
	case len(ms) >= 100:
		b.note(name+"_p90_ms", "ms", quantile(ms, 0.90), fmt.Sprintf("%d jobs, too few for p99", len(ms)))
	}
}

// direct runs a request's job on the engine directly, as the daemon's
// runner would, and returns its key and record with the elapsed time
// zeroed.
func direct(req service.Request) (string, []byte, error) {
	j, err := service.Prepare(req)
	if err != nil {
		return "", nil, err
	}
	var res service.Result
	if j.Engine.Mode == service.ModeSample {
		cfg, err := j.SampleConfig()
		if err != nil {
			return "", nil, err
		}
		st, err := sample.Run(j.Spec.New(j.Params), j.Engine.Strategy, cfg)
		res = service.NewResult(j, explore.Stats{}, st, err)
	} else {
		cfg, err := j.ExploreConfig()
		if err != nil {
			return "", nil, err
		}
		st, err := explore.ExploreSession(j.Spec.New(j.Params), cfg)
		res = service.NewResult(j, st, sample.Stats{}, err)
	}
	rec, err := timeless(res)
	return j.Key(), rec, err
}

// timeless renders a record without its elapsed time, the one field two
// computations of the same job may disagree on.
func timeless(r service.Result) ([]byte, error) {
	if r.Explore != nil {
		e := *r.Explore
		e.ElapsedMS = 0
		r.Explore = &e
	}
	if r.Sample != nil {
		s := *r.Sample
		s.ElapsedMS = 0
		r.Sample = &s
	}
	return json.Marshal(r)
}

// start starts a server and its listener, connects the clients, and
// fills the cache with the warm set.
func (d *daemonBench) start() (func(), error) {
	d.srv = service.NewServer(service.ServerConfig{Runners: runners})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	d.base = "http://" + ln.Addr().String()
	d.clients = nil
	for i := 0; i < clients; i++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	clear(d.first)
	d.warm = d.warm[:0]
	for _, req := range warmSet {
		j := d.do(d.clients[0], req, false)
		if j.err != nil {
			d.b.op(j.err)
			return d.teardown, j.err
		}
		d.first[keyOf(req)] = j.raw
		d.warm = append(d.warm, j)
	}
	return d.teardown, nil
}

// checkWarm checks the warm-set records of the running daemon against the
// direct engine calls.
func (d *daemonBench) checkWarm() {
	for _, j := range d.warm {
		d.b.op(d.checkMiss(j))
	}
}

func (d *daemonBench) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx) // open event streams end with their jobs
	<-d.served
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	d.srv.Close()
	d.srv, d.hs, d.clients = nil, nil, nil
}

func keyOf(req service.Request) string {
	j, err := service.Prepare(req)
	if err != nil {
		return ""
	}
	return j.Key()
}

// send sends one phase's jobs from n clients and returns them with the
// wall clock of the whole phase.
func (d *daemonBench) send(r *round, phase, n int) ([]jobResult, time.Duration) {
	reqs := make([]service.Request, len(d.mix))
	for i, m := range d.mix {
		if m >= 0 {
			reqs[i] = warmSet[m]
			continue
		}
		req := missSet[-1-m]
		// A fresh, positive seed per job, round and phase: never seen by
		// the cache before.
		req.Seed = int64(mix64(uint64(d.b.seed), uint64(r.index), uint64(phase), uint64(i))>>1) | 1
		reqs[i] = req
	}
	out := make([]jobResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = d.do(cl, reqs[i], d.mix[i] >= 0)
			}
		}(d.clients[c])
	}
	wg.Wait()
	return out, time.Since(t)
}

// do submits one job and reads its event stream to the result line.
func (d *daemonBench) do(c *http.Client, req service.Request, hit bool) jobResult {
	j := jobResult{req: req, hit: hit, start: time.Now()}
	body, err := json.Marshal(req)
	if err != nil {
		j.err = err
		return j
	}
	resp, err := c.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("status %s", resp.Status)
	}
	if err != nil {
		j.err = fmt.Errorf("submit %s: %w", req.Spec, err)
		return j
	}
	j.submit = time.Since(j.start)
	resp, err = c.Get(d.base + "/jobs/" + st.ID + "/events")
	if err != nil {
		j.err = fmt.Errorf("events: %w", err)
		return j
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Type   string          `json:"type"`
			Result json.RawMessage `json:"result"`
			Cached bool            `json:"cached"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			j.err = fmt.Errorf("events of %s: %w", st.ID, err)
			return j
		}
		if ev.Type == "result" {
			j.latency = time.Since(j.start)
			j.raw, j.cached = ev.Result, ev.Cached
			io.Copy(io.Discard, resp.Body)
			return j
		}
	}
	j.err = fmt.Errorf("events of %s ended without a result: %v", st.ID, sc.Err())
	return j
}

// verify checks every job of a phase: a hit must be the key's first record
// byte for byte, a miss must equal a direct engine call on the same job.
func (d *daemonBench) verify(res []jobResult) {
	for _, j := range res {
		err := j.err
		if err == nil && j.hit {
			if !j.cached {
				err = fmt.Errorf("%s resubmission was not answered from the cache", j.req.Spec)
			} else if first := d.first[keyOf(j.req)]; !bytes.Equal(j.raw, first) {
				err = fmt.Errorf("%s cache hit differs from the first record:\n%s\n%s", j.req.Spec, j.raw, first)
			}
		} else if err == nil {
			err = d.checkMiss(j)
		}
		d.b.op(err)
	}
}

// checkMiss compares a computed (uncached) record with the direct engine's.
func (d *daemonBench) checkMiss(j jobResult) error {
	if j.cached {
		return fmt.Errorf("%s seed %d: fresh job answered from the cache", j.req.Spec, j.req.Seed)
	}
	var got service.Result
	if err := json.Unmarshal(j.raw, &got); err != nil {
		return err
	}
	have, err := timeless(got)
	if err != nil {
		return err
	}
	key := keyOf(j.req)
	want, ok := d.want[key]
	if !ok {
		_, want, err = direct(j.req)
		if err != nil {
			return err
		}
	}
	if !bytes.Equal(have, want) {
		return fmt.Errorf("daemon record differs from the direct engine call:\n%s\n%s", have, want)
	}
	return nil
}

// stats reads GET /stats.
func (d *daemonBench) stats() (service.StatsRecord, error) {
	var st service.StatsRecord
	resp, err := d.clients[0].Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, errors.New("stats: " + resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// layers derives the service-layer metrics of a traced round and records
// the spans of every jobSpanEvery-th job.
func (d *daemonBench) layers(r *round, jobs []jobResult) {
	var submit, wait []float64
	var engineMs, engineN float64
	log := d.b.spans
	for i, j := range jobs {
		if j.err != nil {
			continue
		}
		var res service.Result
		if err := json.Unmarshal(j.raw, &res); err != nil {
			continue
		}
		eng := 0.0
		if !j.cached {
			if res.Sample != nil {
				eng = float64(res.Sample.ElapsedMS)
			} else if res.Explore != nil {
				eng = float64(res.Explore.ElapsedMS)
			}
			engineMs += eng
			engineN++
		}
		submit = append(submit, j.submit.Seconds()*1e3)
		wait = append(wait, (j.latency-j.submit).Seconds()*1e3-eng)

		start := int64(j.start.Sub(log.epoch))
		acc, end := start+int64(j.submit), start+int64(j.latency)
		log.total("job", 1, end-start, 0)
		log.total("submit", 1, acc-start, acc-start)
		log.total("events", 1, end-acc, end-acc)
		if i%jobSpanEvery == 0 {
			id := log.id()
			log.add(
				span{ID: id, Trace: id, Name: "job:" + j.req.Spec, Start: start, End: end},
				span{ID: log.id(), Parent: id, Trace: id, Name: "submit", Start: start, End: acc, Self: acc - start},
				span{ID: log.id(), Parent: id, Trace: id, Name: "events", Start: acc, End: end, Self: end - acc},
			)
		}
	}
	r.layer("service.submit_ms_p50", quantile(submit, 0.5))
	r.layer("service.submit_ms_p99", quantile(submit, 0.99))
	r.layer("service.wait_ms_p50", quantile(wait, 0.5))
	r.layer("service.engine_ms_mean", ratio(engineMs, engineN))

	// Prepare and Key, timed directly on the round's request mix.
	var prep []float64
	for _, j := range jobs {
		t := time.Now()
		pj, err := service.Prepare(j.req)
		if err == nil {
			_ = pj.Key()
		}
		prep = append(prep, time.Since(t).Seconds()*1e6)
	}
	r.layer("service.prepare_us", median(prep))
}

// mix64 hashes its inputs into one well-mixed word (splitmix64 steps).
func mix64(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
