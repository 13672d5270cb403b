// Package bg implements the Borowsky-Gafni simulation and the engine shared
// by the paper's extended simulations.
//
// A run has n' simulators q_0..q_{n'-1} (scheduler processes), each locally
// executing one coroutine thread per simulated process p_0..p_{n-1} in a fair
// round-robin (§2.4). Simulators cooperate through:
//
//   - MEM, a snapshot object with one component per simulator holding its
//     local copy of the simulated memory with per-cell sequence numbers
//     (Figure 2 / sim_write, Figure 3 / sim_snapshot);
//   - one agreement object per (simulated process, snapshot sequence number)
//     pair, which makes every simulator return the same value for the same
//     simulated snapshot (Figure 3, lines 05-06);
//   - one agreement object per simulated x_cons object (Figure 4 /
//     sim_x_cons_propose).
//
// The agreement objects are pluggable: safe_agreement (Figure 1) yields the
// classic BG simulation and the Section 3 forward simulation, while
// x_safe_agreement (Figure 6) yields the Section 4 reverse simulation and
// the Section 5.5 colored simulation. The mutex-1 discipline (a simulator is
// engaged in at most one agreement propose at a time) and the mutex-2
// discipline (at most one simulated x_cons_propose at a time) are enforced
// with thread-local cooperative locks, exactly as in the paper.
package bg

import (
	"fmt"
	"strconv"
	"sync"

	"mpcn/internal/algorithms"
	"mpcn/internal/coro"
	"mpcn/internal/object"
	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
)

// Agreement is the abstraction both safe_agreement and x_safe_agreement
// satisfy: one-shot propose per simulator, idempotent non-blocking decide
// probe. Termination characteristics differ (that is the point of the
// paper), but the engine is agnostic.
type Agreement interface {
	Propose(e *sched.Env, v any)
	TryDecide(e *sched.Env) (any, bool)
}

// AgreementProvider constructs the shared agreement objects of a run.
type AgreementProvider func(name string) Agreement

// Config parameterizes one simulation run.
type Config struct {
	// Alg is the simulated algorithm (designed for ASM(n, t, x)).
	Alg algorithms.Algorithm
	// Inputs are the simulated processes' proposals; n = len(Inputs).
	Inputs []any
	// Simulators is n', the number of simulating processes.
	Simulators int
	// SourceX is the consensus number x of the simulated model's objects;
	// the algorithm's declared port sets are validated against it. Use 1
	// for read/write-only source algorithms.
	SourceX int
	// NewAgreement builds the shared agreement objects. nil defaults to
	// safe_agreement via the caller's choice — the engine requires it
	// explicitly to keep the simulation's resilience assumptions visible.
	NewAgreement AgreementProvider
	// Colored selects the §5.5 decision rule: simulators claim distinct
	// simulated decisions through test&set objects instead of adopting the
	// first decision seen.
	Colored bool
	// RunToCompletion keeps every simulator simulating after it has decided,
	// as the paper's liveness lemmas describe ("each correct simulator
	// computes the decision value of at least n-t' simulated processes",
	// Lemmas 2 and 8). Simulators then only stop when every thread is done,
	// so runs with permanently blocked simulated processes end on the step
	// budget; the per-simulator completion counts are in Result.Completed.
	RunToCompletion bool
	// Sched configures the underlying scheduler run (adversary, budget...).
	Sched sched.Config
}

// Result combines the scheduler outcome with simulation-level bookkeeping.
type Result struct {
	// Sched is the raw scheduler result (one outcome per simulator).
	Sched *sched.Result
	// SimulatorDecisions[i] is simulator i's decision (nil if none).
	SimulatorDecisions []any
	// ClaimedProc[i] is the simulated process whose decision simulator i
	// adopted (-1 if none). For colored runs the claims are distinct.
	ClaimedProc []int
	// SimOutputs is the per-simulated-process output vector induced by the
	// simulators' claims (nil entries undecided); meaningful for colored
	// runs, where outputs are per-process. Colorless harnesses validate the
	// simulators' decision multiset instead.
	SimOutputs []any
	// Completed[i] is the number of simulated processes whose decision
	// simulator i computed — the quantity bounded from below by Lemmas 2
	// and 8. Without RunToCompletion a simulator stops at its first usable
	// decision, so the counts are then typically 1.
	Completed []int
}

// memCell is one simulated memory cell as seen by one simulator: the last
// written value and its sequence number (Figure 2).
type memCell struct {
	val any
	sn  int
}

// memRow is one simulator's copy of the simulated memory, the value each
// simulator publishes in its MEM component.
type memRow []memCell

// Fingerprint implements sched.Fingerprinter, so observed MEM components
// fold structurally: the row length (a simulator that has not written yet
// publishes a nil row), then each cell's value and sequence number.
func (m memRow) Fingerprint(h *sched.FP) {
	h.Int(len(m))
	for _, c := range m {
		h.Value(c.val)
		h.Int(c.sn)
	}
}

// agKey addresses the agreement object of the snapsn-th snapshot of
// simulated process j (the SAFE_AG[j, snapsn] array of Figure 3).
type agKey struct {
	j      int
	snapsn int
}

// engineRun is the shared state of one simulation run.
type engineRun struct {
	cfg   Config
	n     int // simulated processes
	ports [][]int

	mem     *snapshot.Primitive[memRow]
	snapAG  map[agKey]Agreement
	xconsAG map[int]Agreement
	tas     []*object.TestAndSet // colored decision claiming (§5.5)

	decisions []any
	claims    []int
	completed []int

	// onSnapshot, when non-nil, observes every value returned by a
	// simulated snapshot: simulator i obtained val for the snapsn-th
	// mem.snapshot() of simulated process j. Used by tests to check
	// Lemmas 3 and 9 (all simulators return the same value for the same
	// simulated snapshot invocation).
	onSnapshot func(i, j, snapsn int, val []any)
	// onWrite, when non-nil, observes every simulated write: simulator i
	// performed the sn-th mem[j].write(val) on behalf of process j. Used by
	// tests to check Lemma 6/11's premise that every simulator simulates
	// each process identically (same write sequence at every simulator).
	onWrite func(i, j, sn int, val any)
}

// New validates cfg and prepares a run. Call Run to execute it.
func New(cfg Config) (*engineRun, error) {
	n := len(cfg.Inputs)
	if n == 0 {
		return nil, fmt.Errorf("bg: no simulated inputs")
	}
	if cfg.Simulators < 1 {
		return nil, fmt.Errorf("bg: need at least one simulator, got %d", cfg.Simulators)
	}
	if cfg.Alg == nil {
		return nil, fmt.Errorf("bg: nil algorithm")
	}
	if cfg.NewAgreement == nil {
		return nil, fmt.Errorf("bg: nil agreement provider")
	}
	if cfg.SourceX < 1 {
		return nil, fmt.Errorf("bg: SourceX must be >= 1, got %d", cfg.SourceX)
	}
	if err := cfg.Alg.Requires(n, cfg.SourceX); err != nil {
		return nil, err
	}
	ports := cfg.Alg.Objects(n)
	for a, ps := range ports {
		if len(ps) > cfg.SourceX {
			return nil, fmt.Errorf("bg: simulated object %d has %d ports, source x = %d",
				a, len(ps), cfg.SourceX)
		}
		for _, p := range ps {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("bg: simulated object %d port %d out of range", a, p)
			}
		}
	}
	if cfg.Colored && n < cfg.Simulators {
		return nil, fmt.Errorf("bg: colored simulation needs n >= n' (n=%d, n'=%d)",
			n, cfg.Simulators)
	}

	r := &engineRun{
		cfg:       cfg,
		n:         n,
		ports:     ports,
		mem:       snapshot.NewPrimitive[memRow]("MEM", cfg.Simulators),
		snapAG:    make(map[agKey]Agreement),
		xconsAG:   make(map[int]Agreement),
		decisions: make([]any, cfg.Simulators),
		claims:    make([]int, cfg.Simulators),
		completed: make([]int, cfg.Simulators),
	}
	for i := range r.claims {
		r.claims[i] = -1
	}
	if cfg.Colored {
		r.tas = make([]*object.TestAndSet, n)
		for j := range r.tas {
			r.tas[j] = object.NewTestAndSet(fmt.Sprintf("T&S[%d]", j))
		}
	}
	return r, nil
}

// Run executes the simulation under the configured scheduler and returns the
// combined result.
func (r *engineRun) Run() (*Result, error) {
	sres, err := sched.Run(r.cfg.Sched, r.Bodies())
	if err != nil {
		return nil, err
	}
	return r.Collect(sres), nil
}

// RunOn executes the simulation on a reusable scheduler session (which must
// have Simulators processes). Sweep drivers that execute many simulations of
// the same shape reuse one session across engines instead of respawning the
// runtime per run; the engine itself still carries per-run shared state, so
// build a fresh engine via New for every run. The returned Result aliases
// the session's pooled buffers, which the session's next run overwrites.
func (r *engineRun) RunOn(s *sched.Session) (*Result, error) {
	sres, err := s.Run(r.cfg.Sched, r.Bodies())
	if err != nil {
		return nil, err
	}
	return r.Collect(sres), nil
}

// Bodies returns the simulator process bodies without running them, for
// callers — such as the exhaustive explorer — that drive sched.Run (or a
// replaying adversary) themselves. The engine carries per-run shared state,
// so build a fresh engine via New for every run.
func (r *engineRun) Bodies() []sched.Proc {
	bodies := make([]sched.Proc, r.cfg.Simulators)
	for i := range bodies {
		bodies[i] = r.simulatorBody(i)
	}
	return bodies
}

// Collect assembles the simulation-level Result around an externally
// obtained scheduler result for this engine's bodies.
func (r *engineRun) Collect(sres *sched.Result) *Result {
	out := &Result{
		Sched:              sres,
		SimulatorDecisions: r.decisions,
		ClaimedProc:        r.claims,
		SimOutputs:         make([]any, r.n),
		Completed:          r.completed,
	}
	for i, j := range r.claims {
		if j >= 0 && r.decisions[i] != nil {
			out.SimOutputs[j] = r.decisions[i]
		}
	}
	return out
}

// snapAGAt returns SAFE_AG[j, snapsn], creating it on first access. The
// serialized runtime makes lazy shared creation race-free.
func (r *engineRun) snapAGAt(j, snapsn int) Agreement {
	k := agKey{j: j, snapsn: snapsn}
	ag, ok := r.snapAG[k]
	if !ok {
		ag = r.cfg.NewAgreement(agNames.snapName(k))
		r.snapAG[k] = ag
	}
	return ag
}

// xconsAGAt returns XSAFE_AG[a], creating it on first access (Figure 4).
func (r *engineRun) xconsAGAt(a int) Agreement {
	ag, ok := r.xconsAG[a]
	if !ok {
		ag = r.cfg.NewAgreement(agNames.xconsName(a))
		r.xconsAG[a] = ag
	}
	return ag
}

// agNames keeps the names of the lazily created agreement objects across
// runs and engines: every run creates the same SAFE_AG[j,sn] and
// XSAFE_AG[a] objects, and the names — like the step labels the objects
// intern from them — live as long as the process.
var agNames = agNameTable{snap: make(map[agKey]string), xcons: make(map[int]string)}

type agNameTable struct {
	mu    sync.Mutex
	snap  map[agKey]string
	xcons map[int]string
}

// snapName returns "SAFE_AG[j,snapsn]".
func (t *agNameTable) snapName(k agKey) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	name, ok := t.snap[k]
	if !ok {
		name = "SAFE_AG[" + strconv.Itoa(k.j) + "," + strconv.Itoa(k.snapsn) + "]"
		t.snap[k] = name
	}
	return name
}

// xconsName returns "XSAFE_AG[a]".
func (t *agNameTable) xconsName(a int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	name, ok := t.xcons[a]
	if !ok {
		name = "XSAFE_AG[" + strconv.Itoa(a) + "]"
		t.xcons[a] = name
	}
	return name
}

// simulatorState is the per-simulator local state: its copy of the simulated
// memory, sequence counters, cached x_cons results, the two thread-local
// mutexes and the decisions its threads produced.
type simulatorState struct {
	memi   memRow
	wSN    []int
	snapSN []int
	xres   map[int]any
	mutex1 bool // held while engaged in an agreement propose
	// mutex2 guards xres[a] per simulated object (Figure 4): it makes the
	// propose/decide pair on XSAFE_AG[a] one-shot per simulator. It must be
	// per-object: it is held across the (possibly forever-blocking) decide,
	// and a single simulator-wide lock would let one dead object wedge every
	// x_cons simulation at a *correct* simulator, breaking Lemma 1's bound
	// of x blocked processes per simulator crash.
	mutex2  map[int]bool
	decided []any
}

func (r *engineRun) simulatorBody(i int) sched.Proc {
	return func(e *sched.Env) {
		sim := &simulatorState{
			memi:    make(memRow, r.n),
			wSN:     make([]int, r.n),
			snapSN:  make([]int, r.n),
			xres:    make(map[int]any),
			mutex2:  make(map[int]bool),
			decided: make([]any, r.n),
		}
		threads := make([]*coro.Thread, r.n)
		for j := 0; j < r.n; j++ {
			j := j
			threads[j] = coro.New(func(y *coro.Yielder) {
				api := &simAPI{r: r, sim: sim, e: e, y: y, i: i, j: j,
					proposed: make(map[int]bool)}
				r.cfg.Alg.Run(api)
			})
		}
		group := coro.NewGroup(threads)
		defer group.KillAll()

		claimed := make([]bool, r.n)
		for {
			progressed := group.ResumeNext()
			for j, dv := range sim.decided {
				if dv == nil || claimed[j] {
					continue
				}
				claimed[j] = true
				r.completed[i]++
				if !r.cfg.Colored {
					// Colorless: adopt the first simulated decision (§2.4),
					// or keep simulating to completion when the run is
					// instrumented for the liveness lemmas.
					if r.decisions[i] == nil {
						r.decisions[i] = dv
						r.claims[i] = j
						e.Decide(dv)
					}
					if !r.cfg.RunToCompletion {
						return
					}
					continue
				}
				// Colored (§5.5): claim p_j's decision through T&S[j]; on
				// loss resume the remaining threads for another decision.
				if r.tas[j].TestAndSet(e) {
					r.decisions[i] = dv
					r.claims[i] = j
					e.Decide(dv)
					return
				}
			}
			if !progressed {
				// Every thread finished and no usable claim was produced:
				// the simulator halts (with RunToCompletion it has already
				// decided; otherwise this is possible only outside the
				// §5.5 conditions).
				return
			}
		}
	}
}

// simAPI implements algorithms.API on behalf of simulated process j inside
// simulator i. All shared steps are taken with the simulator's Env; control
// returns to the simulator's scheduler via the coroutine yielder wherever
// the simulated process may block.
type simAPI struct {
	r        *engineRun
	sim      *simulatorState
	e        *sched.Env
	y        *coro.Yielder
	i        int // simulator index
	j        int // simulated process index
	proposed map[int]bool
}

var _ algorithms.API = (*simAPI)(nil)

// ID implements algorithms.API.
func (a *simAPI) ID() int { return a.j }

// N implements algorithms.API.
func (a *simAPI) N() int { return a.r.n }

// Input implements algorithms.API.
func (a *simAPI) Input() any { return a.r.cfg.Inputs[a.j] }

// Write implements sim_write (Figure 2): bump the write sequence number,
// update the local memory copy and publish it in MEM[i] in one atomic step.
func (a *simAPI) Write(v any) {
	sim := a.sim
	sim.wSN[a.j]++                                    // line 01
	sim.memi[a.j] = memCell{val: v, sn: sim.wSN[a.j]} // line 02
	if a.r.onWrite != nil {
		a.r.onWrite(a.i, a.j, sim.wSN[a.j], v)
	}
	snap := make(memRow, len(sim.memi))
	copy(snap, sim.memi)
	a.r.mem.Update(a.e, a.i, snap) // line 03
	a.y.Yield()                    // fair interleaving of the simulator's threads (§2.4)
}

// Snapshot implements sim_snapshot (Figure 3).
func (a *simAPI) Snapshot() []any {
	r, sim := a.r, a.sim

	sm := r.mem.ScanView(a.e) // line 01; read before the thread's next step
	input := make([]any, r.n)
	for y := 0; y < r.n; y++ { // lines 02-03: adopt the most advanced write
		best := memCell{}
		for s := 0; s < r.cfg.Simulators; s++ {
			if sm[s] == nil {
				continue
			}
			if sm[s][y].sn > best.sn {
				best = sm[s][y]
			}
		}
		input[y] = best.val
	}
	sim.snapSN[a.j]++ // line 04
	ag := r.snapAGAt(a.j, sim.snapSN[a.j])

	a.enterMutex1() // line 05
	ag.Propose(a.e, input)
	sim.mutex1 = false

	for { // line 06
		if v, ok := ag.TryDecide(a.e); ok { // line 07
			res, castOK := v.([]any)
			if !castOK {
				panic(fmt.Sprintf("bg: SAFE_AG[%d,%d] decided foreign value %T",
					a.j, sim.snapSN[a.j], v))
			}
			if r.onSnapshot != nil {
				r.onSnapshot(a.i, a.j, sim.snapSN[a.j], res)
			}
			a.y.Yield() // fair interleaving of the simulator's threads (§2.4)
			return res
		}
		a.y.Yield()
	}
}

// XConsPropose implements sim_x_cons_propose (Figure 4): the value decided
// from the simulated object x_cons[obj] is agreed upon through XSAFE_AG[obj]
// and cached locally in xres.
func (a *simAPI) XConsPropose(obj int, v any) any {
	r, sim := a.r, a.sim
	if obj < 0 || obj >= len(r.ports) {
		panic(fmt.Sprintf("bg: simulated process %d proposed to undeclared object %d", a.j, obj))
	}
	if !containsInt(r.ports[obj], a.j) {
		panic(fmt.Sprintf("bg: simulated process %d is not a port of object %d", a.j, obj))
	}
	if a.proposed[obj] {
		panic(fmt.Sprintf("bg: simulated process %d proposed twice to object %d", a.j, obj))
	}
	a.proposed[obj] = true

	a.enterMutex2(obj) // line 01
	if _, known := sim.xres[obj]; !known {
		ag := r.xconsAGAt(obj)
		a.enterMutex1() // line 02
		ag.Propose(a.e, v)
		sim.mutex1 = false
		for { // line 03
			if res, ok := ag.TryDecide(a.e); ok {
				sim.xres[obj] = res
				break
			}
			a.y.Yield()
		}
	}
	sim.mutex2[obj] = false // line 05
	res := sim.xres[obj]
	a.y.Yield() // fair interleaving of the simulator's threads (§2.4)
	return res  // line 06
}

// Decide implements algorithms.API: the simulated decision is recorded
// locally; the simulator's main loop turns it into its own decision
// (colorless) or a claim (colored).
func (a *simAPI) Decide(v any) {
	if v == nil {
		panic(fmt.Sprintf("bg: simulated process %d decided nil", a.j))
	}
	if a.sim.decided[a.j] != nil {
		panic(fmt.Sprintf("bg: simulated process %d decided twice", a.j))
	}
	a.sim.decided[a.j] = v
}

// enterMutex1 acquires the simulator-local propose mutex, yielding to
// sibling threads while it is held elsewhere. Thread switches happen only at
// yields, so plain booleans are sound mutexes here.
//
// Fidelity note: at the paper's step granularity a thread can be preempted
// inside sa_propose, so mutex-1 is what bounds a simulator crash to one
// in-flight agreement. In this engine a propose never spans a yield (it is
// atomic within one thread resume), so mutex-1 can never actually be
// contended; it is kept to mirror Figure 3/4 line by line.
func (a *simAPI) enterMutex1() {
	for a.sim.mutex1 {
		a.y.Yield()
	}
	a.sim.mutex1 = true
}

// enterMutex2 acquires the simulator-local x_cons mutex of one simulated
// object.
func (a *simAPI) enterMutex2(obj int) {
	for a.sim.mutex2[obj] {
		a.y.Yield()
	}
	a.sim.mutex2[obj] = true
}

func containsInt(s []int, v int) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}
