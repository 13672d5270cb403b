package sched

import (
	"errors"
	"fmt"
	"iter"
)

// Session is a reusable scheduler runtime. Every process runs as a
// coroutine (iter.Pull) resumed by the goroutine that called Run: a token
// handoff is a coroutine switch, not a goroutine wakeup, and the session
// starts no goroutine of its own. The coroutines are created once, suspend
// at the run boundary between runs and are reset per run, so back-to-back
// runs pay no coroutine creation and no per-run buffer allocation. Replay
// engines (internal/explore) execute millions of short runs on one Session.
//
// The lifecycle is
//
//	s, _ := NewSession(n)
//	for { res, _ := s.Run(cfg, bodies) ... }
//	s.Close()
//
// Run may be given different bodies (and a different Config) each time; only
// the process count n is fixed. Runs on one Session are deterministic exactly
// like runs on fresh runtimes: every run starts from fully reset scheduler
// state, so a Session replaying the same adversary decisions produces a
// byte-identical trace and identical outcomes.
//
// Batched grants (Decision.Plan, Decision.Sprint) let a process consume
// consecutive self-grants inside StepL without any switch at all. The one
// constraint of the coroutine protocol: a process takes its steps on its own
// execution context. A body that runs sub-computations of its own (as
// internal/bg's simulators run their simulated threads) nests them as
// coroutines that hand their steps back to the body, never the Env.
//
// The returned Result and its Outcomes and Trace slices are owned by the
// Session and overwritten by the next Run; callers that retain them across
// runs must copy. Sessions are not safe for concurrent use — one Run at a
// time — and Close must only be called between runs.
type Session struct {
	n    int
	envs []*Env

	// The per-process coroutines (resume/stop pairs from iter.Pull), the
	// active run's bodies, and the run error a process wrapper recorded when
	// its body panicked with a foreign value.
	bodies []Proc
	next   []func() (struct{}, bool)
	stop   []func()
	fail   error
	// inNext is set across Adversary.Next calls so run's single deferred
	// recover can attribute a panic to the adversary (per-consultation
	// defers were measurably hot).
	inNext bool

	// Batched-grant state: the adopted Decision.Plan with its consumption
	// cursor, the process a Decision.Sprint keeps granting, and the
	// adversary's optional SprintObserver side.
	plan      []Grant
	planIdx   int
	sprint    ProcID
	sprintObs SprintObserver

	cfg Config    // the active run's config
	adv Adversary // the active run's adversary

	state     []procState
	statuses  []Status
	pending   []Label // label each parked process is about to execute
	stepsOf   []int
	lastLabel []Label
	crashed   []bool
	obs       []FP // per-process observation digests (Config.Observe)

	steps   int
	crashes int
	trace   []TraceEntry

	// res is the pooled Result handed back by Run; its slices alias the
	// session's buffers.
	res      Result
	outcomes []Outcome

	// runnableBuf backs the View.Runnable slice handed to the adversary each
	// round. Reusing it keeps the scheduling loop allocation-free; the View
	// contract already limits the slice's lifetime to the Next call.
	runnableBuf []ProcID

	closed bool
}

// ErrClosed is returned by Session.Run after Close.
var ErrClosed = errors.New("sched: session closed")

// SessionOptions once selected among several scheduling protocols. Only the
// coroutine protocol remains, so the options have no effect.
//
// Deprecated: use NewSession.
type SessionOptions struct {
	// Deprecated: every session runs the coroutine protocol; Direct is
	// ignored.
	Direct bool
}

// NewSession builds the n process coroutines of a reusable runtime. Each
// coroutine starts on the run's first grant of its process.
func NewSession(n int) (*Session, error) {
	if n <= 0 {
		return nil, ErrNoProcs
	}
	s := &Session{
		n:         n,
		envs:      make([]*Env, n),
		bodies:    make([]Proc, n),
		next:      make([]func() (struct{}, bool), n),
		stop:      make([]func(), n),
		state:     make([]procState, n),
		statuses:  make([]Status, n),
		pending:   make([]Label, n),
		stepsOf:   make([]int, n),
		lastLabel: make([]Label, n),
		crashed:   make([]bool, n),
		obs:       make([]FP, n),
		sprint:    -1,

		outcomes:    make([]Outcome, n),
		runnableBuf: make([]ProcID, 0, n),
	}
	for i := range s.envs {
		e := &Env{s: s, id: ProcID(i), n: n}
		s.envs[i] = e
		s.next[i], s.stop[i] = iter.Pull(func(yield func(struct{}) bool) {
			e.yield = yield
			for {
				s.runBody(e)
				if !yield(struct{}{}) {
					return // session closed
				}
			}
		})
	}
	return s, nil
}

// NewSessionWith is NewSession; opts has no effect.
//
// Deprecated: use NewSession.
func NewSessionWith(n int, opts SessionOptions) (*Session, error) {
	return NewSession(n)
}

// N returns the fixed process count of the session.
func (s *Session) N() int { return s.n }

// Healthy reports whether the session can still run, i.e. it is not
// closed. Session pools (the exploredd daemon's warm-lease source) use it
// to decide between reusing a returned session and discarding it.
func (s *Session) Healthy() bool { return !s.closed }

// Close ends the session's coroutines. It is idempotent. Close must not be
// called while a Run is in progress.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, stop := range s.stop {
		stop()
	}
}

// reset rewinds all per-run state so the next run starts from a state
// indistinguishable from a fresh runtime's.
func (s *Session) reset(cfg Config, adv Adversary) {
	// obs is only ever written under cfg.Observe (see Observe), so when the
	// previous run didn't observe, the slots are already zero. state and
	// pending are rewritten by run's prologue and every process's status is
	// terminally written each run (body return, crash, or teardown), so
	// those are not cleared either.
	clearObs := s.cfg.Observe
	s.cfg = cfg
	s.adv = adv
	for i := 0; i < s.n; i++ {
		s.stepsOf[i] = 0
		s.lastLabel[i] = LabelNone
		s.crashed[i] = false
		if clearObs {
			s.obs[i] = FP{}
		}
		e := s.envs[i]
		e.decided = false
		e.decision = nil
		e.crashNext = false
	}
	s.steps = 0
	s.crashes = 0
	s.trace = s.trace[:0]
	s.plan = s.plan[:0]
	s.planIdx = 0
	s.sprint = -1
	s.sprintObs, _ = adv.(SprintObserver)
	s.fail = nil
}

// Run executes one run of the given bodies (one per session process) under
// cfg and returns the pooled per-process outcomes. It returns an error if a
// body panics with a non-crash value, or if the adversary misbehaves
// (crashes more than MaxCrashes processes when that bound is set); the
// session stays usable after such errors.
func (s *Session) Run(cfg Config, bodies []Proc) (*Result, error) {
	switch {
	case s.closed:
		return nil, ErrClosed
	case len(bodies) != s.n:
		return nil, fmt.Errorf("sched: session has %d processes, got %d bodies", s.n, len(bodies))
	}
	for i, b := range bodies {
		if b == nil {
			return nil, fmt.Errorf("sched: body %d is nil", i)
		}
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = NewRandom(cfg.Seed)
	}
	s.reset(cfg, adv)
	return s.run(bodies)
}

// collect assembles the pooled Result after a completed run.
func (s *Session) collect(budgetExhausted bool) *Result {
	res := &s.res
	*res = Result{
		Outcomes:        s.outcomes,
		Steps:           s.steps,
		Crashes:         s.crashes,
		BudgetExhausted: budgetExhausted,
		Trace:           s.trace,
	}
	for i := range s.outcomes {
		e := s.envs[i]
		s.outcomes[i] = Outcome{
			Status:    s.statuses[i],
			Decided:   e.decided,
			Value:     e.decision,
			Steps:     s.stepsOf[i],
			LastLabel: s.lastLabel[i],
		}
	}
	return res
}

// grantBookkeeping records the grant of one step to process id: the label it
// was parked on becomes its last label, counted unless it is the synthetic
// start grant, and traced always, so a Replay adversary reproduces the
// schedule round for round.
func (s *Session) grantBookkeeping(id ProcID) {
	label := s.pending[id]
	s.lastLabel[id] = label
	if label != LabelStart {
		s.steps++
		s.stepsOf[id]++
	}
	if s.cfg.TraceCapacity > 0 && len(s.trace) < s.cfg.TraceCapacity {
		s.trace = append(s.trace, TraceEntry{Proc: id, Label: label})
	}
	s.state[id] = stateRunning
}

// selfGrant is grantBookkeeping for a step consumed in place by StepL's
// batched-grant fast path: the process never parks, so the label comes from
// the caller and the state stays running.
func (s *Session) selfGrant(id ProcID, label Label) {
	s.lastLabel[id] = label
	if label != LabelStart {
		s.steps++
		s.stepsOf[id]++
	}
	if s.cfg.TraceCapacity > 0 && len(s.trace) < s.cfg.TraceCapacity {
		s.trace = append(s.trace, TraceEntry{Proc: id, Label: label})
	}
}

func (s *Session) runnable() []ProcID {
	ids := s.runnableBuf[:0]
	for i, st := range s.state {
		if st == stateParked {
			ids = append(ids, ProcID(i))
		}
	}
	s.runnableBuf = ids
	return ids
}

func (s *Session) firstParked() ProcID {
	for i, st := range s.state {
		if st == stateParked {
			return ProcID(i)
		}
	}
	return -1
}
