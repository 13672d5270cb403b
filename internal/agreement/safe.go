// Package agreement implements the agreement object types at the core of the
// paper's two simulations:
//
//   - safe_agreement (Figure 1): the BG building block. Termination is
//     guaranteed only if no simulator crashes while executing sa_propose;
//     a single ill-timed crash may block deciders forever, which is exactly
//     the property the BG simulation's mutex discipline contains.
//   - x_compete (Figure 5): elects at most x owners through a cascade of x
//     test&set objects.
//   - x_safe_agreement (Figure 6): the paper's new object type. Its x owners
//     are determined dynamically by x_compete; termination survives up to
//     x-1 owner crashes during propose, which is what makes the reverse
//     simulation (Section 4) tolerate t' = t·x + (x-1) simulator crashes.
//   - commit-adopt: the classic wait-free weakening of consensus at the core
//     of safe_agreement's level-1/level-2 discipline (compare Figure 1),
//     provided standalone for the exhaustive-exploration harnesses.
//
// All Decide operations come in two forms: a spinning Decide for standalone
// use and a non-blocking TryDecide for BG-style simulators, whose threads
// must yield to sibling threads between probes instead of spinning the whole
// simulator.
//
// Every object implements sched.Fingerprinter, so the exploration harnesses
// can fold agreement state into the state digests behind
// explore.Config.Dedup.
package agreement

import (
	"fmt"

	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
)

// saLevel values follow Figure 1: 0 = meaningless, 1 = unstable, 2 = stable.
const (
	saMeaningless = 0
	saUnstable    = 1
	saStable      = 2
)

// saCell is one component of the safe_agreement snapshot object SM.
type saCell struct {
	value any
	level int
}

// Fingerprint implements sched.Fingerprinter so saCell values folded through
// the backing snapshot hash without fmt formatting.
func (c saCell) Fingerprint(h *sched.FP) {
	h.Value(c.value)
	h.Int(c.level)
}

// SafeAgreement is the safe_agreement object type of Figure 1, implemented
// over an n-component snapshot object (one component per simulator). Each
// simulator may invoke Propose at most once, then Decide/TryDecide. Every
// scan of SM is consumed before the caller's next step, so the operations
// read the snapshot's zero-copy view.
type SafeAgreement struct {
	name     string
	sm       *snapshot.Primitive[saCell]
	proposed map[sched.ProcID]bool
}

// NewSafeAgreement returns a safe_agreement object for n simulators.
func NewSafeAgreement(name string, n int) *SafeAgreement {
	return &SafeAgreement{
		name:     name,
		sm:       snapshot.NewPrimitive[saCell](name+".SM", n),
		proposed: make(map[sched.ProcID]bool),
	}
}

// Fingerprint implements sched.Fingerprinter: it folds the SM snapshot and
// the (unordered) set of simulators that already proposed.
func (s *SafeAgreement) Fingerprint(h *sched.FP) {
	s.sm.Fingerprint(h)
	h.ProcSet(s.proposed)
}

// Propose proposes v on behalf of the calling simulator (Figure 1, lines
// 01-03). v must not be nil; each simulator proposes at most once.
func (s *SafeAgreement) Propose(e *sched.Env, v any) {
	if v == nil {
		panic(fmt.Sprintf("agreement: nil proposal to %s", s.name))
	}
	i := int(e.ID())
	if s.proposed[e.ID()] {
		panic(fmt.Sprintf("agreement: simulator %d proposed twice to %s", i, s.name))
	}
	s.proposed[e.ID()] = true

	s.sm.Update(e, i, saCell{value: v, level: saUnstable}) // line 01
	sm := s.sm.ScanView(e)                                 // line 02
	stable := false
	for _, c := range sm {
		if c.level == saStable {
			stable = true
			break
		}
	}
	if stable { // line 03
		s.sm.Update(e, i, saCell{value: v, level: saMeaningless})
	} else {
		s.sm.Update(e, i, saCell{value: v, level: saStable})
	}
}

// TryDecide performs one probe of Figure 1's decide loop (line 04): it
// returns (value, true) once no component is unstable and some component is
// stable, and (nil, false) otherwise. The returned value is the stable value
// of the smallest simulator index (line 05), so all deciders agree.
func (s *SafeAgreement) TryDecide(e *sched.Env) (any, bool) {
	sm := s.sm.ScanView(e)
	for _, c := range sm {
		if c.level == saUnstable {
			return nil, false
		}
	}
	for _, c := range sm {
		if c.level == saStable {
			return c.value, true
		}
	}
	return nil, false
}

// Decide spins until TryDecide succeeds (Figure 1, lines 04-06). It blocks
// forever — consuming scheduler steps — if a proposer crashed inside Propose
// and no stable value ever appears; callers embedded in simulators should
// use TryDecide and yield between probes instead.
func (s *SafeAgreement) Decide(e *sched.Env) any {
	for {
		if v, ok := s.TryDecide(e); ok {
			return v
		}
	}
}
