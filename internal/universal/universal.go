// Package universal implements Herlihy's universal construction: a wait-free
// linearizable implementation of any object with a sequential specification,
// for x processes, from consensus objects and registers.
//
// The construction backs footnote 1 of the paper: "because x-consensus is
// universal in a system of x processes and these objects have x ports, they
// can be implemented using x-consensus objects" — i.e. objects of consensus
// number x and x-consensus objects are interchangeable. The implementation
// is the consensus-sequence version: processes announce their operations,
// and a sequence of one-shot consensus objects agrees on the k-th operation
// of the shared log. A helping rule (slot k prefers the announcement of
// process k mod x) guarantees wait-freedom.
package universal

import (
	"fmt"

	"mpcn/internal/object"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// Apply is a sequential specification: it applies op to state and returns
// the new state and the operation's response.
type Apply[S, O, R any] func(state S, op O) (S, R)

// opDesc identifies one announced operation.
type opDesc[O any] struct {
	port int
	seq  int
	op   O
}

// Fingerprint implements sched.Fingerprinter so announce cells and log-slot
// decisions fold structurally. An empty announce cell holds a typed-nil
// *opDesc, which folds as nil.
func (d *opDesc[O]) Fingerprint(h *sched.FP) {
	if d == nil {
		h.Value(nil)
		return
	}
	h.Int(d.port)
	h.Int(d.seq)
	h.Value(d.op)
}

// Universal is the shared part of the construction. Each participating
// process obtains a Handle and performs operations through it.
type Universal[S, O, R any] struct {
	name     string
	x        int
	apply    Apply[S, O, R]
	init     S
	announce *reg.Array[*opDesc[O]]
	cons     []*object.XConsensus
	ports    map[sched.ProcID]int
}

// New returns a universal object for the given ports (at most x = len(ports)
// processes), with initial state init and sequential specification apply.
func New[S, O, R any](name string, ports []sched.ProcID, init S, apply Apply[S, O, R]) *Universal[S, O, R] {
	if len(ports) == 0 {
		panic(fmt.Sprintf("universal: %q needs at least one port", name))
	}
	pm := make(map[sched.ProcID]int, len(ports))
	for i, id := range ports {
		if _, dup := pm[id]; dup {
			panic(fmt.Sprintf("universal: %q has duplicate port %d", name, id))
		}
		pm[id] = i
	}
	return &Universal[S, O, R]{
		name:     name,
		x:        len(ports),
		apply:    apply,
		init:     init,
		announce: reg.NewArray[*opDesc[O]](name+".announce", len(ports)),
		ports:    pm,
	}
}

// Fingerprint implements sched.Fingerprinter: the announce board plus every
// materialized log-slot consensus, in slot order (length-prefixed so the
// lazily growing sequence cannot alias across states).
func (u *Universal[S, O, R]) Fingerprint(h *sched.FP) {
	u.announce.Fingerprint(h)
	h.Int(len(u.cons))
	for _, c := range u.cons {
		c.Fingerprint(h)
	}
}

// consAt returns the consensus object deciding log slot k, creating it on
// first use. Lazy creation is safe: the runtime serializes all steps.
func (u *Universal[S, O, R]) consAt(k int) *object.XConsensus {
	for len(u.cons) <= k {
		u.cons = append(u.cons,
			object.NewXConsensus(fmt.Sprintf("%s.cons[%d]", u.name, len(u.cons)), u.x, nil))
	}
	return u.cons[k]
}

// Handle is a process's private view of the universal object: its replay
// state and log position. Obtain one per process with NewHandle.
type Handle[S, O, R any] struct {
	u          *Universal[S, O, R]
	port       int
	k          int
	state      S
	seq        int
	appliedSeq []int
}

// NewHandle returns id's handle. It panics if id is not a port.
func (u *Universal[S, O, R]) NewHandle(id sched.ProcID) *Handle[S, O, R] {
	port, ok := u.ports[id]
	if !ok {
		panic(fmt.Sprintf("universal: process %d is not a port of %s", id, u.name))
	}
	return &Handle[S, O, R]{
		u:          u,
		port:       port,
		state:      u.init,
		appliedSeq: make([]int, u.x),
	}
}

// State returns the handle's current replayed state.
func (h *Handle[S, O, R]) State() S { return h.state }

// Invoke performs op on the shared object and returns its response. The call
// is wait-free: it completes within a bounded number of the caller's own
// steps regardless of the speed or crashes of the other ports.
func (h *Handle[S, O, R]) Invoke(e *sched.Env, op O) R {
	u := h.u
	h.seq++
	mine := &opDesc[O]{port: h.port, seq: h.seq, op: op}
	u.announce.Write(e, h.port, mine)

	for {
		// Helping rule: slot k belongs preferentially to port k mod x; adopt
		// its pending announcement, else push our own operation.
		candidate := mine
		helpPort := h.k % u.x
		if help := u.announce.Read(e, helpPort); help != nil && help.seq > h.appliedSeq[help.port] {
			candidate = help
		}
		decidedAny := u.consAt(h.k).Propose(e, candidate)
		h.k++
		decided, ok := decidedAny.(*opDesc[O])
		if !ok {
			panic(fmt.Sprintf("universal: %s log slot decided a foreign value %T", u.name, decidedAny))
		}
		if decided.seq <= h.appliedSeq[decided.port] {
			// All proposers of a slot propose operations that are pending in
			// the common replayed prefix, so a decided operation can never
			// already be applied.
			panic(fmt.Sprintf("universal: %s decided duplicate op (port %d, seq %d)",
				u.name, decided.port, decided.seq))
		}
		var resp R
		h.state, resp = u.apply(h.state, decided.op)
		h.appliedSeq[decided.port] = decided.seq
		if decided.port == h.port && decided.seq == h.seq {
			return resp
		}
	}
}
