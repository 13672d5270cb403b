// Progress: the live counter surface of a running job, shared by both
// engines. The exhaustive walkers and the sampling workers publish into
// atomic counters (one add per completed run — negligible next to the
// replay itself) and the attached visited-state store's own atomic counters
// are snapshotted on demand, so a concurrent observer (the exploredd
// daemon's NDJSON progress stream) can poll a running job without locks and
// without perturbing the hot path.

package explore

import "sync/atomic"

// Progress receives live counters from a running job via Config.Progress
// (or sample.Config.Progress). The zero value is ready to use; one Progress
// must not be shared by concurrent jobs (their counters would blend).
type Progress struct {
	runs   atomic.Int64
	pruned atomic.Int64
	store  atomic.Pointer[dedupStore]
}

// ProgressSnapshot is one observation of a running job.
type ProgressSnapshot struct {
	// Runs is the number of complete runs executed so far; for a sampling
	// job, the number of completed samples.
	Runs int64 `json:"runs"`
	// Pruned is the number of decision alternatives dropped by reduction so
	// far (always zero for sampling).
	Pruned int64 `json:"pruned"`
	// Dedup snapshots the attached store's counters: the visited-state
	// store under Config.Dedup, or the sampler's coverage estimator, whose
	// States is the distinct-state count. Zero when no store is attached.
	Dedup DedupStats `json:"dedup"`
}

// Add publishes completed runs and pruned alternatives; nil-safe so the
// engines call it unconditionally.
func (p *Progress) Add(runs, pruned int64) {
	if p == nil {
		return
	}
	if runs != 0 {
		p.runs.Add(runs)
	}
	if pruned != 0 {
		p.pruned.Add(pruned)
	}
}

// Attach exposes the job's visited-state store for snapshots; nil-safe on
// both sides.
func (p *Progress) Attach(v *VisitedStore) {
	if v != nil {
		p.attach(v.st)
	}
}

func (p *Progress) attach(st *dedupStore) {
	if p == nil || st == nil {
		return
	}
	p.store.Store(st)
}

// Snapshot returns the current counters. Safe to call concurrently with the
// job (and on a nil Progress, which reports zeros).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{Runs: p.runs.Load(), Pruned: p.pruned.Load()}
	if st := p.store.Load(); st != nil {
		s.Dedup = st.snapshot()
	}
	return s
}
