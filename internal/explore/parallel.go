// Parallel exhaustive exploration: the decision-sequence DFS sharded across
// a worker pool. Runs are deterministic replays of decision prefixes, so the
// tree parallelizes cleanly — a breadth-first pass splits it into disjoint
// prefix subtrees, each worker exhausts its subtrees independently, and the
// only shared mutable state is the work queue and the MaxRuns ticket counter.

package explore

import (
	"context"
	"time"

	"mpcn/internal/explore/internal/pool"
)

const (
	// frontierPerWorker is how many frontier subtrees the breadth-first pass
	// aims to produce per worker: enough granularity that an uneven subtree
	// does not leave the pool idle.
	frontierPerWorker = 8
	// frontierMaxNodes caps the breadth-first expansion (each expansion costs
	// one probe replay) for trees that are too narrow to split further.
	frontierMaxNodes = 4096
)

// explorePool is Run's multi-worker path. Phase 1 expands a frontier of
// disjoint subtree prefixes breadth-first on probe (counting and checking
// any complete runs shallower than the frontier); phase 2 hands the
// subtrees to cfg.Workers walkers, each on its own newSession harness. The
// visited-state store is shared by every worker, so a state first visited
// in one subtree cuts converged branches pool-wide. The probe runs WITHOUT
// the store: its replays traverse nodes whose subtrees are handed to
// workers wholesale, and fingerprinting them here would claim ownership of
// states the probe never expands (see dedup.go).
func explorePool(ctx context.Context, probeSession Session, newSession func() Session, cfg Config, budget *runBudget, store *dedupStore) (subtreeStats, []WorkerStats, error) {
	probe := &walker{cfg: cfg, session: probeSession, budget: budget, stop: ctx.Done()}
	defer probe.close()
	frontier, st, err := buildFrontier(probe, cfg.Workers*frontierPerWorker)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil || st.aborted || len(frontier) == 0 {
		return st, nil, err
	}

	// The frontier is handed out in sibling order through a closed,
	// prefilled channel; once the pool halts, the walkers drain the rest at
	// the cost of one stop check each.
	work := make(chan []int, len(frontier))
	for _, p := range frontier {
		work <- p
	}
	close(work)
	nw := min(cfg.Workers, len(frontier))
	sessions := make([]Session, nw)
	for i := range sessions {
		sessions[i] = newSession()
	}
	type workerOut struct {
		ws       WorkerStats
		maxDepth int
		cutAlts  int
		aborted  bool
	}
	outs := make([]workerOut, nw)
	err = pool.Run(ctx, "explore", nw, nil, func(k int, stop <-chan struct{}) error {
		t0 := time.Now()
		out := &outs[k]
		out.ws.Worker = k
		defer func() { out.ws.Busy = time.Since(t0) }()
		w := &walker{cfg: cfg, session: sessions[k], budget: budget, stop: stop, store: store}
		defer w.close()
		for prefix := range work {
			sub, err := w.explore(prefix)
			out.ws.Runs += sub.runs
			out.ws.Pruned += sub.pruned
			out.cutAlts += sub.cutAlts
			out.maxDepth = max(out.maxDepth, sub.maxDepth)
			// A dry run budget is not worth halting the pool for: every
			// further subtree aborts on its first ticket.
			out.aborted = out.aborted || sub.aborted
			if err != nil {
				return err
			}
		}
		return nil
	})
	workers := make([]WorkerStats, nw)
	for k := range outs {
		o := &outs[k]
		st.fold(subtreeStats{runs: o.ws.Runs, maxDepth: o.maxDepth, pruned: o.ws.Pruned, cutAlts: o.cutAlts, aborted: o.aborted})
		workers[k] = o.ws
	}
	return st, workers, err
}

// buildFrontier expands the decision tree breadth-first until at least
// target unexpanded nodes are pending (or the tree, or the probe cap, runs
// out). Complete runs shallower than the frontier are counted and checked
// here; each expanded internal node costs one probe replay that is NOT
// counted as a run (its leftmost leaf is revisited by the worker that takes
// the corresponding subtree), keeping Stats.Runs identical to the sequential
// explorer's.
func buildFrontier(w *walker, target int) ([][]int, subtreeStats, error) {
	var st subtreeStats
	queue := [][]int{nil}
	expansions := 0
	for len(queue) > 0 && len(queue) < target && expansions < frontierMaxNodes {
		if w.stopped() {
			st.aborted = true
			return nil, st, nil
		}
		p := queue[0]
		queue = queue[1:]
		adv, res, err := w.replay(p, false)
		if err != nil {
			return nil, st, err
		}
		expansions++
		if len(adv.taken) <= len(p) {
			// The run ended consuming exactly the prefix: p is a leaf.
			if !w.budget.take() {
				st.aborted = true
				return nil, st, nil
			}
			st.runs++
			w.cfg.Progress.Add(1, 0)
			if d := len(adv.taken); d > st.maxDepth {
				st.maxDepth = d
			}
			if cerr := w.session.Check(res); cerr != nil {
				return nil, st, &PropertyError{Script: scriptOf(adv), Err: cerr}
			}
			continue
		}
		// Internal node: attribute its pruned alternatives once, enqueue its
		// children in sibling order.
		st.pruned += adv.prunedAt[len(p)]
		w.cfg.Progress.Add(0, int64(adv.prunedAt[len(p)]))
		for i := 0; i < adv.altCounts[len(p)]; i++ {
			child := append(append(make([]int, 0, len(p)+1), p...), i)
			queue = append(queue, child)
		}
	}
	return queue, st, nil
}
