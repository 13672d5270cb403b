// The visited-state store behind Config.Dedup: a lock-striped,
// power-of-two-sharded fingerprint set with a bounded-memory eviction policy,
// per-shard stats, and a lock-free read path.
//
// Exploration with Dedup computes a canonical state fingerprint at every NEW
// decision node (sched control points + the harness's Session.Fingerprint)
// and asks the store whether the state was already visited. A hit cuts the
// node's subtree: the whole decision tree below a converged state collapses
// to the single leftmost completion path, converting the DFS over the
// decision *tree* into exploration of the state *graph*.
//
// Soundness (why cutting at a hit never loses behaviors):
//
//   - Subtree ownership is structural, not store-mediated. A node is
//     fingerprinted exactly once — when the walker first creates it (depth >=
//     the replay's backtrack point); re-traversals of the node during later
//     replays of the same prefix skip the store entirely. The first inserter
//     of a fingerprint therefore always finishes expanding its subtree, no
//     matter what happens to the store afterwards: evictions and capacity
//     limits only cause re-expansion (lost reduction), never lost coverage.
//   - States below a cut are not inserted: a cut run completes along its
//     leftmost remaining path without claiming ownership of anything, so a
//     hit can only ever cite a state whose first visitor expands it.
//   - The fingerprint covers everything that determines the subtree: the
//     shared-object state and harness logs (Session.Fingerprint), each
//     process's control point (pending label, crashed flag, step count — so
//     states are depth-stamped and the state graph is acyclic, which also
//     makes cuts safe under MaxSteps), each process's observation digest
//     (sched.Observe: every value read from shared state, which pins the
//     in-flight local state that control points alone cannot — e.g. a
//     commit-adopt proposer's scanned-but-unwritten vote), and, under
//     Prune, the previous decision (the partial-order-reduction context;
//     see explore.go).
//   - The remaining gap is 128-bit fingerprint collisions (astronomically
//     unlikely, inherent to hashing checkers) and harnesses whose checkers
//     observe state outside the fingerprint — Session.Fingerprint documents
//     that contract.
//
// The store is shared by every worker of a parallel exploration: a state
// first visited in one worker's subtree cuts converged branches in all
// others. Coverage is unaffected (the first inserter still exhausts its
// subtree, workers abandon subtrees only when the whole exploration stops),
// but which branches get cut — and hence the visited-run count — depends on
// worker timing; only the sequential explorer's dedup run counts are
// deterministic.
//
// # Concurrency: seqlock entries, lock-free probes
//
// Each slot is three atomic 64-bit words {lo, hi, stamp} written seqlock
// style: a writer (always under the shard mutex, so writers are mutually
// exclusive) first stores stamp=0, then lo and hi, then the new nonzero
// stamp. Stamps are draws from a monotone per-shard counter, so a stamp
// value never repeats. A probe is lock-free: it loads the stamp (0 means
// empty or mid-write — skip), loads lo/hi, and on a match re-loads the stamp
// to verify nothing moved underneath; since stamps never repeat, an
// unchanged stamp proves the two fingerprint words were stable. A probe
// that finds its fingerprint returns "visited" without ever taking the lock
// (the approximate-LRU stamp refresh is a best-effort CAS); a probe that
// misses — or reads a torn slot — falls back to the mutex, re-probes, and
// inserts, which preserves the store's exactness guarantee: for each
// resident fingerprint exactly one caller ever gets "not visited".
//
// # Growth: sized to what the store holds
//
// The memory budget is a bound, not an allocation. Each shard starts at one
// probe window of slots and, under its mutex, doubles and rehashes (stamps
// kept) whenever an insert would take it past half full or finds its probe
// window full, until it reaches its share of the budget. Only a table at
// that bound evicts, so below it the store is an exact set: hit, insert and
// visited-run counts are those of an unbounded store. A rehash that
// overflows a probe window below the bound doubles again; at the bound the
// window drops its oldest entry, exactly as an insert does.
//
// A shard publishes its current table through an atomic pointer, and a
// probe loads it once. A grown-out table takes no more inserts, so a probe
// on a stale table stays exact: a hit there is a true hit (the entry was
// inserted and its refresh is merely lost), and a miss falls back to the
// write path, which re-probes the current table under the mutex.

package explore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpcn/internal/sched"
)

const (
	// dedupEntryBytes is the in-table size of one visited state.
	dedupEntryBytes = 24
	// dedupProbeWindow is the linear-probe window, and a shard's initial
	// slot count; an insert that finds the whole window occupied grows the
	// table, or, at the memory bound, evicts the window's oldest entry.
	dedupProbeWindow = 16
	// DefaultDedupMem bounds the visited-state store when Config.DedupMem is
	// zero. Each shard's slot bound rounds down to a power of two, so at the
	// default 64 shards the bound is 2,097,152 slots (48 MiB); a store only
	// grows toward it as states arrive.
	DefaultDedupMem = 64 << 20
	// DefaultDedupShards is the lock-stripe count when Config.DedupShards is
	// zero. 64 shards keep write contention negligible for any sane worker
	// count (reads never contend: probes are lock-free).
	DefaultDedupShards = 64
)

// dedupEntry is one resident fingerprint: a seqlock of three atomic words.
// stamp is the shard-local insertion (or last-hit) sequence number; 0 marks
// a slot that is empty or mid-write.
type dedupEntry struct {
	lo, hi atomic.Uint64
	stamp  atomic.Uint64
}

// dedupTable is one power-of-two open-addressing table of a shard.
type dedupTable struct {
	slots []dedupEntry
	mask  uint64
}

func newDedupTable(slots int) *dedupTable {
	return &dedupTable{slots: make([]dedupEntry, slots), mask: uint64(slots - 1)}
}

// place finds where a fingerprint homed at home goes in t: the window's
// first free slot, else (free < 0) the window's oldest entry as victim.
func (t *dedupTable) place(home uint64) (free, victim int, victimStamp uint64) {
	free, victim = -1, -1
	for i := uint64(0); i < dedupProbeWindow; i++ {
		j := int((home + i) & t.mask)
		stamp := t.slots[j].stamp.Load()
		if stamp == 0 {
			return j, -1, 0
		}
		if victim < 0 || stamp < victimStamp {
			victim, victimStamp = j, stamp
		}
	}
	return -1, victim, victimStamp
}

// put writes an entry in seqlock order: empty the slot, fill the
// fingerprint words, then publish with the stamp. Concurrent probes either
// skip the slot (stamp 0) or detect the restamp and fall back to the lock.
func (t *dedupTable) put(j int, lo, hi, stamp uint64) {
	s := &t.slots[j]
	s.stamp.Store(0)
	s.lo.Store(lo)
	s.hi.Store(hi)
	s.stamp.Store(stamp)
}

// dedupShard is one stripe: a growing open-addressing table with
// window-local oldest-entry eviction at its slot bound (an approximate LRU —
// hits refresh the stamp — that makes the store's memory strictly bounded).
// The mutex guards writes only; probes read the seqlock entries lock-free.
// The counters are atomic and exact: every visit increments lookups once
// and exactly one of hits or inserts.
type dedupShard struct {
	mu      sync.Mutex
	tab     atomic.Pointer[dedupTable]
	bound   int // slot count the table never grows past
	stamp   atomic.Uint64
	occ     atomic.Int64
	lookups atomic.Int64
	hits    atomic.Int64
	inserts atomic.Int64
	evicted atomic.Int64
}

// dedupStore is the sharded visited-state set. Shard selection uses the
// fingerprint's high half, slot addressing its low half, so the two are
// uncorrelated.
type dedupStore struct {
	shards []dedupShard
	mask   uint64
}

// ceilPow2 rounds up to a power of two (minimum 1).
func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// newDedupStore bounds a store to memBytes across shards lock stripes.
// shards is rounded up to a power of two; each shard's slot bound is the
// largest power of two fitting its share of the budget (minimum one probe
// window), and each shard starts at one probe window of slots.
func newDedupStore(memBytes, shards int) *dedupStore {
	if memBytes <= 0 {
		memBytes = DefaultDedupMem
	}
	if shards <= 0 {
		shards = DefaultDedupShards
	}
	shards = ceilPow2(shards)
	perShard := memBytes / shards / dedupEntryBytes
	bound := dedupProbeWindow
	for bound*2 <= perShard {
		bound <<= 1
	}
	st := &dedupStore{shards: make([]dedupShard, shards), mask: uint64(shards - 1)}
	for i := range st.shards {
		st.shards[i].bound = bound
		st.shards[i].tab.Store(newDedupTable(dedupProbeWindow))
	}
	return st
}

// visit reports whether fp was already in the store, inserting it if not.
// Exactly one caller ever gets "false" for a given resident fingerprint; a
// full probe window grows the table or, at the memory bound, evicts its
// oldest entry (approximate LRU). The hit path is lock-free (see the file
// comment); only a miss or a torn read takes the shard mutex.
func (st *dedupStore) visit(fp sched.Fingerprint) bool {
	sh := &st.shards[fp.Hi&st.mask]
	sh.lookups.Add(1)
	t := sh.tab.Load()
	home := fp.Lo
	for i := uint64(0); i < dedupProbeWindow; i++ {
		s := &t.slots[(home+i)&t.mask]
		st1 := s.stamp.Load()
		if st1 == 0 {
			continue // empty or mid-write; the slow path re-checks under the lock
		}
		if s.lo.Load() == fp.Lo && s.hi.Load() == fp.Hi {
			if s.stamp.Load() != st1 {
				break // torn read: a writer moved the slot; resolve under the lock
			}
			sh.hits.Add(1)
			// Best-effort LRU refresh: keep hot states resident. A failed CAS
			// means a writer (or another hit) already restamped the slot; on
			// a grown-out table the refresh is simply lost.
			s.stamp.CompareAndSwap(st1, sh.stamp.Add(1))
			return true
		}
	}
	return sh.visitSlow(fp)
}

// visitSlow is the write path: under the shard mutex it re-probes the
// current table (the fingerprint may have been inserted since the lock-free
// miss, or the miss may have read a grown-out table), grows the table if the
// insert needs room, and inserts into a free slot or, at the bound, over the
// window's oldest entry. It reports a hit exactly like the fast path would.
func (sh *dedupShard) visitSlow(fp sched.Fingerprint) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.tab.Load()
	home := fp.Lo
	for i := uint64(0); i < dedupProbeWindow; i++ {
		s := &t.slots[(home+i)&t.mask]
		if s.stamp.Load() != 0 && s.lo.Load() == fp.Lo && s.hi.Load() == fp.Hi {
			sh.hits.Add(1)
			s.stamp.Store(sh.stamp.Add(1)) // refresh: hot states stay resident
			return true
		}
	}
	free, victim, _ := t.place(home)
	for len(t.slots) < sh.bound && (free < 0 || 2*(sh.occ.Load()+1) > int64(len(t.slots))) {
		t = sh.grow(t)
		free, victim, _ = t.place(home)
	}
	slot := free
	if slot < 0 {
		slot = victim
		sh.evicted.Add(1)
	} else {
		sh.occ.Add(1)
	}
	sh.inserts.Add(1)
	t.put(slot, fp.Lo, fp.Hi, sh.stamp.Add(1))
	return false
}

// grow replaces the shard's table (held under the mutex) with one of twice
// the size holding the same entries and stamps, doubling again while a
// probe window overflows below the bound. A window that overflows at the
// bound drops its oldest entry, counted as an eviction. The new table is
// filled before it is published, and the old one takes no more inserts.
func (sh *dedupShard) grow(old *dedupTable) *dedupTable {
	for size := 2 * len(old.slots); ; size *= 2 {
		t := newDedupTable(size)
		if sh.rehash(old, t, size >= sh.bound) {
			sh.tab.Store(t)
			return t
		}
	}
}

// rehash copies old's entries into t. It reports false when a probe window
// of t overflows and evict is unset; with evict set, the older of the
// window's oldest entry and the incoming one is dropped.
func (sh *dedupShard) rehash(old, t *dedupTable, evict bool) bool {
	for i := range old.slots {
		s := &old.slots[i]
		stamp := s.stamp.Load()
		if stamp == 0 {
			continue
		}
		lo, hi := s.lo.Load(), s.hi.Load()
		free, victim, victimStamp := t.place(lo)
		switch {
		case free >= 0:
			t.put(free, lo, hi, stamp)
			continue
		case !evict:
			return false
		case victimStamp < stamp:
			t.put(victim, lo, hi, stamp)
		}
		sh.evicted.Add(1)
		sh.occ.Add(-1)
	}
	return true
}

// DedupStats summarizes the visited-state store of one exploration (zero
// unless Config.Dedup was set).
type DedupStats struct {
	// Lookups is the number of fingerprint probes (one per new decision
	// node).
	Lookups int64
	// Hits is the number of probes that found their state already visited —
	// each hit cut one converged subtree.
	Hits int64
	// States is the number of fingerprints inserted (distinct states
	// discovered; evicted states that are re-discovered count again).
	States int64
	// Evictions is the number of resident states dropped by the
	// bounded-memory policy. Evictions never make cuts unsound — they only
	// cost reduction (an evicted state found again is re-expanded).
	Evictions int64
	// CutAlternatives is the number of decision alternatives dropped inside
	// cut subtrees (the dedup analogue of Stats.Pruned).
	CutAlternatives int
	// Shards, Capacity and Occupied describe the store when the exploration
	// finished: lock stripes, entry slots currently allocated (the tables
	// grow on demand, up to the DedupMem bound) and slots in use.
	Shards   int
	Capacity int
	Occupied int
}

// String renders the store counters compactly.
func (d DedupStats) String() string {
	return fmt.Sprintf("states=%d hits=%d cut=%d evictions=%d occupied=%d/%d shards=%d",
		d.States, d.Hits, d.CutAlternatives, d.Evictions, d.Occupied, d.Capacity, d.Shards)
}

// snapshot aggregates the per-shard counters.
func (st *dedupStore) snapshot() DedupStats {
	var d DedupStats
	if st == nil {
		return d
	}
	d.Shards = len(st.shards)
	for i := range st.shards {
		sh := &st.shards[i]
		d.Lookups += sh.lookups.Load()
		d.Hits += sh.hits.Load()
		d.States += sh.inserts.Load()
		d.Evictions += sh.evicted.Load()
		d.Capacity += len(sh.tab.Load().slots)
		d.Occupied += int(sh.occ.Load())
	}
	return d
}

// ShardStats reports one lock stripe's counters (diagnostic surface for
// tuning DedupShards/DedupMem).
type ShardStats struct {
	Shard     int
	Lookups   int64
	Hits      int64
	States    int64
	Evictions int64
	Occupied  int
	Capacity  int
}

// shardStats snapshots every stripe.
func (st *dedupStore) shardStats() []ShardStats {
	out := make([]ShardStats, len(st.shards))
	for i := range st.shards {
		sh := &st.shards[i]
		out[i] = ShardStats{
			Shard: i, Lookups: sh.lookups.Load(), Hits: sh.hits.Load(),
			States: sh.inserts.Load(), Evictions: sh.evicted.Load(),
			Occupied: int(sh.occ.Load()), Capacity: len(sh.tab.Load().slots),
		}
	}
	return out
}
