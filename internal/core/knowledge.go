package core

import "sort"

// RankLoad is one entry of the gossip payload: an underloaded rank and
// its load as known to the sender.
type RankLoad struct {
	Rank Rank
	Load float64
}

// Knowledge is a rank's accumulated partial view of the underloaded
// ranks in the system: the set S^p and load map LOAD^p of the paper's
// notation, kept consistent by construction (|S^p| ≡ |LOAD^p()|).
//
// Entries are kept in insertion order so CMF construction and sampling
// are deterministic for a deterministic message order. Between resets the
// entry list is append-only (Merge's scratch stores land past its
// length), which lets Entries return a zero-copy snapshot: gossip payloads at scale would otherwise dominate allocation
// (footnote 2 of the paper discusses exactly this O(P) list-size
// concern).
//
// The largest known load is cached so MaxLoad — read on every CMF build
// of the modified kind — is O(1) instead of a scan of the entries.
type Knowledge struct {
	has     []bool    // indexed by rank
	load    []float64 // indexed by rank; valid where has[r]; updated by transfers
	entries []RankLoad

	// max is the largest known load (0 when empty). When maxStale is set
	// an Update has lowered the load that held it, and max is only an
	// upper bound until MaxLoad rescans.
	max      float64
	maxStale bool
}

// NewKnowledge returns empty knowledge over numRanks ranks.
func NewKnowledge(numRanks int) *Knowledge {
	return &Knowledge{
		has:  make([]bool, numRanks),
		load: make([]float64, numRanks),
	}
}

// Add inserts rank r with load l if not yet known and reports whether
// the entry was new. An existing entry is left untouched: the first load
// learned for a rank wins, matching set-union semantics of Algorithm 1
// lines 16–17.
func (k *Knowledge) Add(r Rank, l float64) bool {
	if k.has[r] {
		return false
	}
	k.has[r] = true
	k.load[r] = l
	k.entries = append(k.entries, RankLoad{Rank: r, Load: l})
	k.raiseMax(l)
	return true
}

// raiseMax folds a newly set load into the cached maximum. A load above
// the cached value is the new maximum even when the cache is stale,
// because a stale cache still bounds every other load from above.
func (k *Knowledge) raiseMax(l float64) {
	if l > k.max {
		k.max, k.maxStale = l, false
	}
}

// Update overwrites the known load of rank r; r must already be known.
// The transfer stage uses it to account scheduled transfers (Algorithm 2
// line 12). Updates are visible through Load and the CMF but not through
// previously taken Entries snapshots, whose loads are frozen at gossip
// time — exactly the staleness in-flight messages would carry.
func (k *Knowledge) Update(r Rank, l float64) {
	if !k.has[r] {
		panic("core: Knowledge.Update of unknown rank")
	}
	old := k.load[r]
	k.load[r] = l
	if l < old && old == k.max {
		k.maxStale = true
	}
	k.raiseMax(l)
}

// Contains reports whether rank r is in S^p.
func (k *Knowledge) Contains(r Rank) bool { return k.has[r] }

// Load returns the known load of rank r; r must be known.
func (k *Knowledge) Load(r Rank) float64 {
	if !k.has[r] {
		panic("core: Knowledge.Load of unknown rank")
	}
	return k.load[r]
}

// Len returns |S^p|.
func (k *Knowledge) Len() int { return len(k.entries) }

// NumRanks returns the size of the rank space the knowledge covers.
func (k *Knowledge) NumRanks() int { return len(k.has) }

// Entries returns the knowledge as a payload slice in insertion order.
// The returned slice is an immutable snapshot until the next Reset: the
// Knowledge only ever writes at or past its current length — appends,
// and the scratch stores Merge makes for payload entries that turn out
// to be known already — and every snapshot ends at or before that
// length, so holders (in-flight messages within the current iteration)
// stay valid with no copying. Reset reuses the buffer, so snapshots must
// not outlive the iteration they were taken in.
func (k *Knowledge) Entries() []RankLoad { return k.entries[:len(k.entries):len(k.entries)] }

// Merge adds all unknown entries from the payload and returns the number
// of new entries (Algorithm 1 lines 16–17). It is equivalent to calling
// Add on each payload entry in order, without Add's "already known?"
// branch: every entry is stored into the slot at the current length,
// and the length advances only when the rank was unknown, so a known
// rank's store is overwritten by the next entry or left past the end.
// Gossip payloads mix known and unknown ranks unpredictably, which made
// that branch's mispredictions the merge's main cost. The loads and the
// cached maximum are then filled in from the newly added entries alone.
func (k *Knowledge) Merge(payload []RankLoad) int {
	start := len(k.entries)
	buf := k.entries[:cap(k.entries)]
	n := start
	for _, e := range payload {
		if n == len(buf) {
			// No spare slot: grow exactly when and as an Add loop's
			// append would — for a new rank only — so capacity tracks
			// what the rank has learned (O(|S^p|)), never the payload
			// sizes or the rank space. This branch is rarely taken.
			if k.has[e.Rank] {
				continue
			}
			buf = append(buf, e)
			buf = buf[:cap(buf)]
		}
		buf[n] = e
		fresh := 0
		if !k.has[e.Rank] {
			fresh = 1
		}
		k.has[e.Rank] = true
		n += fresh
	}
	k.entries = buf[:n]
	for _, e := range k.entries[start:] {
		k.load[e.Rank] = e.Load
		k.raiseMax(e.Load)
	}
	return n - start
}

// MaxLoad returns the largest known load (0 when empty), used by the
// modified CMF's l_s = max(l_ave, max LOAD^p). It reads the cached
// maximum, rescanning only after an Update lowered the load that held
// it; either way the value is exactly what a scan of the entries in
// order returns.
func (k *Knowledge) MaxLoad() float64 {
	if k.maxStale {
		k.max, k.maxStale = 0, false
		for _, e := range k.entries {
			k.raiseMax(k.load[e.Rank])
		}
	}
	return k.max
}

// Canonicalize sorts the entries by rank, making the CMF built over them
// — and hence transfer-candidate sampling — independent of the order in
// which gossip messages happened to arrive. Asynchronous transports
// reorder deliveries (and fault injection reorders them aggressively), so
// the distributed balancer canonicalizes at the gossip/transfer stage
// boundary; the synchronous engine keeps raw insertion order, preserving
// its historical byte-identical outputs. Sorting reorders the backing
// array of previously taken Entries snapshots, so it must only be called
// at a quiescent point where no snapshot is in flight — the start of a
// transfer stage, after the gossip epoch has terminated, qualifies.
func (k *Knowledge) Canonicalize() {
	sort.Slice(k.entries, func(i, j int) bool { return k.entries[i].Rank < k.entries[j].Rank })
}

// Reset empties the knowledge for reuse in a new iteration. The entry
// buffer is truncated in place and reused, so snapshots taken before the
// reset become invalid: every driver must deliver (or drop) all in-flight
// messages of an iteration before resetting — the synchronous engine
// drains its queue to quiescence and the distributed balancer closes the
// iteration's epoch, so both satisfy this by construction.
func (k *Knowledge) Reset() {
	for _, e := range k.entries {
		k.has[e.Rank] = false
	}
	k.entries = k.entries[:0]
	k.max, k.maxStale = 0, false
}
