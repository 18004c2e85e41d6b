package core

import (
	"sync/atomic"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// DRAM-resident directory cache. The PM directory block (directory.go) stays
// the crash-consistent source of truth, but on the hot paths it is pure
// overhead: every Get/Insert/Delete/Update used to pay three charged PM reads
// (root pointer, directory depth, directory entry) plus two more for the
// segment-header pattern check before touching a single bucket. All of that
// state is reconstructible, so — following the paper's goal of a probe
// costing ~one segment access (§4.3, §4.7) — a dirCache mirrors it in
// ordinary Go memory:
//
//   - the global depth and the mirrored directory block's address,
//   - one pointer per directory entry to its segment's handle (segHandle):
//     the one DRAM object per segment, carrying the segment's address, its
//     (local depth, pattern) claim, its filter mirror (segfilter.go) and its
//     first-touch recovery gate (lazyrec.go). A segment's entries are
//     contiguous and all hold the same handle pointer.
//
// Operations route through the cache first and touch PM metadata only to
// validate (validateRoute) or repair (cacheRepair). Coherence is
// write-through: split publish and directory doubling update the cache under
// dirMu before the splitting segment's bucket locks are released, so the
// cache is stale only while a structural change is in flight. Correctness
// never depends on that freshness — a stale route can only produce a failed
// validation (readers re-check against the PM directory before trusting a
// miss; writers validate after locking, and a seqlock-stable positive hit is
// valid wherever the route came from, because a key's record is physically
// present only in segments the directory routes it to, the copy/sweep window
// of a split being covered by the segment's bucket locks). A failed
// validation falls back to the PM path via cacheRepair and retries.
//
// Create installs the cache over the segments it formats; Open installs it
// from the directory image its reconcile already read. Nothing about it is
// persisted.
type dirCache struct {
	// view is an immutable-shape snapshot: the entries slice is fixed at
	// 2^depth and only ever swapped wholesale (doubling, rebuild). Entry
	// values mutate in place through the atomics.
	view atomic.Pointer[dirView]

	// hits counts routes that served their operation (a seqlock-stable
	// positive read, or a route validateRoute confirmed against PM);
	// misses counts stale routes that forced a repair + retry. Both are
	// goroutine-sharded obs.Counters so the every-operation increment
	// cannot make one counter cacheline a table-wide hotspot at real
	// thread counts. rebuilds counts full O(directory) reconstructions
	// (Create, Open, and the belt-and-braces depth-mismatch path of
	// cacheRepair) — rare, but registered the same way for uniformity.
	// All three live in the table's obs.Registry (initObs) under
	// dircache.* names.
	hits     *obs.Counter
	misses   *obs.Counter
	rebuilds *obs.Counter
}

type dirView struct {
	depth   uint8
	dir     pmem.Addr // the PM directory block this view mirrors
	entries []atomic.Pointer[segHandle]
}

// segHandle is a segment's DRAM state, reached through the directory cache
// in one pointer load. The object is permanent for its segment: splits
// update its claim in place, and repairs reuse it.
type segHandle struct {
	addr pmem.Addr

	// claim packs the segment header's (local depth, pattern) as
	// pattern<<8 | depth, so a reader loads both in one word. A split
	// publish updates it while holding every bucket lock of the segment.
	claim atomic.Uint64

	// mir is the segment's filter mirror; nil until the segment's
	// first-touch recovery after Open fills it, which doubles as the
	// gate's "done" state. recovering is the gate's claim bit, and split
	// records that Open saw a split marker for first touch to clear.
	mir        atomic.Pointer[segMirror]
	recovering atomic.Bool
	split      bool
}

func newSegHandle(addr pmem.Addr, depth uint8, pattern uint64, mir *segMirror) *segHandle {
	h := &segHandle{addr: addr}
	h.setClaim(depth, pattern)
	if mir != nil {
		h.mir.Store(mir)
	}
	return h
}

func (h *segHandle) setClaim(depth uint8, pattern uint64) {
	h.claim.Store(pattern<<8 | uint64(depth))
}

func (h *segHandle) loadClaim() (depth uint8, pattern uint64) {
	c := h.claim.Load()
	return uint8(c), c >> 8
}

// claims is segClaims against the handle's claim: does this segment's
// (depth, pattern) claim the key? Pure DRAM.
func (h *segHandle) claims(parts hashfn.Parts) bool {
	l, pat := h.loadClaim()
	return hashfn.SegmentIndex(parts.Hash, l) == pat
}

// route returns the handle cached for the key's directory slot. Pure DRAM:
// no PM traffic, no locks. The result may be stale while a split or
// doubling is in flight; callers validate before trusting it.
func (c *dirCache) route(parts hashfn.Parts) *segHandle {
	v := c.view.Load()
	return v.entries[parts.DirIndex(v.depth)].Load()
}

// eachHandle calls fn once per distinct handle of view v, in entry order.
// A segment's entries are contiguous, so comparing each entry with the
// previous one is enough; under a concurrent split publish the walk may
// visit a handle twice, which is why its exact callers run quiescent.
func eachHandle(v *dirView, fn func(h *segHandle)) {
	var prev *segHandle
	for i := range v.entries {
		if h := v.entries[i].Load(); h != prev {
			prev = h
			fn(h)
		}
	}
}

// cacheRebuild reconstructs the whole view from the PM directory in one
// O(directory) pass — the repair path for a view that no longer matches the
// PM directory's shape, which write-through makes unreachable except for a
// view a test poisoned. Each segment keeps the handle the current view
// already holds for its address; an address with none gets a new handle
// whose mirror is filled from PM (handleFor). The caller holds dirMu.
func (t *Table) cacheRebuild() {
	p := t.pool
	known := make(map[pmem.Addr]*segHandle)
	eachHandle(t.cache.view.Load(), func(h *segHandle) { known[h.addr] = h })
	dir := pmem.Addr(p.LoadU64(rootAddr.Add(rootOffDir)))
	depth := dirDepth(p, dir)
	hs := make([]*segHandle, uint64(1)<<depth)
	for i := range hs {
		seg := dirLoadEntry(p, dir, uint64(i))
		if i > 0 && hs[i-1].addr == seg {
			hs[i] = hs[i-1]
			continue
		}
		l := segDepth(p, seg)
		if h := known[seg]; h != nil {
			hs[i] = h
		} else {
			hs[i] = t.newRepairedHandle(seg, l)
		}
	}
	t.cacheInstall(dir, depth, hs)
}

// cacheInstall swaps in a view of directory block dir at depth over one
// handle per entry. Create and Open call it with the handles they built
// from the image they just wrote or reconciled, so the cache costs no
// second pass over the PM directory and segment headers.
func (t *Table) cacheInstall(dir pmem.Addr, depth uint8, hs []*segHandle) {
	v := &dirView{depth: depth, dir: dir, entries: make([]atomic.Pointer[segHandle], len(hs))}
	for i, h := range hs {
		v.entries[i].Store(h)
	}
	t.cache.view.Store(v)
	t.cache.rebuilds.Inc()
}

// cacheRepair refreshes the key's route from the PM directory after a failed
// validation. It serializes on dirMu so it cannot race the write-through
// of an in-flight split publish or doubling (and taking the mutex also means
// a repair naturally waits out the directory change that made the route
// stale). If the view no longer mirrors the current directory block — which
// write-through should make impossible, but a cache poisoned by a bug or a
// test must still heal — the whole view is rebuilt.
func (t *Table) cacheRepair(parts hashfn.Parts) {
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	t.fr.Record(obs.EvRouteRepair, obs.TagNone, parts.Hash, 0)
	p := t.pool
	v := t.cache.view.Load()
	dir := pmem.Addr(p.LoadU64(rootAddr.Add(rootOffDir)))
	if dir != v.dir || dirDepth(p, dir) != v.depth {
		t.cacheRebuild()
		return
	}
	idx := parts.DirIndex(v.depth)
	seg := dirLoadEntry(p, dir, idx)
	l := segDepth(p, seg)
	if v.entries[idx].Load().addr == seg {
		return
	}
	// The entry names another segment: find seg's handle among the entries
	// its coverage spans, or make one.
	start, span := dirCoverage(v.depth, l, p.QuietLoadU64(seg.Add(segOffPattern)))
	for i := start; i < start+span; i++ {
		if h := v.entries[i].Load(); h.addr == seg {
			v.entries[idx].Store(h)
			return
		}
	}
	v.entries[idx].Store(t.newRepairedHandle(seg, l))
}

// newRepairedHandle makes a handle for a directory-reachable segment the
// view lost — only a view a test poisoned does that — and fills its claim
// and mirror from PM under the segment's bucket locks (mirrorRepair).
func (t *Table) newRepairedHandle(seg pmem.Addr, l uint8) *segHandle {
	h := newSegHandle(seg, l, t.pool.QuietLoadU64(seg.Add(segOffPattern)), &segMirror{})
	t.mirrorRepair(h)
	return h
}

// cachePublishSplit write-through: mirror a completed split of the entry
// range [start, start+span) — the lower half keeps old's handle, whose
// claim the caller already updated, and the upper half routes to sib. The
// caller holds dirMu and every bucket lock of old's segment, so this lands
// before any operation can observe the post-split segment metadata.
func (t *Table) cachePublishSplit(sib *segHandle, start, span uint64) {
	v := t.cache.view.Load()
	for i := start + span>>1; i < start+span; i++ {
		v.entries[i].Store(sib)
	}
}

// cacheDouble write-through: install the doubled view right after the PM
// root pointer flipped to newDir. Every old entry is duplicated (doubling
// changes no segment's coverage). The caller holds dirMu.
func (t *Table) cacheDouble(newDir pmem.Addr) {
	old := t.cache.view.Load()
	n := uint64(len(old.entries))
	v := &dirView{depth: old.depth + 1, dir: newDir, entries: make([]atomic.Pointer[segHandle], 2*n)}
	for i := uint64(0); i < n; i++ {
		h := old.entries[i].Load()
		v.entries[2*i].Store(h)
		v.entries[2*i+1].Store(h)
	}
	t.cache.view.Store(v)
}
