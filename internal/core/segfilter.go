package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"dash/internal/obs"
	"dash/internal/pmem"
)

// DRAM-resident per-segment filter mirror — the dirCache pattern (PR 3)
// pushed down one layer. The PM buckets remain the crash-consistent source
// of truth, but on the read path they are mostly metadata traffic: a lookup
// used to charge the home bucket's header line, one line per
// fingerprint-matched record, and often the neighbor bucket's lines too,
// before reaching the one thing that actually answers the query. All of
// that is reconstructible, so every segment carries a mirror of its buckets
// in ordinary Go memory:
//
//   - per bucket: a shadow of the seqlock version (odd while a locked
//     mutator is mid-flight), the meta word (allocation bitmap + overflow
//     tracking), both fingerprint words, and all 14 record word pairs —
//     for inline records the key and value themselves, for indirect
//     records the packed blob address and the stored full key hash.
//
// The mirror hangs off the segment's handle (dircache.go), next to the
// header's (local depth, pattern) claim, which lets a negative lookup
// validate its route without touching the PM directory or segment header.
//
// Reads therefore probe entirely in DRAM and dereference PM only for
// record payloads that genuinely live there: an inline hit or any miss
// costs zero charged PM lines, and an indirect hit charges exactly one
// streaming read of its blob. Writers keep probing PM under their bucket
// locks (the mirror never becomes load-bearing for mutation decisions, so
// a poisoned mirror cannot corrupt PM) and write every mutation through to
// the mirror while the bucket's shadow version is odd.
//
// Coherence mirrors the dirCache discipline:
//
//   - write-through from every locked mutator (insert, delete, in-place
//     and copy-on-write update, displacement, stash spill and untrack,
//     the publish sweep, and the split metadata bump), all inside the
//     bucket's PM lock with the shadow version odd;
//   - a split's sibling handle is built, with its mirror, before the split
//     marker is persisted, and the migration pass is the only writer of the
//     sibling (writers of moving keys wait for the split), so its copies
//     write through and the sibling's mirror is complete the moment the
//     publish makes the handle reachable; a rollback never publishes it;
//   - lock-free readers validate against the shadow seqlock: a scan is
//     trusted only if the bucket's shadow version was even and unchanged
//     across it, which makes a stable mirror scan exactly as consistent
//     as the PM scan it replaces;
//   - negatives additionally check the handle's (depth, pattern) claim and
//     re-read the route afterwards — the DRAM equivalent of
//     validateRoute. If the DRAM state cannot vouch for a miss, the
//     operation falls back to the PM path; if PM then says the route was
//     fine, the mirror itself must be stale and is repaired in place
//     (mirrorRepair, the cacheRepair of this layer);
//   - Create gives every segment an empty mirror; Open gives none — each
//     segment's mirror is filled at its first-touch recovery (lazyrec.go)
//     from the same one read per bucket that decides the recovery drops,
//     off the restart critical path, and no operation reaches the segment
//     before that;
//   - a hash-sampled cross-check (mirrorMaybeCheck) compares the home
//     bucket's mirror against PM on ~1/1024 of mirror-served reads, so
//     even a divergence with no detectable symptom (a poisoned bitmap
//     yielding silent false negatives) is found and healed while costing
//     well under one PM byte per operation.
const (
	mirBkVersion = 0 // shadow seqlock: odd while the bucket's PM lock is held
	mirBkMeta    = 1 // mirror of the PM meta word (bitmap + overflow tracking)
	mirBkFPLo    = 2 // mirror of fingerprint word 2
	mirBkFPHi    = 3 // mirror of fingerprint word 3 (incl. stash indexes)
	mirBkRecords = 4 // 2 words per slot: the record's word 0 and word 1
	mirBkWords   = mirBkRecords + 2*slotsPerBucket

	// mirrorSamplePeriod is the default sampling period of the PM
	// cross-check: one mirror-served read in this many (selected by key
	// hash, so the check adds no shared counter to the hot path) pays a
	// few PM lines to compare its home bucket against the mirror.
	mirrorSamplePeriod = 1024
)

// segMirror is the DRAM mirror of one segment's buckets. The object is
// permanent for its handle: repairs rewrite it in place, so a writer that
// fetched the pointer before a repair keeps writing through to the object
// being healed — each bucket's PM lock serializes the two.
type segMirror struct {
	w [totalBuckets * mirBkWords]atomic.Uint64
}

// segMirrorBytes is the DRAM footprint one mirror adds, for Stats.
var segMirrorBytes = uint64(unsafe.Sizeof(segMirror{}))

func (m *segMirror) word(bi, off int) *atomic.Uint64 {
	return &m.w[bi*mirBkWords+off]
}

func (m *segMirror) recWord(bi, slot, j int) *atomic.Uint64 {
	return &m.w[bi*mirBkWords+mirBkRecords+2*slot+j]
}

// segFilters holds the mirrors' observability counters: goroutine-sharded
// obs.Counters registered in the table's obs.Registry (initObs) under
// segfilter.* names, so the every-read increments cannot become a
// cross-thread hotspot.
type segFilters struct {
	hits   *obs.Counter // reads served by a mirror (positive or validated miss)
	misses *obs.Counter // mirror probes that fell back to the PM path
	checks *obs.Counter // sampled mirror-vs-PM cross-checks run
	heals  *obs.Counter // mirrors rebuilt in place after a failed cross-check
}

// mirrorBytes is the DRAM held by the mirrors of the view's recovered
// handles.
func (t *Table) mirrorBytes() uint64 {
	n := uint64(0)
	eachHandle(t.cache.view.Load(), func(h *segHandle) {
		if h.mir.Load() != nil {
			n++
		}
	})
	return n * segMirrorBytes
}

// mirrorFillBucket copies one bucket's PM words into the mirror. The
// caller holds the bucket's PM lock, whose acquisition charged the header
// line; record lines are charged here as one streaming read up to the
// highest used slot, like every bucket scan.
func mirrorFillBucket(p *pmem.Pool, mir *segMirror, seg pmem.Addr, bi int) {
	touchRecordLines(p, segBucket(seg, bi), mirrorCopyBucket(p, mir, seg, bi))
}

// mirrorCopyBucket is mirrorFillBucket's quiet copy, for a caller that
// already charged every line it reads; it returns the bucket's meta word.
func mirrorCopyBucket(p *pmem.Pool, mir *segMirror, seg pmem.Addr, bi int) uint64 {
	ba := segBucket(seg, bi)
	m := p.QuietLoadU64(ba.Add(bkOffMeta))
	mir.word(bi, mirBkMeta).Store(m)
	mir.word(bi, mirBkFPLo).Store(p.QuietLoadU64(ba.Add(bkOffFPLo)))
	mir.word(bi, mirBkFPHi).Store(p.QuietLoadU64(ba.Add(bkOffFPHi)))
	for slot := 0; slot < slotsPerBucket; slot++ {
		if !metaSlotUsed(m, slot) {
			mir.recWord(bi, slot, 0).Store(0)
			mir.recWord(bi, slot, 1).Store(0)
			continue
		}
		ra := recordAddr(ba, slot)
		mir.recWord(bi, slot, 0).Store(p.QuietLoadU64(ra))
		mir.recWord(bi, slot, 1).Store(p.QuietLoadU64(ra.Add(8)))
	}
	return m
}

// mirrorRepair reconciles h's claim and mirror with PM truth in place,
// bucket by bucket under each bucket's PM lock — cacheRepair one layer
// down. The header claim is copied first, under bucket 0's lock: a publish
// mutates the header only while holding every bucket lock, so holding any
// one of them excludes it.
func (t *Table) mirrorRepair(h *segHandle) {
	p := t.pool
	seg, mir := h.addr, h.mir.Load()
	t.filters.heals.Inc()
	t.fr.Record(obs.EvMirrorHeal, obs.TagNone, uint64(seg), 0)
	for bi := 0; bi < totalBuckets; bi++ {
		ba := segBucket(seg, bi)
		lockBucket(p, mir, ba, bi)
		if bi == 0 {
			h.setClaim(segDepth(p, seg), p.QuietLoadU64(seg.Add(segOffPattern)))
		}
		mirrorFillBucket(p, mir, seg, bi)
		unlockBucket(p, mir, ba, bi)
	}
}

// --- lock-free mirror probes (the read path) ---

// mirBucketSearch scans one mirrored bucket under its shadow seqlock (the
// DRAM side of the contract lockBucket/unlockBucket keep with the PM
// version word): it loops until a scan completes under an unchanged even
// shadow version, so the returned record words — and the meta/fingerprint
// words handed back for overflow-probing decisions — form a consistent
// snapshot of the bucket. An indirect candidate's blob is verified (and
// fully charged) during the scan; a match through a slot that mutated
// mid-scan is discarded by the version recheck.
func mirBucketSearch(vl *pmem.VarLog, mir *segMirror, bi int, pk *probeKey) (kv pmem.KV, blobHot, found bool, m, hi uint64) {
	ver := mir.word(bi, mirBkVersion)
	for {
		v := ver.Load()
		if v&1 != 0 {
			runtime.Gosched()
			continue
		}
		m = mir.word(bi, mirBkMeta).Load()
		lo := mir.word(bi, mirBkFPLo).Load()
		hi = mir.word(bi, mirBkFPHi).Load()
		kv, blobHot, found = pmem.KV{}, false, false
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) || fpGet(lo, hi, slot) != pk.parts.FP {
				continue
			}
			w0 := mir.recWord(bi, slot, 0).Load()
			w1 := mir.recWord(bi, slot, 1).Load()
			if r, hot, ok := mirRecMatch(vl, w0, w1, pk); ok {
				kv, blobHot, found = r, hot, true
				break
			}
		}
		if ver.Load() == v {
			return
		}
	}
}

// mirSegSearch probes the mirrored segment: candidate pair
// fingerprint-first, then the home bucket's overflow metadata into the
// stash (the order segFindLocked uses). Zero PM traffic except the blob
// read of an indirect hit.
func mirSegSearch(vl *pmem.VarLog, mir *segMirror, pk *probeKey) (pmem.KV, bool, bool) {
	b := int(pk.parts.BucketIndex(bucketBits))
	b2 := (b + 1) % normalBuckets
	kv, hot, found, m, hi := mirBucketSearch(vl, mir, b, pk)
	if found {
		return kv, hot, true
	}
	if kv2, hot2, f2, _, _ := mirBucketSearch(vl, mir, b2, pk); f2 {
		return kv2, hot2, true
	}
	for i := 0; i < maxOvSlots; i++ {
		if !metaOvSlotUsed(m, i) || metaOvFP(m, i) != pk.parts.FP {
			continue
		}
		j := ovIdxGet(hi, i)
		if kv2, hot2, f2, _, _ := mirBucketSearch(vl, mir, normalBuckets+j, pk); f2 {
			return kv2, hot2, true
		}
	}
	if metaOvCount(m) > 0 {
		for j := 0; j < stashBuckets; j++ {
			if kv2, hot2, f2, _, _ := mirBucketSearch(vl, mir, normalBuckets+j, pk); f2 {
				return kv2, hot2, true
			}
		}
	}
	return pmem.KV{}, false, false
}

// --- sampled self-check ---

// mirrorMaybeCheck cross-checks the probe's home bucket against PM on a
// hash-selected sample of mirror-served reads (~1/mirrorSamplePeriod; the
// selection uses hash bits disjoint from the routing bits so the sampled
// set spans buckets). This is the safety net for divergence with no
// hot-path symptom: a mirror that silently lost a slot answers misses that
// nothing else would ever question. A detected mismatch heals the whole
// segment's mirror.
func (t *Table) mirrorMaybeCheck(h *segHandle, mir *segMirror, pk *probeKey) {
	if (pk.parts.Hash>>20)&t.mirrorSampleMask != 0 {
		return
	}
	t.filters.checks.Inc()
	if !t.mirrorBucketMatchesPM(h.addr, mir, int(pk.parts.BucketIndex(bucketBits))) {
		t.mirrorRepair(h)
	}
}

// mirrorBucketMatchesPM optimistically compares one bucket's mirror with
// PM: both sides are snapshotted under stable (even, unchanged) versions,
// which proves they describe the same quiescent state and are directly
// comparable. Any racing writer — or an unlocked single-word record store,
// which the seqlock deliberately does not cover — voids the comparison and
// reports a (possibly spurious) match; only a doubly-stable mismatch is
// real. PM reads are charged like any probe: the version load pays for the
// header line, record lines are one streaming touch.
func (t *Table) mirrorBucketMatchesPM(seg pmem.Addr, mir *segMirror, bi int) bool {
	p := t.pool
	ba := segBucket(seg, bi)
	va := ba.Add(bkOffVersion)
	pv := p.LoadU64(va)
	mv := mir.word(bi, mirBkVersion).Load()
	if pv&1 != 0 || mv&1 != 0 {
		return true
	}
	m := p.QuietLoadU64(ba.Add(bkOffMeta))
	lo := p.QuietLoadU64(ba.Add(bkOffFPLo))
	hi := p.QuietLoadU64(ba.Add(bkOffFPHi))
	ok := m == mir.word(bi, mirBkMeta).Load() &&
		lo == mir.word(bi, mirBkFPLo).Load() &&
		hi == mir.word(bi, mirBkFPHi).Load()
	if ok {
		touchRecordLines(p, ba, m)
		for slot := 0; slot < slotsPerBucket && ok; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			ra := recordAddr(ba, slot)
			ok = p.QuietLoadU64(ra) == mir.recWord(bi, slot, 0).Load() &&
				p.QuietLoadU64(ra.Add(8)) == mir.recWord(bi, slot, 1).Load()
		}
	}
	if p.QuietLoadU64(va) != pv || mir.word(bi, mirBkVersion).Load() != mv {
		return true // racing writer: nothing provable either way
	}
	return ok
}

// mirrorVerifySeg compares one handle's claim and whole mirror against PM
// with quiet loads — the quiescent-state debugging/test oracle behind the
// coherence tests. Returns the number of mismatching buckets (a wrong
// claim counts as one more; an unrecovered handle fails every bucket).
// Only meaningful while no writer runs.
func (t *Table) mirrorVerifySeg(h *segHandle) int {
	p := t.pool
	seg, mir := h.addr, h.mir.Load()
	if mir == nil {
		return totalBuckets
	}
	bad := 0
	if l, pat := h.loadClaim(); uint64(l) != p.QuietLoadU64(seg.Add(segOffDepth)) ||
		pat != p.QuietLoadU64(seg.Add(segOffPattern)) {
		bad++
	}
	for bi := 0; bi < totalBuckets; bi++ {
		ba := segBucket(seg, bi)
		m := p.QuietLoadU64(ba.Add(bkOffMeta))
		ok := m == mir.word(bi, mirBkMeta).Load() &&
			p.QuietLoadU64(ba.Add(bkOffFPLo)) == mir.word(bi, mirBkFPLo).Load() &&
			p.QuietLoadU64(ba.Add(bkOffFPHi)) == mir.word(bi, mirBkFPHi).Load()
		for slot := 0; slot < slotsPerBucket && ok; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			ra := recordAddr(ba, slot)
			ok = p.QuietLoadU64(ra) == mir.recWord(bi, slot, 0).Load() &&
				p.QuietLoadU64(ra.Add(8)) == mir.recWord(bi, slot, 1).Load()
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// mirrorVerifyAll is mirrorVerifySeg over every handle of the view; the
// quiescent coherence oracle for tests.
func (t *Table) mirrorVerifyAll() int {
	bad := 0
	eachHandle(t.cache.view.Load(), func(h *segHandle) { bad += t.mirrorVerifySeg(h) })
	return bad
}
