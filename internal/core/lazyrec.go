package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// Lazy per-segment recovery (§4.6): Open reads the directory block once and
// one header line per segment, fixes directory claims and segment metadata,
// and defers everything per bucket to first touch. Open gives every
// directory-reachable segment a handle (dircache.go) carrying its
// reconciled claim and no mirror; the first operation routed to it wins the
// handle's gate (a CAS, the split-claim idiom) and runs the per-segment
// reconcile while losers spin until the handle's mirror appears. The
// reconcile clears held version locks and a leftover split marker, then
// reads each bucket once — one streaming read of its header line and used
// record lines — and decides everything from that read: misroute and
// duplicate drops, the record count, the segment's blob references and its
// filter mirror. The rare drops and the stash-ghost sweep are applied
// afterwards, writing through to the mirror. The record-log sweep runs as
// an incremental background pass once every segment has recovered (it
// needs the complete reference set), free-listing dead blobs in small
// batches under epoch guards.
//
// After a *clean* shutdown (Close persisted the root's clean marker) the
// drops and the count derivation are skipped — the image is reconciled by
// construction — but first touch still clears locks the crash model left
// odd, fills the segment's mirror and contributes its blob references, and
// the background pass still runs to rebuild the record log's DRAM free
// list.

// lazyRecovery is the DRAM side table describing what Open deferred. The
// Table drops its pointer once the background pass finishes.
type lazyRecovery struct {
	clean  bool  // clean-shutdown image: skip sweeps and count derivation
	openAt int64 // obs.Now() at Open, base of time-to-fully-recovered

	// order holds the handle of every directory-reachable segment at Open,
	// the deterministic iteration for driveRecovery. Segments created after
	// Open (split siblings) are absent — born recovered.
	order     []*segHandle
	remaining atomic.Int64

	// refs accumulates the blob addresses referenced by recovered segments'
	// slots, captured inside each segment's exclusive gate. Complete once
	// remaining hits zero; the background sweep then reads it without the
	// mutex (every insert happened-before the sweep's state observations).
	refMu sync.Mutex
	refs  map[pmem.Addr]struct{}

	// drvMu serializes driveRecovery (the background goroutine, RecoverAll
	// callers, Close). done flips after the log sweep completes.
	drvMu sync.Mutex
	done  atomic.Bool
}

// ensureRecovered gates one routed segment and returns its mirror: a single
// pointer load once the segment has recovered (always, for segments born
// after Open). Called at the top of every op-loop iteration, before the
// segment's mirror or buckets are trusted.
func (t *Table) ensureRecovered(h *segHandle) *segMirror {
	if mir := h.mir.Load(); mir != nil {
		return mir
	}
	return t.firstTouch(h)
}

// firstTouch is the once-per-segment gate: the CAS winner recovers the
// segment and publishes its mirror, which opens the gate; losers wait for
// the mirror (no locks held at the call sites, so spinning is deadlock-free
// — the same shape as split's claim). A handle without a mirror exists
// only while the table's lazy side table does.
func (t *Table) firstTouch(h *segHandle) *segMirror {
	if h.recovering.CompareAndSwap(false, true) {
		lr := t.lazy.Load()
		mir := t.recoverSegment(lr, h)
		lr.remaining.Add(-1)
		h.mir.Store(mir)
		return mir
	}
	for {
		if mir := h.mir.Load(); mir != nil {
			return mir
		}
		runtime.Gosched()
	}
}

// recoverSegment runs the deferred per-segment work under the caller's
// exclusive gate: no operation can touch the segment's buckets until the
// gate releases, so the pass runs single-threaded exactly as eager recovery
// did. A segment cannot split before it recovers (every mutator gates
// first), so the handle's claim is still the coverage Open reconciled.
//
// PM is read once: one streaming read per bucket of its header line (lock
// word, meta and fingerprints) and its used record lines — the lines
// split's scans charge for the same bucket. A lock word is written only
// when a crash left it odd. The mirror is filled from that read; on the
// crash path the same read decides the drops, which are applied afterwards
// (with the stash-ghost sweep), writing through to the mirror. Returns the
// finished mirror for the caller to publish.
func (t *Table) recoverSegment(lr *lazyRecovery, h *segHandle) *segMirror {
	p := t.pool
	seg := h.addr
	start := obs.Now()
	// Clear any split-progress marker, finishing or rolling back the
	// half-migrated split it describes. If the marker's sibling made it
	// into the directory, Open's claiming pass already completed the flips
	// and metadata and the misroute drops below remove the moved records'
	// leftovers — the split rolls forward. Otherwise the sibling was never
	// published: the directory still routes every key to this segment
	// (which kept all its records; migration only reads), so the marker
	// clear rolls the split back and the sibling block is leaked.
	if h.split {
		p.StoreU64(seg.Add(segOffSplit), 0)
		p.Persist(seg.Add(segOffSplit), 8)
	}
	mir := &segMirror{}
	var sc *segScan
	if !lr.clean {
		sc = segScanPool.Get().(*segScan)
		sc.reset()
	}
	for bi := 0; bi < totalBuckets; bi++ {
		ba := segBucket(seg, bi)
		// One streaming read: header line plus the used record lines.
		p.TouchRead(ba, bucketScanEnd(p.QuietLoadU64(ba.Add(bkOffMeta))))
		// Version locks are DRAM-meaning state that is never flushed, but a
		// header persist issued while the lock was held leaves it odd in
		// the image. Reset it before anything can spin on it.
		if v := p.QuietLoadU64(ba.Add(bkOffVersion)); v&1 != 0 {
			p.StoreU64(ba.Add(bkOffVersion), 0)
		}
		mirrorCopyBucket(p, mir, seg, bi)
		if sc != nil {
			t.scanBucket(sc, h, mir, bi)
		}
	}
	if sc != nil {
		for _, d := range sc.drops {
			loc := recLoc{bucket: d.bucket, slot: d.slot, tracked: -1}
			if loc.inStash() {
				home := int(d.parts.BucketIndex(bucketBits))
				loc.tracked = findTrackedSlot(p, segBucket(seg, home), d.parts.FP, d.bucket-normalBuckets)
			}
			segDeleteAt(p, mir, seg, d.parts, loc, false)
		}
		segScanPool.Put(sc)
		t.sweepStashGhosts(mir, seg)
	}
	segDone := obs.Now()

	// Count and blob references come from the finished mirror: pure DRAM.
	var refs []pmem.Addr
	n := 0
	for bi := 0; bi < totalBuckets; bi++ {
		m := mir.word(bi, mirBkMeta).Load()
		n += bits.OnesCount64(m & slotMask)
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			if w0 := mir.recWord(bi, slot, 0).Load(); recIsIndirect(w0) {
				refs = append(refs, recBlobAddr(w0))
			}
		}
	}
	if !lr.clean {
		t.count.Add(int64(n))
	}
	if len(refs) > 0 {
		lr.refMu.Lock()
		for _, a := range refs {
			lr.refs[a] = struct{}{}
		}
		lr.refMu.Unlock()
	}
	end := obs.Now()

	// Phase meters accumulate across first touches (the lazy analogue of the
	// eager one-shot phases): segments is the read pass with its drops,
	// mirrors the DRAM count/reference capture. The per-segment latency
	// histogram is what the tail pays at first touch.
	t.met.recoveryNS[phaseSegments].Add(segDone - start)
	t.met.recoveryNS[phaseMirrors].Add(end - segDone)
	t.met.lazySegNS.Record(end - start)
	t.met.lazySegs.Inc()
	t.fr.RecordAt(start, obs.EvSegRecover, obs.PhaseSegments, uint64(seg), uint64(end-start))
	return mir
}

// segScan is the crash-path scratch of one first touch: the records kept so
// far in scan order (normal buckets ascending, then stash; slots ascending
// — the order the eager sweeps kept), an open-addressed index from full
// hash to the first kept record carrying it, and the drops decided. Every
// record already holds its full 64-bit hash (recSplitParts), so duplicates
// are found by hash and blobs are dereferenced only when two records share
// one. Pooled: a first touch allocates nothing steady-state.
type segScan struct {
	first [scanSlots]int16 // 1 + index into recs of the slot's first record; 0 = empty
	recs  []scanRec
	drops []scanDrop
}

// scanSlots sizes the index at over twice a segment's record capacity, so
// linear probing stays short.
const scanSlots = 1 << 11

type scanRec struct{ hash, w0 uint64 }

type scanDrop struct {
	bucket, slot int
	parts        hashfn.Parts
}

var segScanPool = sync.Pool{New: func() any {
	return &segScan{recs: make([]scanRec, 0, slotsPerSegment)}
}}

func (sc *segScan) reset() {
	sc.first = [scanSlots]int16{}
	sc.recs = sc.recs[:0]
	sc.drops = sc.drops[:0]
}

// scanBucket classifies one bucket's records from the words just copied
// into the mirror: a record the segment's reconciled claim does not cover
// is a misroute (the leftover of a split that rolled forward), and a record
// whose canonical key an earlier record already holds is a duplicate (an
// interrupted displacement copies a record verbatim; an interrupted
// representation-converting update leaves the key once inline and once as
// a blob pointer). Open rejects coverage that is not an aligned power of
// two, so the claim covers exactly the directory entries routed here.
func (t *Table) scanBucket(sc *segScan, h *segHandle, mir *segMirror, bi int) {
	m := mir.word(bi, mirBkMeta).Load()
	for slot := 0; slot < slotsPerBucket; slot++ {
		if !metaSlotUsed(m, slot) {
			continue
		}
		kv := pmem.KV{Key: mir.recWord(bi, slot, 0).Load(), Value: mir.recWord(bi, slot, 1).Load()}
		parts := recSplitParts(kv, t.seed)
		if !h.claims(parts) || t.scanDuplicate(sc, parts.Hash, kv.Key) {
			sc.drops = append(sc.drops, scanDrop{bucket: bi, slot: slot, parts: parts})
		}
	}
}

// scanDuplicate reports whether a kept record already holds the canonical
// key of the record (hash, w0), and keeps the record otherwise.
func (t *Table) scanDuplicate(sc *segScan, hash, w0 uint64) bool {
	i := (hash * 0x9E3779B97F4A7C15) >> (64 - 11) // a slot of scanSlots
	for ; sc.first[i] != 0; i = (i + 1) & (scanSlots - 1) {
		if first := sc.first[i] - 1; sc.recs[first].hash == hash {
			// Rare: compare keys with every kept record of this hash.
			for _, r := range sc.recs[first:] {
				if r.hash == hash && t.sameKey(r.w0, w0) {
					return true
				}
			}
			sc.recs = append(sc.recs, scanRec{hash, w0})
			return false
		}
	}
	sc.first[i] = int16(len(sc.recs)) + 1
	sc.recs = append(sc.recs, scanRec{hash, w0})
	return false
}

// sameKey compares the canonical keys of two records with equal full
// hashes: identical word 0 is the same record (an inline key, or one blob),
// two distinct inline keys differ, and otherwise the blob keys are read —
// the one place recovery dereferences blobs.
func (t *Table) sameKey(a, b uint64) bool {
	switch ia, ib := recIsIndirect(a), recIsIndirect(b); {
	case a == b:
		return true
	case !ia && !ib:
		return false
	case !ia:
		return t.vlog.KeyEqualsU64(recBlobAddr(b), a)
	case !ib:
		return t.vlog.KeyEqualsU64(recBlobAddr(a), b)
	}
	return t.vlog.KeyEquals(recBlobAddr(b), t.vlog.KeyBytes(recBlobAddr(a)))
}

// RecoverAll completes recovery synchronously: recovers every still-pending
// segment, then runs the record-log sweep to the end. Idempotent; a no-op on
// a fully recovered table. Exposed so callers that need exact global state
// (Count, Close, benchmarks measuring time-to-fully-recovered) can force the
// background work to happen now.
func (t *Table) RecoverAll() {
	if lr := t.lazy.Load(); lr != nil {
		t.driveRecovery(lr)
	}
}

// sweepStepBlobs bounds how many blobs one background sweep step classifies
// under a single epoch guard; between steps the driver yields so foreground
// operations never wait on more than one batch.
const sweepStepBlobs = 256

// driveRecovery is the incremental recovery driver: first-touch every
// pending segment (yielding between segments), then sweep the record log in
// bounded steps under epoch guards, free-listing blobs that existed at Open
// but no recovered segment references. Serialized by drvMu; both the
// background goroutine and synchronous RecoverAll callers funnel here.
func (t *Table) driveRecovery(lr *lazyRecovery) {
	lr.drvMu.Lock()
	defer lr.drvMu.Unlock()
	if lr.done.Load() {
		return
	}
	for _, h := range lr.order {
		if h.mir.Load() == nil {
			t.firstTouch(h)
			runtime.Gosched()
		}
	}

	// Every segment is recovered, so lr.refs is complete and frozen: each
	// insert into it happened-before the mirror load above. The sweep is
	// bounded to blobs that existed at Open (RecoverChunks snapshotted the
	// frontier), so a referenced blob freed-and-reused concurrently is
	// simply skipped — never double-freed, never handed out twice.
	lstart := obs.Now()
	sweep := t.vlog.SweepStart()
	referenced := func(a pmem.Addr) bool {
		_, ok := lr.refs[a]
		return ok
	}
	for {
		g := t.em.Enter()
		done, freed := sweep.Step(sweepStepBlobs, referenced)
		g.Exit()
		if freed > 0 {
			t.met.lazySweepFreed.Add(uint64(freed))
		}
		if done {
			break
		}
		runtime.Gosched()
	}
	lend := obs.Now()
	t.met.recoveryNS[phaseLog].Add(lend - lstart)
	t.fr.RecordAt(lstart, obs.EvRecovery, obs.PhaseLog, 0, uint64(lend-lstart))
	// Summarize the accumulated lazy phases into the trace (the eager
	// protocol's one-shot phase events), and report the total as the summed
	// phase work — the comparable of the old eager total, while FullNS is
	// the Open→done wall time foreground traffic actually experienced.
	segNS, mirNS := t.met.recoveryNS[phaseSegments].Load(), t.met.recoveryNS[phaseMirrors].Load()
	t.fr.RecordAt(lend, obs.EvRecovery, obs.PhaseSegments, 0, uint64(segNS))
	t.fr.RecordAt(lend, obs.EvRecovery, obs.PhaseMirrors, 0, uint64(mirNS))
	t.met.recoveryTotalNS.Store(t.met.recoveryNS[phaseDir].Load() + segNS + mirNS + t.met.recoveryNS[phaseLog].Load())
	t.met.recoveryFullNS.Store(lend - lr.openAt)
	lr.done.Store(true)
	t.lazy.Store(nil)
}

// recoveryPending reports how many segments still await first touch (0 on a
// fully recovered or freshly created table).
func (t *Table) recoveryPending() int64 {
	if lr := t.lazy.Load(); lr != nil {
		return lr.remaining.Load()
	}
	return 0
}

// verifyLogLive is the end-of-sweep invariant oracle: the record log's live
// set — committed blobs not parked on the free list — must equal the set of
// blobs the segments' slots reference. Quiescent-state test helper; it
// drains the epoch manager first so retired-but-unreclaimed frees settle,
// and requires recovery to have completed.
func (t *Table) verifyLogLive() error {
	if t.lazy.Load() != nil {
		return fmt.Errorf("core: verifyLogLive before recovery completed")
	}
	t.em.Drain()
	p := t.pool
	refs := make(map[pmem.Addr]struct{})
	eachHandle(t.cache.view.Load(), func(h *segHandle) {
		for bi := 0; bi < totalBuckets; bi++ {
			ba := segBucket(h.addr, bi)
			m := p.QuietLoadU64(ba.Add(bkOffMeta))
			for slot := 0; slot < slotsPerBucket; slot++ {
				if !metaSlotUsed(m, slot) {
					continue
				}
				if w0 := p.QuietLoadU64(recordAddr(ba, slot)); recIsIndirect(w0) {
					refs[recBlobAddr(w0)] = struct{}{}
				}
			}
		}
	})
	free := t.vlog.FreeSpans()
	var bad []string
	t.vlog.WalkBlobs(func(a pmem.Addr, capBytes uint64, committed bool) {
		_, isRef := refs[a]
		_, isFree := free[a]
		live := committed && !isFree
		if live != isRef {
			bad = append(bad, fmt.Sprintf("blob %#x: committed=%v free=%v referenced=%v", a, committed, isFree, isRef))
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("core: log live set diverges from slot references: %v", bad)
	}
	return nil
}
