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
// and defers everything per bucket to first touch. Every directory-reachable
// segment starts "unrecovered" in a DRAM side table; the first operation
// routed to it wins a CAS gate (the split-claim idiom) and runs the
// per-segment reconcile while losers spin the winner out. The reconcile
// clears held version locks and a leftover split marker, then reads each
// bucket once — one streaming read of its header line and used record
// lines — and decides everything from that read: misroute and duplicate
// drops, the record count, the segment's blob references and its filter
// mirror. The rare drops and the stash-ghost sweep are applied afterwards,
// refilling only the mirror buckets they change. The record-log sweep runs
// as an incremental background pass once every segment has recovered (it
// needs the complete reference set), free-listing dead blobs in small
// batches under epoch guards.
//
// After a *clean* shutdown (Close persisted the root's clean marker) the
// drops and the count derivation are skipped — the image is reconciled by
// construction — but first touch still clears locks the crash model left
// odd, installs the segment's mirror and contributes its blob references,
// and the background pass still runs to rebuild the record log's DRAM free
// list.

const (
	segRecPending uint32 = iota
	segRecInFlight
	segRecDone
)

// segRecoverState is one segment's first-touch gate plus what Open learned
// from its header line: the reconciled (depth, pattern) claim for the
// mirror, and whether a split-progress marker needs clearing. Pointer-
// stable: the pending map is built once in Open and read-only afterwards.
type segRecoverState struct {
	state atomic.Uint32
	l     uint8
	pat   uint64
	split bool
}

// lazyRecovery is the DRAM side table describing what Open deferred. The
// Table drops its pointer once the background pass finishes, restoring the
// ungated hot path.
type lazyRecovery struct {
	clean  bool        // clean-shutdown image: skip sweeps and count derivation
	g      uint8       // global depth at Open
	fixed  []pmem.Addr // reconciled directory image at Open, for misroute checks
	openAt int64       // obs.Now() at Open, base of time-to-fully-recovered

	// pending maps every directory-reachable segment at Open to its gate.
	// Segments created after Open (split siblings) are absent — born
	// recovered. order is the deterministic iteration for driveRecovery.
	pending   map[pmem.Addr]*segRecoverState
	order     []pmem.Addr
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

// disableBackgroundRecovery, when set, stops Open from spawning the
// background recovery driver — tests that must observe segments in their
// unrecovered state (first-touch races, mid-sweep crashes) set it and drive
// recovery by hand. Package-private test knob, not part of the API.
var disableBackgroundRecovery atomic.Bool

// ensureRecovered gates one routed segment: a no-op once the table is fully
// recovered (single pointer load) or when seg was already handled. Called at
// the top of every op-loop iteration, before the segment's mirror or buckets
// are trusted.
func (t *Table) ensureRecovered(seg pmem.Addr) {
	lr := t.lazy.Load()
	if lr == nil {
		return
	}
	s := lr.pending[seg]
	if s == nil || s.state.Load() == segRecDone {
		return
	}
	t.firstTouch(lr, s, seg)
}

// firstTouch is the once-per-segment gate: the CAS winner recovers the
// segment, losers wait it out (no locks held at the call sites, so spinning
// is deadlock-free — the same shape as split's claim).
func (t *Table) firstTouch(lr *lazyRecovery, s *segRecoverState, seg pmem.Addr) {
	if s.state.CompareAndSwap(segRecPending, segRecInFlight) {
		t.recoverSegment(lr, s, seg)
		s.state.Store(segRecDone)
		lr.remaining.Add(-1)
		return
	}
	for s.state.Load() != segRecDone {
		runtime.Gosched()
	}
}

// recoverSegment runs the deferred per-segment work under the caller's
// exclusive gate: no operation can touch the segment's buckets until the
// gate releases, so the pass runs single-threaded exactly as eager recovery
// did. A segment cannot split before it recovers (every mutator gates
// first), so lr.fixed/lr.g still describe its coverage.
//
// PM is read once: one streaming read per bucket of its header line (lock
// word, meta and fingerprints) and its used record lines — the lines
// split's scans charge for the same bucket. A lock word is written only
// when a crash left it odd. The mirror is filled from that read; on the
// crash path the same read decides the drops, which are applied afterwards
// (with the stash-ghost sweep) before the buckets they touched are
// refilled.
func (t *Table) recoverSegment(lr *lazyRecovery, s *segRecoverState, seg pmem.Addr) {
	p := t.pool
	start := obs.Now()
	// Clear any split-progress marker, finishing or rolling back the
	// half-migrated split it describes. If the marker's sibling made it
	// into the directory, Open's claiming pass already completed the flips
	// and metadata and the misroute drops below remove the moved records'
	// leftovers — the split rolls forward. Otherwise the sibling was never
	// published: the directory still routes every key to this segment
	// (which kept all its records; migration only reads), so the marker
	// clear rolls the split back and the sibling block is leaked.
	if s.split {
		p.StoreU64(seg.Add(segOffSplit), 0)
		p.Persist(seg.Add(segOffSplit), 8)
	}
	mir := t.mirrorInstall(seg, s.l, s.pat)
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
			t.scanBucket(lr, sc, mir, seg, bi)
		}
	}
	if sc != nil {
		var touched [totalBuckets]bool
		for _, d := range sc.drops {
			loc := recLoc{bucket: d.bucket, slot: d.slot, tracked: -1}
			touched[d.bucket] = true
			if loc.inStash() {
				home := int(d.parts.BucketIndex(bucketBits))
				loc.tracked = findTrackedSlot(p, segBucket(seg, home), d.parts.FP, d.bucket-normalBuckets)
				touched[home] = true
			}
			segDeleteAt(p, nil, seg, d.parts, loc, false, true)
		}
		segScanPool.Put(sc)
		t.sweepStashGhosts(seg, &touched)
		for bi, ok := range touched {
			if ok {
				mirrorCopyBucket(p, mir, seg, bi)
			}
		}
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
// into the mirror: a record the reconciled directory routes to another
// segment is a misroute (the leftover of a split that rolled forward), and
// a record whose canonical key an earlier record already holds is a
// duplicate (an interrupted displacement copies a record verbatim; an
// interrupted representation-converting update leaves the key once inline
// and once as a blob pointer).
func (t *Table) scanBucket(lr *lazyRecovery, sc *segScan, mir *segMirror, seg pmem.Addr, bi int) {
	m := mir.word(bi, mirBkMeta).Load()
	for slot := 0; slot < slotsPerBucket; slot++ {
		if !metaSlotUsed(m, slot) {
			continue
		}
		kv := pmem.KV{Key: mir.recWord(bi, slot, 0).Load(), Value: mir.recWord(bi, slot, 1).Load()}
		parts := recSplitParts(kv, t.seed)
		if lr.fixed[parts.DirIndex(lr.g)] != seg || t.scanDuplicate(sc, parts.Hash, kv.Key) {
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
	for _, seg := range lr.order {
		s := lr.pending[seg]
		if s.state.Load() != segRecDone {
			t.firstTouch(lr, s, seg)
			runtime.Gosched()
		}
	}

	// Every segment is recovered, so lr.refs is complete and frozen: each
	// insert into it happened-before the done-state load above. The sweep is
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
	v := t.cache.view.Load()
	seen := make(map[pmem.Addr]bool)
	for i := range v.entries {
		seg, _ := unpackEntry(v.entries[i].Load())
		if seg.IsNull() || seen[seg] {
			continue
		}
		seen[seg] = true
		for bi := 0; bi < totalBuckets; bi++ {
			ba := segBucket(seg, bi)
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
	}
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
