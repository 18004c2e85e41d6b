package core

import (
	"encoding/binary"
	"math/bits"
	"testing"
	"time"

	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// Tests for the restart cost contract: Open reads the directory once and
// one header line per segment and writes only the clean-marker consume;
// first touch clears held locks on both restart paths and reads each
// bucket's lines once, dereferencing blobs only on full-hash matches.

// TestCleanImageHeldLocks: version locks are never flushed, but a header
// persist issued while a bucket is locked carries the odd lock word to
// media. A clean shutdown image can therefore hold odd lock words, and the
// clean path must clear them before any operation spins on them.
func TestCleanImageHeldLocks(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 64 << 20, TrackCrashes: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Close()
	pool.Crash()
	held := oddLockWords(tbl)
	if held == 0 {
		t.Fatal("image holds no odd lock words; the test would prove nothing")
	}
	t.Logf("clean image holds %d odd lock words", held)

	tbl2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for k := uint64(n); k < 2*n; k++ {
			if err := tbl2.Insert(k, k+1); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("inserts after a clean reopen did not finish: a held lock word survived Open")
	}
	if got := tbl2.Count(); got != 2*n {
		t.Fatalf("Count = %d, want %d", got, 2*n)
	}
	if held := oddLockWords(tbl2); held != 0 {
		t.Fatalf("%d lock words still odd after recovery", held)
	}
}

// oddLockWords counts held version locks over every directory-reachable
// segment, with quiet loads.
func oddLockWords(tbl *Table) int {
	p := tbl.pool
	odd := 0
	for _, seg := range tableSegments(tbl) {
		for bi := 0; bi < totalBuckets; bi++ {
			if p.QuietLoadU64(segBucket(seg, bi).Add(bkOffVersion))&1 != 0 {
				odd++
			}
		}
	}
	return odd
}

// tableSegments lists the distinct segments of the PM directory, in entry
// order, with quiet loads.
func tableSegments(tbl *Table) []pmem.Addr {
	p := tbl.pool
	dir := pmem.Addr(p.QuietLoadU64(rootAddr.Add(rootOffDir)))
	n := uint64(1) << p.QuietLoadU64(dir.Add(dirOffDepth))
	var segs []pmem.Addr
	seen := make(map[pmem.Addr]bool)
	for i := uint64(0); i < n; i++ {
		seg := pmem.Addr(p.QuietLoadU64(dirEntryAddr(dir, i)))
		if !seen[seg] {
			seen[seg] = true
			segs = append(segs, seg)
		}
	}
	return segs
}

// lines is the number of cachelines [a, a+n) spans.
func lines(a pmem.Addr, n uint64) uint64 {
	return (uint64(a)+n-1)/pmem.CachelineSize - uint64(a)/pmem.CachelineSize + 1
}

// TestRestartPMBudget pins restart's PM traffic on a crash image holding no
// locks: Open writes only the consumed clean marker and reads the root, the
// directory block and one header line per segment; RecoverAll reads every
// bucket's header line plus its used record lines exactly once and, with
// no duplicates to resolve, no blob.
func TestRestartPMBudget(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	img := pool.Snapshot() // live image of a quiescent open table: crash path, no held locks

	rp, err := pmem.OpenSnapshot(img, pmem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := rp.Stats()
	rt, err := OpenWith(rp, Deps{NoBackgroundRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	open := rp.Stats().Sub(before)

	segs := tableSegments(rt)
	dir := pmem.Addr(rp.QuietLoadU64(rootAddr.Add(rootOffDir)))
	g := uint8(rp.QuietLoadU64(dir.Add(dirOffDepth)))
	const rootAndLog = 4 // root line plus a small constant
	if maxRead := lines(dir, dirSize(g)) + uint64(len(segs)) + rootAndLog; open.ReadLines > maxRead {
		t.Errorf("Open read %d lines, budget %d (directory %d + %d segments + %d)",
			open.ReadLines, maxRead, lines(dir, dirSize(g)), len(segs), rootAndLog)
	}
	if open.WriteLines > 2 {
		t.Errorf("Open wrote %d lines, want ≤ 2", open.WriteLines)
	}

	// One header line per bucket plus the record lines past it up to the
	// highest used slot (the touchRecordLines rule).
	var want uint64
	for _, seg := range segs {
		for bi := 0; bi < totalBuckets; bi++ {
			ba := segBucket(seg, bi)
			want++
			m := rp.QuietLoadU64(ba.Add(bkOffMeta))
			if last := bits.Len64(m&slotMask) - 1; last >= 2 {
				end := uint64(bkOffRecords + (last+1)*pmem.RecordSize)
				want += lines(ba.Add(pmem.CachelineSize), end-pmem.CachelineSize)
			}
		}
	}
	before = rp.Stats()
	rt.RecoverAll()
	full := rp.Stats().Sub(before)
	if full.ReadLines != want {
		t.Errorf("RecoverAll read %d lines, want %d (each bucket's lines once)", full.ReadLines, want)
	}
	if full.WriteLines != 0 {
		t.Errorf("RecoverAll wrote %d lines on an image with nothing to fix", full.WriteLines)
	}
	if got := rt.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if bad := rt.mirrorVerifyAll(); bad != 0 {
		t.Fatalf("mirror diverges in %d buckets", bad)
	}
}

// TestFirstTouchDedupeCollision hand-builds a segment holding an indirect
// record whose stored hash equals an inline key's hash but whose key bytes
// differ (a full-hash collision: both must survive), a representation
// duplicate (the same key once inline, once as a blob, as an interrupted
// converting update leaves it) and a verbatim copy parked in the stash (as
// an interrupted displacement would). First touch must keep the copy
// lookups returned, drop the others, and leave Count, the mirror and the
// record log exact.
func TestFirstTouchDedupeCollision(t *testing.T) {
	pool, err := pmem.NewPool(pmem.Options{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k+100); err != nil {
			t.Fatal(err)
		}
	}
	p := tbl.pool
	// k: the collision victim; j: duplicated once converted and once
	// verbatim. Neither homes in bucket 63, whose neighbor wraps to 0.
	var k, j uint64 = n, n
	for c := uint64(0); c < n && (k == n || j == n); c++ {
		if int(tbl.parts(c).BucketIndex(bucketBits)) == normalBuckets-1 {
			continue
		}
		if k == n {
			k = c
		} else if tbl.parts(c).FP != tbl.parts(k).FP {
			j = c
		}
	}
	if k == n || j == n {
		t.Fatal("no usable keys")
	}
	putIndirect := func(key, val []byte, hash uint64) uint64 {
		blob, err := tbl.vlog.Append(key, val)
		if err != nil {
			t.Fatal(err)
		}
		tbl.vlog.Commit(blob)
		kv := pmem.KV{Key: recPack(blob, len(key)), Value: hash}
		h := tbl.cache.route(hashfn.Split(hash))
		if !segInsertLocked(p, h.mir.Load(), h.addr, hashfn.Split(hash), kv, false, true, tbl.seed) {
			t.Fatal("segment full")
		}
		return kv.Key
	}
	collide := []byte("not-the-inline-key")
	collideW0 := putIndirect(collide, []byte("collision-value"), tbl.parts(k).Hash)
	var jb [8]byte
	binary.LittleEndian.PutUint64(jb[:], j)
	putIndirect(jb[:], []byte("stale-converted-value"), tbl.parts(j).Hash)
	wantJ, ok := tbl.Get(j) // the copy lookups serve
	if !ok {
		t.Fatal("key j lost before the crash")
	}

	// Verbatim copy of j's inline record in stash bucket 0, tracked by its
	// home bucket.
	jp := tbl.parts(j)
	h := tbl.cache.route(jp)
	seg, mir := h.addr, h.mir.Load()
	home := int(jp.BucketIndex(bucketBits))
	stash := segBucket(seg, normalBuckets)
	if !bucketInsertLocked(p, mir, stash, normalBuckets, jp.FP, pmem.KV{Key: j, Value: j + 100}, true) {
		t.Fatal("stash full")
	}
	bucketTrackOverflow(p, mir, segBucket(seg, home), home, jp.FP, 0, true)

	img := pool.Snapshot()
	rt, _ := reopenImage(t, img)
	if v, ok := rt.Get(k); !ok || v != k+100 {
		t.Fatalf("inline collision key %d = %d,%v", k, v, ok)
	}
	if v, ok := rt.Get(j); !ok || v != wantJ {
		t.Fatalf("duplicated key %d = %#x,%v, want the lookup-order copy %#x", j, v, ok, wantJ)
	}
	rt.RecoverAll()
	if got := rt.Count(); got != n+1 {
		t.Fatalf("Count = %d, want %d (n inline + the collision record)", got, n+1)
	}
	var collisions, copiesOfJ int
	rp := rt.pool
	for _, sg := range tableSegments(rt) {
		for bi := 0; bi < totalBuckets; bi++ {
			ba := segBucket(sg, bi)
			m := rp.QuietLoadU64(ba.Add(bkOffMeta))
			for slot := 0; slot < slotsPerBucket; slot++ {
				if !metaSlotUsed(m, slot) {
					continue
				}
				kv := rp.QuietReadKV(recordAddr(ba, slot))
				if kv.Key == collideW0 {
					collisions++
				}
				if recHash(kv, rt.seed) == jp.Hash {
					copiesOfJ++
				}
			}
		}
	}
	if collisions != 1 || copiesOfJ != 1 {
		t.Fatalf("collision records %d (want 1), copies of key j %d (want 1)", collisions, copiesOfJ)
	}
	if bad := rt.mirrorVerifyAll(); bad != 0 {
		t.Fatalf("mirror diverges in %d buckets", bad)
	}
	if err := rt.verifyLogLive(); err != nil {
		t.Fatal(err)
	}
}
