package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dash/internal/pmem"
)

// splitTestTimeout bounds the cross-goroutine waits below: generous enough
// for a loaded -race CI box, far below the package test timeout.
const splitTestTimeout = 30 * time.Second

// fillPrefix inserts ascending keys whose top-two hash bits equal prefix,
// starting the key scan at start, until n inserts succeeded. Returns the
// next unscanned key. The prefix pins every key to the subtree of one
// initial-depth-2 segment, whatever the global depth grows to.
func fillPrefix(t *testing.T, tbl *Table, prefix uint64, start, n uint64) uint64 {
	t.Helper()
	k := start
	for done := uint64(0); done < n; k++ {
		if tbl.parts(k).DirIndex(2) != prefix {
			continue
		}
		if err := tbl.Insert(k, k^0xABCD); err != nil {
			t.Fatalf("fill insert %d: %v", k, err)
		}
		done++
	}
	return k
}

// TestConcurrentSplitsDistinctSegments proves splits of distinct segments
// proceed in parallel: the first split to reach mid-migration blocks until a
// split of a *different* segment also reaches mid-migration. Under the old
// table-wide split mutex the second split could never start and this test
// would time out; with per-segment split ownership both arrive.
func TestConcurrentSplitsDistinctSegments(t *testing.T) {
	tbl := newTestTable(t, 64<<20, Options{InitialDepth: 2})

	var (
		mu      sync.Mutex
		inMig   = make(map[pmem.Addr]bool)
		both    = make(chan struct{})
		closed  bool
		timeout atomic.Bool
	)
	tbl.hookMidMigrate = func(seg pmem.Addr, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		mu.Lock()
		inMig[seg] = true
		if len(inMig) >= 2 && !closed {
			closed = true
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-time.After(splitTestTimeout):
			timeout.Store(true)
		}
	}

	// Two goroutines, each filling its own initial segment's key prefix
	// until that segment must have split at least once (a segment holds at
	// most slotsPerSegment records).
	var wg sync.WaitGroup
	for _, prefix := range []uint64{0, 2} {
		wg.Add(1)
		go func(prefix uint64) {
			defer wg.Done()
			fillPrefix(t, tbl, prefix, prefix*1<<40, slotsPerSegment+200)
		}(prefix)
	}
	wg.Wait()

	if timeout.Load() {
		t.Fatal("second segment's split never reached migration: splits are serialized")
	}
	if s := tbl.Stats().Splits; s < 2 {
		t.Fatalf("expected >= 2 completed splits, got %d", s)
	}
}

// TestReaderDuringSplitMigration pauses the first split mid-migration —
// half the buckets copied, half not, directory untouched — and has a reader
// sweep every acknowledged key. Records on both sides of the migration
// front must stay readable with their exact values: the split must be
// invisible to readers until it publishes.
func TestReaderDuringSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})

	acked := make(map[uint64]uint64)
	paused := make(chan struct{})  // closed when the split reaches mid-migration
	release := make(chan struct{}) // closed when the reader is done
	var once sync.Once
	tbl.hookMidMigrate = func(_ pmem.Addr, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		once.Do(func() {
			close(paused)
			select {
			case <-release:
			case <-time.After(splitTestTimeout):
				t.Error("reader never released the paused split")
			}
		})
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		<-paused
		// The inserter is parked inside the split hook, so acked is frozen;
		// the channel close orders our reads after its last write.
		for pass := 0; pass < 3; pass++ {
			for k, want := range acked {
				v, ok := tbl.Get(k)
				if !ok {
					t.Errorf("mid-split: key %d missing", k)
					close(release)
					return
				}
				if v != want {
					t.Errorf("mid-split: key %d = %d, want %d (torn read)", k, v, want)
					close(release)
					return
				}
			}
		}
		close(release)
	}()

	// Insert until the split (and with it the reader) has run. 2 segments
	// hold at most 2*slotsPerSegment records, so this fill must split.
	for k := uint64(0); k < 3*slotsPerSegment; k++ {
		if err := tbl.Insert(k, k*7+3); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = k*7 + 3
	}
	select {
	case <-readerDone:
	case <-time.After(splitTestTimeout):
		t.Fatal("reader did not finish")
	}

	// And after everything settles, the table is intact.
	for k, want := range acked {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("post-split: key %d = %d,%v want %d", k, v, ok, want)
		}
	}
}

// TestWritersDuringSplitMigration pauses the first split mid-migration and
// mutates acknowledged keys from two goroutines. Keys the paused split is
// moving (routed to the splitting segment with the split depth's bit set)
// must wait: none of their mutations may finish before the split is
// released. Every other key, including the splitting segment's staying
// half, must be mutable while the split stays paused. Afterwards every
// value and the count must be exact — a moving-key write that slipped past
// the migration scan would be lost when the split publishes.
func TestWritersDuringSplitMigration(t *testing.T) {
	tbl := newTestTable(t, 16<<20, Options{InitialDepth: 1})

	paused := make(chan pmem.Addr, 1)
	release := make(chan struct{})
	var once sync.Once
	tbl.hookMidMigrate = func(seg pmem.Addr, bucket int) {
		if bucket != normalBuckets/2 {
			return
		}
		once.Do(func() {
			paused <- seg
			select {
			case <-release:
			case <-time.After(splitTestTimeout):
				t.Error("writers never released the paused split")
			}
		})
	}

	// mutate applies the test's mix to one key and returns its expected
	// value afterwards (ok=false: deleted). Every 5th key is deleted, every
	// 7th updated in place, every 11th deleted and reinserted (the
	// reinsert finds the slot its delete freed, so it cannot need a
	// split); with convert, every 13th is updated to a 16-byte value, an
	// inline → indirect conversion.
	mutate := func(k uint64, convert bool) (want uint64, ok, touched bool) {
		switch {
		case k%5 == 0:
			if !tbl.Delete(k) {
				t.Errorf("delete %d reported missing", k)
			}
			return 0, false, true
		case k%7 == 0:
			if ok, err := tbl.Update(k, k+1000000); !ok || err != nil {
				t.Errorf("update %d: %v,%v", k, ok, err)
			}
			return k + 1000000, true, true
		case k%11 == 0:
			if !tbl.Delete(k) {
				t.Errorf("delete %d reported missing", k)
			}
			if err := tbl.Insert(k, k+2000000); err != nil {
				t.Errorf("reinsert %d: %v", k, err)
			}
			return k + 2000000, true, true
		case convert && k%13 == 0:
			if ok, err := tbl.UpdateB(le64(k), convValue(k)); !ok || err != nil {
				t.Errorf("converting update %d: %v,%v", k, ok, err)
			}
			return k + 3000000, true, true
		}
		return 0, false, false
	}

	type outcome struct {
		want uint64
		ok   bool
	}
	var (
		moving, staying       []uint64
		movingRes, stayingRes = make(map[uint64]outcome), make(map[uint64]outcome)
		movingOps             atomic.Int64
		stayingDone           = make(chan struct{})
		movingDone            = make(chan struct{})
		coordDone             = make(chan struct{})
	)
	state := make(map[uint64]uint64) // expected value; deleted keys removed
	go func() {
		defer close(coordDone)
		seg := <-paused
		// The splitting inserter is parked in the hook, so state is frozen;
		// the channel receive orders these reads after its last write.
		for k := range state {
			parts := tbl.parts(k)
			h := tbl.cache.route(parts)
			if l, _ := h.loadClaim(); h.addr == seg && parts.DepthBit(l) {
				moving = append(moving, k)
			} else {
				staying = append(staying, k)
			}
		}
		if len(moving) == 0 || len(staying) == 0 {
			t.Errorf("no keys to mutate: %d moving, %d staying", len(moving), len(staying))
		}
		go func() {
			defer close(stayingDone)
			for _, k := range staying {
				if want, ok, touched := mutate(k, false); touched {
					stayingRes[k] = outcome{want, ok}
				}
			}
		}()
		go func() {
			defer close(movingDone)
			for _, k := range moving {
				if want, ok, touched := mutate(k, true); touched {
					movingRes[k] = outcome{want, ok}
					movingOps.Add(1)
				}
			}
		}()
		select {
		case <-stayingDone:
		case <-time.After(splitTestTimeout):
			t.Error("staying-key writers blocked behind the paused split")
		}
		// Give the moving writers time to get (wrongly) through.
		time.Sleep(20 * time.Millisecond)
		if n := movingOps.Load(); n != 0 {
			t.Errorf("%d moving-key mutations finished while the split was paused", n)
		}
		close(release)
		select {
		case <-movingDone:
		case <-time.After(splitTestTimeout):
			t.Error("moving-key writers did not finish after the release")
		}
	}()

	for k := uint64(0); k < 3*slotsPerSegment; k++ {
		if err := tbl.Insert(k, k*3+1); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		// Only the coordinator reads state, and only while this loop is
		// parked inside the split hook.
		state[k] = k*3 + 1
	}
	select {
	case <-coordDone:
	case <-time.After(2 * splitTestTimeout):
		t.Fatal("mid-split writers did not finish")
	}

	for _, res := range []map[uint64]outcome{stayingRes, movingRes} {
		for k, o := range res {
			if o.ok {
				state[k] = o.want
			} else {
				delete(state, k)
			}
		}
	}
	for k, want := range state {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("key %d = %d,%v want %d", k, v, ok, want)
		}
		if want == k+3000000 {
			if got, _ := tbl.GetB(le64(k)); string(got) != string(convValue(k)) {
				t.Fatalf("converted key %d = %x, want %x", k, got, convValue(k))
			}
		}
	}
	if got, want := tbl.Count(), int64(len(state)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if a := tbl.Stats().SplitAssists; a == 0 {
		t.Fatal("no moving-key writer waited on the paused split")
	}
}

// le64 is the 8-byte little-endian key of k, the []byte view of a uint64 key.
func le64(k uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, k)
	return b
}

// convValue is the 16-byte value TestWritersDuringSplitMigration's
// conversions store: its first 8 bytes read back through Get as k+3000000.
func convValue(k uint64) []byte {
	return append(le64(k+3000000), 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
}

// --- crash injection at the new publish points ---

// TestCrashAfterSplitMarker: power loss right after the split-progress
// marker is persisted, before any record is migrated. Recovery must clear
// the marker and roll the split back; the old segment still owns everything.
func TestCrashAfterSplitMarker(t *testing.T) {
	pool, acked := crashAtHook(t, func(tbl *Table, _ *pmem.Pool, fire func()) {
		tbl.hookAfterMarker = fire
	})
	verifyCrashRecovery(t, pool, acked)
}

// TestCrashMidSplitMigration: power loss halfway through the incremental
// copy — the sibling holds an unflushed partial copy, the directory knows
// nothing. Recovery must roll back via the marker; no acknowledged record
// may be lost (migration only reads the old segment).
func TestCrashMidSplitMigration(t *testing.T) {
	pool, acked := crashAtHook(t, func(tbl *Table, _ *pmem.Pool, fire func()) {
		tbl.hookMidMigrate = func(_ pmem.Addr, bucket int) {
			if bucket == normalBuckets/2 {
				fire()
			}
		}
	})
	verifyCrashRecovery(t, pool, acked)
}

// TestCrashMidSweep: power loss after the directory flips and the old
// segment's metadata bump, with only the first bucket of the moved-record
// sweep persisted. Recovery must finish the sweep from the directory image
// (the remaining leftover copies route elsewhere and are dropped).
func TestCrashMidSweep(t *testing.T) {
	pool, acked := crashAtHook(t, func(tbl *Table, _ *pmem.Pool, fire func()) {
		tbl.hookMidSweep = fire
	})
	verifyCrashRecovery(t, pool, acked)
}
