package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dash/internal/core"
	"dash/internal/pmem"
	"dash/internal/workload"
)

const (
	opInsert  = workload.OpInsert
	opRead    = workload.OpRead
	opReadNeg = workload.OpReadNeg
	opUpdate  = workload.OpUpdate
	opDelete  = workload.OpDelete
)

var errRefExists = errors.New("perfbench: reference map key exists")

// u64Spec is a closed-loop workload over the inline uint64 API.
type u64Spec struct {
	name    string
	why     string
	mix     workload.Mix
	preload uint64
	warmup  int64   // charged warm-up ops per client, part of set-up
	maxMops float64 // op rate the pool is sized for; caps the timed phase
	durOps  int     // ops the durability pass replays
	reopens int     // crash-image reopens per run
	setups  int     // set-ups per run; setup_s is their median
	// topUpGrid, when set, grows the table after the timed phase, uncharged,
	// to the next record count of the form topUpGrid·2^k. A table's space
	// and restart cost follow a sawtooth over its growth, so measuring them
	// wherever a timed phase happened to stop would add the phase's
	// throughput noise to them; these counts sit mid-way between split
	// waves.
	topUpGrid uint64
}

var ingestSpec = u64Spec{
	name:      "ingest-u64",
	why:       "write path: 2 clients insert fresh inline u64 keys into a small table, splits and doublings all run; predicted flat under dircache, filter-mirror, record-log and service changes",
	mix:       workload.Mix{Name: "ingest-u64", Percent: [5]int{opInsert: 100}},
	preload:   16 << 10,
	warmup:    8 << 10,
	maxMops:   0.5,
	durOps:    20_000,
	reopens:   3,
	setups:    7,
	topUpGrid: 1_250_000,
}

var lookupSpec = u64Spec{
	name:    "lookup-u64",
	why:     "DRAM read path: 2M u64 records, mirror >10x L2, 90% hit 5% miss 5% in-place update at ~0 PM B/op; predicted flat under split, record-log and service changes",
	mix:     workload.Mix{Name: "lookup-u64", Percent: [5]int{opRead: 90, opReadNeg: 5, opUpdate: 5}},
	preload: 2_000_000,
	warmup:  100_000,
	maxMops: 8,
	durOps:  20_000,
	reopens: 3,
	setups:  3,
}

// u64Value is the value stored for key: the key's low 32 bits under a
// per-write tag, so any read can check the value belongs to its key.
func u64Value(key, tag uint64) uint64 { return uint64(uint32(key)) | tag<<32 }

// poolBytes sizes a pool for records u64 records: 40 bytes per record
// covers the segments at the load factor just after a doubling, the
// directory and slack.
func poolBytes(records uint64) uint64 { return records*40 + 16<<20 }

// timedRecords is the most records a run of seconds can reach: the preload,
// the warm-up, the inserts of the op cap, and the top-up after them.
func (s u64Spec) timedRecords(seconds int) uint64 {
	records := s.preload + uint64(clients*s.warmup) + uint64(s.maxMops*1e6*float64(seconds)*float64(s.mix.Percent[opInsert])/100)
	if s.topUpGrid > 0 {
		records = topUpTarget(s.topUpGrid, records)
	}
	return records
}

// topUpTarget is the smallest count grid·2^k that is at least n.
func topUpTarget(grid, n uint64) uint64 {
	t := grid
	for t < n {
		t *= 2
	}
	return t
}

// maxOps is the per-client op cap of a timed phase of d.
func (s u64Spec) maxOps(d time.Duration) int64 {
	return int64(s.maxMops*1e6*d.Seconds()) / clients
}

// u64Env is one set-up instance: the table (or the reference map) with
// its warmed-up clients.
type u64Env struct {
	pool    *pmem.Pool // nil for the reference map
	tb      *core.Table
	target  u64Table
	clients []*client
}

// audit is the lost-op audit: the table must hold exactly the preload plus
// the acknowledged inserts minus the acknowledged deletes since set-up
// began. It returns the expected count.
func (e *u64Env) audit(preload uint64, rep *report) int64 {
	var ins, del int64
	for _, c := range e.clients {
		ins += c.insOK
		del += c.delOK
	}
	want := int64(preload) + ins - del
	got := e.tb.Count()
	rep.attempted++
	rep.check(got == want, "lost-op audit: table count %d, want preload %d + inserts %d - deletes %d = %d", got, preload, ins, del, want)
	return want
}

// u64Exec applies ops through tb and checks each answer.
func u64Exec(tb u64Table, c *client) execFn {
	var tag uint64 = 1
	return func(op workload.Op, tr *opTrace) string {
		k := op.Key
		switch op.Kind {
		case opInsert:
			t := tr.begin()
			err := tb.Insert(k, u64Value(k, 1))
			tr.end(spInsert, t)
			if err != nil {
				return fmt.Sprintf("insert %#x: %v", k, err)
			}
			c.insOK++
		case opRead:
			t := tr.begin()
			v, ok := tb.Get(k)
			tr.end(spGet, t)
			if !ok || uint32(v) != uint32(k) {
				return fmt.Sprintf("get %#x: found=%v value=%#x", k, ok, v)
			}
		case opReadNeg:
			t := tr.begin()
			_, ok := tb.Get(k)
			tr.end(spGet, t)
			if ok {
				return fmt.Sprintf("negative get %#x hit", k)
			}
		case opUpdate:
			tag++
			t := tr.begin()
			found, err := tb.Update(k, u64Value(k, tag))
			tr.end(spUpdate, t)
			if !found || err != nil {
				return fmt.Sprintf("update %#x: found=%v err=%v", k, found, err)
			}
		case opDelete:
			t := tr.begin()
			found := tb.Delete(k)
			tr.end(spDelete, t)
			if found {
				c.delOK++
			}
		}
		return ""
	}
}

// preloadU64 inserts PreloadKey(0..n-1) from clients goroutines.
func preloadU64(tb u64Table, n uint64) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(w); i < n; i += clients {
				k := workload.PreloadKey(i)
				if err := tb.Insert(k, u64Value(k, 1)); err != nil {
					errs[w] = fmt.Errorf("preload key %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup builds the workload from scratch: pool, table, uncharged preload,
// then the cost model and a charged warm-up through the clients' streams.
// With ref it builds the DRAM reference map instead. It returns the
// wall time from start to the first timed op.
func (s u64Spec) setup(cfg runConfig, ref bool, rep *report) (*u64Env, time.Duration, error) {
	start := time.Now()
	gen, err := workload.NewGenerator(workload.Config{Keyspace: s.preload, Mix: s.mix, Seed: cfg.seed})
	if err != nil {
		return nil, 0, err
	}
	env := &u64Env{}
	if ref {
		env.target = newRefMap()
	} else {
		env.pool, err = pmem.NewPool(pmem.Options{Size: poolBytes(s.timedRecords(cfg.seconds))})
		if err != nil {
			return nil, 0, err
		}
		env.tb, err = core.Create(env.pool, core.Options{Seed: cfg.seed | 1})
		if err != nil {
			return nil, 0, err
		}
		env.target = env.tb
	}
	if err := preloadU64(env.target, s.preload); err != nil {
		return nil, 0, err
	}
	if env.pool != nil {
		env.pool.SetModel(pmem.DefaultOptane())
	}
	for w := 0; w < clients; w++ {
		c := &client{id: w, stream: gen.Stream(w)}
		c.exec = u64Exec(env.target, c)
		env.clients = append(env.clients, c)
	}
	warm := runLoop(env.clients, loopPhase{fixedOps: []int64{s.warmup, s.warmup}})
	rep.attempted += warm.ops
	rep.fail(warm.fails, "warm-up: %s", warm.problem)
	return env, time.Since(start), nil
}

// setupRepeated sets the workload up s.setups times, reports setup_s as
// the median and returns the last instance.
func (s u64Spec) setupRepeated(cfg runConfig, rep *report) (*u64Env, error) {
	var times []float64
	var env *u64Env
	for i := 0; i < s.setups; i++ {
		env = nil
		release()
		e, d, err := s.setup(cfg, false, rep)
		if err != nil {
			return nil, err
		}
		env = e
		times = append(times, d.Seconds())
	}
	rep.set("setup_s", "s", median(times))
	st := env.tb.Stats()
	rep.note("preload=%d records, table %d segments, PM allocated %d B, filter mirror %d B, dircache %d B, pool %d B",
		s.preload, st.Segments, st.AllocatedBytes, st.SegFilterBytes, st.DirCacheBytes, env.pool.Size())
	return env, nil
}

// runU64 is the untraced run of a closed-loop uint64 workload: every
// end-to-end metric, the lost-op audit, the restart measurements and the
// durability pass.
func runU64(s u64Spec, cfg runConfig, rep *report) error {
	base := heapBytes()
	env, err := s.setupRepeated(cfg, rep)
	if err != nil {
		return err
	}
	dur, windows := cfg.timed()
	ph := loopPhase{dur: dur, windows: windows, maxOps: s.maxOps(dur), latCap: int(min(s.maxOps(dur), 12<<20))}
	restore := gcOff()
	before := env.pool.Stats()
	res := runLoop(env.clients, ph)
	pm := env.pool.Stats().Sub(before)
	restore()
	rep.attempted += res.ops
	rep.fail(res.fails, "timed phase: %s", res.problem)
	rep.note("timed phase: %d ops in %.2fs over %d windows (op cap %d per client)", res.ops, res.elapsed.Seconds(), res.windowCount, ph.maxOps)
	closedEndToEnd(rep, res)
	pmEndToEnd(rep, pm, res.ops)

	want := env.audit(s.preload, rep)
	if s.topUpGrid > 0 {
		target := int64(topUpTarget(s.topUpGrid, uint64(want)))
		env.pool.SetModel(nil)
		n := (target - want) / clients
		top := runLoop(env.clients, loopPhase{fixedOps: []int64{n, target - want - n}})
		rep.attempted += top.ops
		rep.fail(top.fails, "top-up: %s", top.problem)
		want = env.audit(s.preload, rep)
		rep.check(want == target, "top-up reached %d records, want %d", want, target)
		rep.note("table grown uncharged to %d records for the space and restart measurements", want)
	}

	st := env.tb.Stats()
	rep.set("space_amp", "B/B", ratio(float64(st.AllocatedBytes), float64(want*16)))
	for _, c := range env.clients {
		c.lat, c.winLat, c.winOps = nil, nil, nil
	}
	heap := heapBytes()
	rep.set("dram_bytes_per_record", "B/record", ratio(float64(heap)-float64(base)-float64(env.pool.Size()), float64(want)))

	restartTable(env.pool, env.tb, want, s.reopens, nil, rep)
	env = nil
	release()
	return durableU64(s, cfg, rep)
}

// closedEndToEnd reports the closed-loop latency and throughput metrics:
// medians over the phase's one-second windows.
func closedEndToEnd(rep *report, res loopResult) {
	mops := median(res.winMops)
	rep.set("throughput_mops", "Mops/s", mops)
	// A closed loop never builds a backlog, so the highest rate it sustains
	// is the rate it completes.
	rep.set("max_rate_kops", "kops/s", mops*1e3)
	rep.set("latency_p50_us", "us", median(res.winP50NS)/1e3)
	rep.set("latency_p99_us", "us", median(res.winP99NS)/1e3)
}

// restartTable measures restart from the crash image of the open table tb:
// reopens times Open plus the first Get (restart_open_ms), carried through
// RecoverAll (restart_full_ms), medians over the reopens, each checked
// against the expected record count. With spans it records the traced
// restart instead and also times a clean-shutdown open.
func restartTable(pool *pmem.Pool, tb *core.Table, want int64, reopens int, spans *spanBuf, rep *report) {
	img := liveImage(pool, tb.Stats().AllocatedBytes)
	size := pool.Size()
	probe := workload.PreloadKey(0)
	var openMS, fullMS, segNS, logNS []float64
	for i := 0; i < reopens; i++ {
		p, err := poolFromImage(img, size, pmem.DefaultOptane())
		if err != nil {
			rep.fail(1, "reopen %d: %v", i, err)
			return
		}
		req := uint64(1)<<62 | uint64(i)
		restore := gcOff()
		t0 := now()
		rt, err := core.Open(p)
		t1 := now()
		if err != nil {
			restore()
			rep.fail(1, "reopen %d: %v", i, err)
			return
		}
		v, ok := rt.Get(probe)
		t2 := now()
		rt.RecoverAll()
		t3 := now()
		restore()
		spans.add(req, spOpen, t0, t1)
		spans.add(req, spFirstOp, t1, t2)
		spans.add(req, spRecoverAll, t2, t3)
		spans.add(req, spBenchOp, t0, t3)
		rep.attempted += 2
		rep.check(ok && uint32(v) == uint32(probe), "reopen %d: first get of key %d: found=%v value=%#x", i, probe, ok, v)
		n := rt.Count()
		rep.check(n == want, "reopen %d: count %d, want %d", i, n, want)
		st := rt.Stats()
		openMS = append(openMS, float64(t2-t0)/1e6)
		fullMS = append(fullMS, float64(t3-t0)/1e6)
		segNS = append(segNS, float64(st.RecoverySegmentsNS))
		logNS = append(logNS, float64(st.RecoveryLogNS))
		rt, p = nil, nil
		release()
	}
	rep.set("restart_open_ms", "ms", median(openMS))
	rep.set("restart_full_ms", "ms", median(fullMS))
	if spans == nil {
		return
	}
	rep.set("core.recovery.segments_ns", "ns", median(segNS))
	rep.set("core.recovery.log_ns", "ns", median(logNS))
	tb.Close()
	img = liveImage(pool, tb.Stats().AllocatedBytes)
	p, err := poolFromImage(img, size, pmem.DefaultOptane())
	if err != nil {
		rep.fail(1, "clean reopen: %v", err)
		return
	}
	t0 := now()
	ct, err := core.Open(p)
	t1 := now()
	rep.attempted++
	if !rep.check(err == nil, "clean reopen: %v", err) {
		return
	}
	rep.set("core.clean_open_ns", "ns", float64(t1-t0))
	rep.attempted++
	n := ct.Count()
	rep.check(n == want, "clean reopen: count %d, want %d", n, want)
}

// durableU64 is the untimed durability pass: the workload's seeded op
// stream applied by one goroutine to a crash-tracking pool, then a
// simulated power loss, a reopen, and a check that every acknowledged
// write reads back exactly and the record count is right.
func durableU64(s u64Spec, cfg runConfig, rep *report) error {
	pool, err := pmem.NewPool(pmem.Options{Size: poolBytes(s.preload + uint64(s.durOps))})
	if err != nil {
		return err
	}
	tb, err := core.Create(pool, core.Options{Seed: cfg.seed | 1})
	if err != nil {
		return err
	}
	if err := preloadU64(tb, s.preload); err != nil {
		return err
	}
	tb.Close()
	tp, err := trackedPool(pool)
	if err != nil {
		return err
	}
	pool, tb = nil, nil
	release()
	dt, err := core.OpenWith(tp, core.Deps{NoBackgroundRecovery: true})
	if err != nil {
		return fmt.Errorf("durability open: %w", err)
	}
	gen, err := workload.NewGenerator(workload.Config{Keyspace: s.preload, Mix: s.mix, Seed: cfg.seed})
	if err != nil {
		return err
	}
	streams := []*workload.Stream{gen.Stream(0), gen.Stream(1)}
	pre := make([]uint64, s.preload)
	for i := range pre {
		pre[i] = u64Value(uint64(i), 1)
	}
	fresh := map[uint64]uint64{}
	expect := func(k uint64) (uint64, bool) {
		if k < s.preload {
			return pre[k], true
		}
		v, ok := fresh[k]
		return v, ok
	}
	for i := 0; i < s.durOps; i++ {
		op := streams[i%2].Next()
		k := op.Key
		rep.attempted++
		switch op.Kind {
		case opInsert:
			v := u64Value(k, uint64(i)+2)
			if rep.check(dt.Insert(k, v) == nil, "durability insert %#x failed", k) {
				fresh[k] = v
			}
		case opRead, opReadNeg:
			want, wantOK := expect(k)
			v, ok := dt.Get(k)
			rep.check(ok == wantOK && v == want, "durability get %#x: got (%#x,%v) want (%#x,%v)", k, v, ok, want, wantOK)
		case opUpdate:
			v := u64Value(k, uint64(i)+2)
			found, err := dt.Update(k, v)
			_, live := expect(k)
			if rep.check(found == live && err == nil, "durability update %#x: found=%v err=%v", k, found, err) && found {
				if k < s.preload {
					pre[k] = v
				} else {
					fresh[k] = v
				}
			}
		case opDelete:
			return fmt.Errorf("durability pass: %s has no deletes", s.name)
		}
	}
	tp.Crash()
	rt, err := core.OpenWith(tp, core.Deps{NoBackgroundRecovery: true})
	rep.attempted++
	if !rep.check(err == nil, "durability reopen after crash: %v", err) {
		return nil
	}
	bad := int64(0)
	for i, want := range pre {
		if v, ok := rt.Get(uint64(i)); !ok || v != want {
			bad++
		}
	}
	for k, want := range fresh {
		if v, ok := rt.Get(k); !ok || v != want {
			bad++
		}
	}
	rep.attempted += int64(len(pre) + len(fresh))
	rep.fail(bad, "durability: %d acknowledged records lost or changed after crash", bad)
	want := int64(len(pre) + len(fresh))
	n := rt.Count()
	rep.attempted++
	rep.check(n == want, "durability: count after crash %d, want %d", n, want)
	rep.note("durability pass: %d ops on a crash-tracking pool, crash, reopen, %d records verified", s.durOps, len(pre)+len(fresh))
	return nil
}
