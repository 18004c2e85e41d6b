package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dash/internal/core"
	"dash/internal/pmem"
)

// runConfig is what one invocation asks for.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string // trace files
}

// timed returns the length of the main timed phase and its window count:
// one window per second, medians over windows.
func (c runConfig) timed() (time.Duration, int) {
	return time.Duration(c.seconds) * time.Second, c.seconds
}

// tracedPhase is the length of each phase of a traced run, which runs
// several phases (untraced, traced, model-off replay, DRAM reference).
func (c runConfig) tracedPhase() (time.Duration, int) {
	secs := max(1, c.seconds/4)
	return time.Duration(secs) * time.Second, secs
}

// clients is the number of load-generating goroutines of a closed loop,
// the CPU count of the machine the bounds were set on.
const clients = 2

// release collects garbage and returns the freed memory to the system, so
// the pools and images of one phase do not add to the next one's
// footprint.
func release() { debug.FreeOSMemory() }

// gcOff holds GC off for a timed phase; the engine and the loops allocate
// almost nothing per op, so a collection inside the phase would only add
// simulator noise. It returns the restore function.
func gcOff() func() {
	release()
	prev := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(prev) }
}

// heapBytes forces a collection and returns the bytes of live heap objects.
func heapBytes() uint64 {
	release()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// imageSlack covers the pool's root lines below the allocator's first
// block; copying a little past the frontier is harmless.
const imageSlack = 64 << 10

// liveImage copies the part of pool that holds the table: every block lies
// below the allocator frontier. Taken while the table is open, the copy is
// what a crash at this instant leaves behind (the pool has no volatile
// cache of its own, so its content is its durable image).
func liveImage(pool *pmem.Pool, allocated uint64) []byte {
	n := min(pool.Size()-pmem.CachelineSize, allocated+imageSlack)
	return append([]byte(nil), pool.Bytes(pmem.CachelineSize, n)...)
}

// poolFromImage builds a fresh pool of size bytes holding img, with model
// charging every access from the first one.
func poolFromImage(img []byte, size uint64, model *pmem.CostModel) (*pmem.Pool, error) {
	p, err := pmem.NewPool(pmem.Options{Size: size})
	if err != nil {
		return nil, err
	}
	copy(p.Bytes(pmem.CachelineSize, uint64(len(img))), img)
	p.SetModel(model)
	return p, nil
}

// trackedPool builds a crash-tracking pool whose durable image is pool's
// current content.
func trackedPool(pool *pmem.Pool) (*pmem.Pool, error) {
	return pmem.OpenSnapshot(pool.Snapshot(), pmem.Options{TrackCrashes: true})
}

// tableShape reports the structural per-layer metrics of a table at the
// end of a phase.
func tableShape(rep *report, st core.TableStats, records int64) {
	rep.set("core.load_factor", "frac", st.LoadFactor)
	rep.set("core.stash_share", "frac", st.StashShare)
	rep.set("core.global_depth", "count", float64(st.GlobalDepth))
	rep.set("core.segfilter.bytes_per_record", "B/record", ratio(float64(st.SegFilterBytes), float64(records)))
}

// statsWindow reports the counter-based per-layer metrics of one phase
// from table stats taken before and after it, summed over tables.
func statsWindow(rep *report, before, after []core.TableStats, ops int64) {
	var d core.TableStats
	for i := range before {
		a, b := after[i], before[i]
		d.Splits += a.Splits - b.Splits
		d.SplitStallNS += a.SplitStallNS - b.SplitStallNS
		d.SplitAssists += a.SplitAssists - b.SplitAssists
		d.DirCacheHits += a.DirCacheHits - b.DirCacheHits
		d.DirCacheMisses += a.DirCacheMisses - b.DirCacheMisses
		d.SegFilterHits += a.SegFilterHits - b.SegFilterHits
		d.SegFilterMisses += a.SegFilterMisses - b.SegFilterMisses
		d.SegFilterBypass += a.SegFilterBypass - b.SegFilterBypass
		d.EpochRetired += a.EpochRetired - b.EpochRetired
		d.EpochReclaimed += a.EpochReclaimed - b.EpochReclaimed
		d.LogFreeHits += a.LogFreeHits - b.LogFreeHits
		d.LogFreeMisses += a.LogFreeMisses - b.LogFreeMisses
		d.LogLiveBytes += a.LogLiveBytes
		d.LogFreeBytes += a.LogFreeBytes
		d.LogChunkBytes += a.LogChunkBytes
	}
	n := float64(ops)
	rep.set("core.split.count", "count", float64(d.Splits))
	rep.set("core.split.stall_ns_per_op", "ns/op", ratio(float64(d.SplitStallNS), n))
	rep.set("core.split.assists", "count", float64(d.SplitAssists))
	routes := float64(d.DirCacheHits + d.DirCacheMisses)
	rep.set("core.dircache.hit_rate", "frac", ratio(float64(d.DirCacheHits), routes))
	rep.set("core.dircache.misses", "count", float64(d.DirCacheMisses))
	probes := float64(d.SegFilterHits + d.SegFilterMisses + d.SegFilterBypass)
	rep.set("core.segfilter.hit_rate", "frac", ratio(float64(d.SegFilterHits), probes))
	rep.set("core.segfilter.bypass", "count", float64(d.SegFilterBypass))
	rep.set("core.read_path.mirror_served", "frac", ratio(float64(d.SegFilterHits), probes))
	rep.set("core.read_path.pm_fallback", "frac", ratio(float64(d.SegFilterMisses+d.SegFilterBypass), probes))
	rep.set("epoch.retired_per_op", "1/op", ratio(float64(d.EpochRetired), n))
	rep.set("epoch.reclaimed_per_op", "1/op", ratio(float64(d.EpochReclaimed), n))
	rep.set("pmem.log.live_bytes", "bytes", float64(d.LogLiveBytes))
	rep.set("pmem.log.free_bytes", "bytes", float64(d.LogFreeBytes))
	rep.set("pmem.log.chunk_bytes", "bytes", float64(d.LogChunkBytes))
	rep.set("pmem.log.free_hit_rate", "frac", ratio(float64(d.LogFreeHits), float64(d.LogFreeHits+d.LogFreeMisses)))
}

// pmLayer reports the per-op PM traffic of a phase as per-layer metrics.
func pmLayer(rep *report, pm pmem.StatsSnapshot, ops int64) {
	n := float64(ops)
	rep.set("pmem.read_lines_per_op", "lines/op", ratio(float64(pm.ReadLines), n))
	rep.set("pmem.write_lines_per_op", "lines/op", ratio(float64(pm.WriteLines), n))
	rep.set("pmem.flushed_lines_per_op", "lines/op", ratio(float64(pm.FlushedLines), n))
	rep.set("pmem.fences_per_op", "1/op", ratio(float64(pm.Fences), n))
	rep.set("pmem.fences_elided_per_op", "1/op", ratio(float64(pm.FencesElided), n))
}

// pmEndToEnd reports the end-to-end PM cost per op of a phase.
func pmEndToEnd(rep *report, pm pmem.StatsSnapshot, ops int64) {
	n := float64(ops)
	rep.set("pm_read_bytes_per_op", "B/op", ratio(float64(pm.ReadLines*pmem.CachelineSize), n))
	rep.set("pm_write_bytes_per_op", "B/op", ratio(float64(pm.WriteLines*pmem.CachelineSize), n))
	rep.set("pm_fences_per_op", "1/op", ratio(float64(pm.Fences), n))
}

// opLatencies reports core.<op>.{count,p50_ns,p99_ns,p999_ns} from the
// traced spans; counts are every call of the phase, quantiles come from
// the sampled spans.
func opLatencies(rep *report, s *spanSummary, kinds [5]int64) {
	counts := map[spanName]int64{
		spGet:    kinds[opRead] + kinds[opReadNeg],
		spInsert: kinds[opInsert],
		spUpdate: kinds[opUpdate],
		spDelete: kinds[opDelete],
	}
	for _, n := range []spanName{spGet, spInsert, spUpdate, spDelete} {
		d := s.dur[n]
		name := spanNames[n]
		rep.set(name+".count", "count", float64(counts[n]))
		rep.set(name+".p50_ns", "ns", quantile(d, 0.50))
		rep.set(name+".p99_ns", "ns", quantile(d, 0.99))
		rep.set(name+".p999_ns", "ns", quantile(d, 0.999))
	}
}

// modeledNS reports the simulated PM time per op kind: the mean traced
// call time with the cost model on minus the same with it off.
func modeledNS(rep *report, on, off *spanSummary) {
	for _, n := range []spanName{spGet, spInsert, spUpdate, spDelete} {
		rep.set("pmem.modeled_ns."+spanNames[n][len("core."):], "ns", meanNS(on.dur[n])-meanNS(off.dur[n]))
	}
}

// envLines records the environment a result was measured in.
func envLines(cfg runConfig) []string {
	m := pmem.DefaultOptane()
	return []string{
		fmt.Sprintf("env nproc=%d GOMAXPROCS=%d go=%s GOOS/GOARCH=%s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("run seed=%d seconds=%d trace=%v clients=%d", cfg.seed, cfg.seconds, cfg.trace, clients),
		fmt.Sprintf("cost model pmem.DefaultOptane scale=%d read=%dns write=%dns flush=%dns fence=%dns read_line=%dns write_line=%dns (on in every timed phase and reopen; set-up preload uncharged)",
			m.Scale, m.ReadLatencyNS, m.WriteLatencyNS, m.FlushNS, m.FenceNS, m.ReadLineNS, m.WriteLineNS),
	}
}
