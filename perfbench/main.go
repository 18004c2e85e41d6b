// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One run measures one workload for one seed:
//
//	perfbench --workload lookup-u64 --seed 1 --seconds 8 --trace 0
//
// prints the environment, one line per metric with its unit, and as the
// last line a JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
// traced run reports the per-layer ones and writes its spans under
// .bench_build/trace/. --workload all runs every workload in turn. The
// exit code is non-zero when any answer, audit, restart count or
// durability check failed.
//
// The workloads, and the layer each isolates, are ingest-u64 (write path),
// lookup-u64 (DRAM read path) and service-var (service tier and record
// log); BENCHMARK.json at the repository root lists the metrics and their
// regression bounds. Build and run it through perfbench/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
)

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []string{
	"throughput_mops", "max_rate_kops", "latency_p50_us", "latency_p99_us",
	"pm_read_bytes_per_op", "pm_write_bytes_per_op", "pm_fences_per_op",
	"space_amp", "dram_bytes_per_record", "restart_open_ms", "restart_full_ms",
	"setup_s",
}

// perLayer lists the per-layer metrics every traced run reports, with
// their units. A workload that does not exercise a layer reports 0.
//
// The end-to-end metric each should move, and where:
//   - core.get.*: latency_p50_us and throughput_mops on lookup-u64;
//     core.insert.*: latency_p99_us and throughput_mops on ingest-u64;
//     core.update.* and core.delete.*: latency_p99_us on service-var.
//   - core.split.*: latency_p99_us on ingest-u64. core.dircache.*,
//     core.segfilter.hit_rate/bypass and core.read_path.*: latency_p50_us
//     and pm_read_bytes_per_op on lookup-u64. core.segfilter.bytes_per_record:
//     dram_bytes_per_record everywhere. core.load_factor, stash_share and
//     global_depth: space_amp on ingest-u64.
//   - core.open_ns, first_op_ns, recover_all_ns, clean_open_ns and
//     core.recovery.*: restart_open_ms and restart_full_ms; the log sweep
//     dominates service-var's image, the segment count lookup-u64's.
//   - pmem.*_per_op: the pm_*_per_op metrics everywhere and throughput_mops
//     on ingest-u64; pmem.log.*: space_amp on service-var; pmem.modeled_ns.*
//     (model-on minus model-off call time) bounds what a PM-traffic cut can
//     buy.
//   - service.*: latency_p99_us, max_rate_kops and pm_fences_per_op on
//     service-var. epoch.*: space_amp and dram_bytes_per_record there.
//   - workload.next_ns and workload.gen_lag_p99_us are canaries: if they
//     move, the harness moved, not the program. trace.overhead_frac is the
//     traced run's throughput loss; ref.dram_map.throughput_mops is the
//     DRAM-map ceiling under the same loops and op streams, never gated.
var perLayer = func() [][2]string {
	var m [][2]string
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, [2]string{n, unit})
		}
	}
	for _, op := range []string{"get", "insert", "update", "delete"} {
		add("count", "core."+op+".count")
		add("ns", "core."+op+".p50_ns", "core."+op+".p99_ns", "core."+op+".p999_ns")
		add("ns", "pmem.modeled_ns."+op)
	}
	add("count", "core.split.count", "core.split.assists", "core.dircache.misses", "core.segfilter.bypass",
		"core.global_depth", "epoch.pending_max", "service.batch_mean", "service.queue_depth_mean")
	add("ns/op", "core.split.stall_ns_per_op")
	add("frac", "core.dircache.hit_rate", "core.segfilter.hit_rate", "core.read_path.mirror_served",
		"core.read_path.pm_fallback", "core.load_factor", "core.stash_share", "pmem.log.free_hit_rate",
		"service.shard_imbalance", "trace.overhead_frac")
	add("B/record", "core.segfilter.bytes_per_record")
	add("ns", "core.open_ns", "core.first_op_ns", "core.recover_all_ns", "core.clean_open_ns",
		"core.recovery.segments_ns", "core.recovery.log_ns", "workload.next_ns",
		"service.submit_ns.p50", "service.submit_ns.p99", "service.complete_ns.p50", "service.complete_ns.p99")
	add("lines/op", "pmem.read_lines_per_op", "pmem.write_lines_per_op", "pmem.flushed_lines_per_op")
	add("1/op", "pmem.fences_per_op", "pmem.fences_elided_per_op", "epoch.retired_per_op", "epoch.reclaimed_per_op")
	add("bytes", "pmem.log.live_bytes", "pmem.log.free_bytes", "pmem.log.chunk_bytes")
	add("us", "workload.gen_lag_p99_us")
	add("Mops/s", "ref.dram_map.throughput_mops")
	for n := spanName(0); n < numSpanNames; n++ {
		add("ns", "self_ns."+spanNames[n])
	}
	return m
}()

// workloadDef is one named workload.
type workloadDef struct {
	name  string
	why   string
	run   func(runConfig, *report) error
	trace func(runConfig, *report) ([]*spanBuf, error)
}

var workloads = []workloadDef{
	{ingestSpec.name, ingestSpec.why,
		func(c runConfig, r *report) error { return runU64(ingestSpec, c, r) },
		func(c runConfig, r *report) ([]*spanBuf, error) { return traceU64(ingestSpec, c, r) }},
	{lookupSpec.name, lookupSpec.why,
		func(c runConfig, r *report) error { return runU64(lookupSpec, c, r) },
		func(c runConfig, r *report) ([]*spanBuf, error) { return traceU64(lookupSpec, c, r) }},
	{svcSpecDef.name, svcSpecDef.why,
		func(c runConfig, r *report) error { return runSvc(svcSpecDef, c, r) },
		func(c runConfig, r *report) ([]*spanBuf, error) { return traceSvc(svcSpecDef, c, r) }},
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 8, "length of the timed phase, seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var run []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// GC stays off inside timed phases; the limit bounds the heap should
	// a phase allocate more than expected.
	debug.SetMemoryLimit(3 << 30)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: ".bench_build/trace"}
	ok := true
	for _, w := range run {
		rep := runOne(w, cfg)
		if err := rep.write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		ok = ok && rep.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and returns its report. An error that stops
// the run counts as a failed op, so the result is never reported correct.
func runOne(w workloadDef, cfg runConfig) *report {
	rep := newReport(w.name)
	env := envLines(cfg)
	for _, l := range env {
		rep.note("%s", l)
	}
	rep.note("why: %s", w.why)
	if !cfg.trace {
		if err := w.run(cfg, rep); err != nil {
			rep.attempted++
			rep.fail(1, "run stopped: %v", err)
		}
		for _, n := range endToEnd {
			if _, ok := rep.metrics[n]; !ok {
				rep.fail(1, "metric %s was not measured", n)
			}
		}
		return rep
	}
	bufs, err := w.trace(cfg, rep)
	if err != nil {
		rep.attempted++
		rep.fail(1, "traced run stopped: %v", err)
	}
	names := make([]string, 0, len(perLayer))
	for _, m := range perLayer {
		names = append(names, m[0])
		if _, ok := rep.metrics[m[0]]; !ok {
			rep.set(m[0], m[1], 0)
		}
	}
	// The traced run reports per-layer metrics only.
	for n := range rep.metrics {
		if !slices.Contains(names, n) {
			delete(rep.metrics, n)
			rep.order = slices.DeleteFunc(rep.order, func(x string) bool { return x == n })
		}
	}
	if path, err := writeSpans(cfg.outDir, w.name, cfg.seed, env, bufs); err != nil {
		rep.note("spans not written: %v", err)
	} else {
		rep.note("spans written to %s", path)
	}
	return rep
}
