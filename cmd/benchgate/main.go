// Command benchgate is the perf-regression gate wired into `make ci` and
// the hosted CI workflow. It runs a small set of fixed, seeded benchmark
// cells (each seconds-long, with the full Optane cost model so PM traffic
// has a price) and fails — exit status 1 — when any tracked metric
// regresses past the thresholds committed in bench-gate.json.
//
// The cells guard the wins this repo has banked: the u64-insert cell keeps
// the inline fast path honest (p999/max insert latency from the
// incremental-split rework, PM bytes per op from persist batching, plus a
// load-factor floor so neither can be bought by splitting early), the
// var-insert cell guards the variable-length record path through the PM
// record log, and the read cells (u64-read, var-read, read-neg) guard the
// segment filter mirror's PM read-traffic elimination — read ceilings tight
// enough that serving probes from PM again would fail immediately.
// Latency thresholds carry deliberate headroom over locally
// measured values — shared CI runners are noisy and the cost model charges
// wall-clock spins — while the per-op traffic thresholds are tight, because
// they are nearly deterministic. Update bench-gate.json in the same PR as
// an intentional perf change, with the new measurement in the PR
// description.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"

	"dash/internal/bench"
	"dash/internal/pmem"
	"dash/internal/workload"
)

type cellConfig struct {
	Mix       string  `json:"mix"`
	Threads   int     `json:"threads"`
	Ops       int64   `json:"ops"`
	WarmupOps int64   `json:"warmup_ops"`
	Keyspace  uint64  `json:"keyspace"`
	Theta     float64 `json:"theta"`
	Seed      uint64  `json:"seed"`
	Scale     int64   `json:"scale"`
	// Shards > 0 turns the cell into a service-tier cell: Mix names a
	// client simulation (workload.ClientSims) instead of a mix, and the
	// cell runs it at (Shards, Batch) plus at the unbatched single-table
	// baseline (1, 1) to compare against.
	Shards int `json:"shards,omitempty"`
	Batch  int `json:"batch,omitempty"`
}

type cellThresholds struct {
	P999NSMax            int64   `json:"p999_ns_max"`
	MaxNSMax             int64   `json:"max_ns_max"`
	PMWriteBytesPerOpMax float64 `json:"pm_write_bytes_per_op_max"`
	PMReadBytesPerOpMax  float64 `json:"pm_read_bytes_per_op_max"`
	LoadFactorMin        float64 `json:"load_factor_min"`
	// RecoveryOpenNSMax, when > 0, turns the cell into a restart-latency
	// gate: the cell's durable image is reopened on the crash path and
	// core.Open's wall time (time-to-first-op, before any lazy per-segment
	// work) must stay under the ceiling.
	RecoveryOpenNSMax int64 `json:"recovery_open_ns_max"`
	// RecoveryOpenPMWriteLinesMax, when > 0, also reopens the crash image
	// and caps the PM cachelines core.Open writes: the deterministic
	// counterpart of the wall-time ceiling (Open defers every per-bucket
	// write — lock resets, marker clears — to first touch).
	RecoveryOpenPMWriteLinesMax uint64 `json:"recovery_open_pm_write_lines_max,omitempty"`
	// Service-cell thresholds (Config.Shards > 0). SvcFenceRatioMax is the
	// ceiling on (batched PM fences per op) / (unbatched baseline fences
	// per op) — strictly below 1 asserts batching actually amortizes
	// ordering points. SvcMopsRatioMin is the floor on batched aggregate
	// throughput relative to the single-table baseline.
	SvcFenceRatioMax float64 `json:"svc_fence_ratio_max,omitempty"`
	SvcMopsRatioMin  float64 `json:"svc_mops_ratio_min,omitempty"`
}

type gateCell struct {
	Name       string         `json:"name"`
	Config     cellConfig     `json:"config"`
	Thresholds cellThresholds `json:"thresholds"`
}

type gateFile struct {
	Description string     `json:"description"`
	Cells       []gateCell `json:"cells"`
}

func main() {
	cfgPath := flag.String("config", "bench-gate.json", "gate cells + thresholds")
	flag.Parse()

	// Same GC pacing as dashbench: the gated tail quantiles must measure
	// the table, not the simulator's GC mark assists (see cmd/dashbench).
	debug.SetGCPercent(1000)

	data, err := os.ReadFile(*cfgPath)
	if err != nil {
		fatal(err)
	}
	var gf gateFile
	if err := json.Unmarshal(data, &gf); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *cfgPath, err))
	}
	if len(gf.Cells) == 0 {
		fatal(fmt.Errorf("%s declares no gate cells", *cfgPath))
	}

	failed := false
	for _, cell := range gf.Cells {
		if !runCell(cell) {
			failed = true
		}
	}
	if failed {
		fmt.Println("benchgate: FAIL — perf regression past committed thresholds " +
			"(if intentional, update bench-gate.json in this PR and explain why)")
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func runCell(cell gateCell) bool {
	if cell.Config.Shards > 0 {
		return runSvcCell(cell)
	}
	mix, ok := workload.MixByName(cell.Config.Mix)
	if !ok {
		fatal(fmt.Errorf("unknown mix %q in gate cell %q", cell.Config.Mix, cell.Name))
	}
	cfg := bench.Config{
		Threads:   cell.Config.Threads,
		Ops:       cell.Config.Ops,
		WarmupOps: cell.Config.WarmupOps,
		Keyspace:  cell.Config.Keyspace,
		Theta:     cell.Config.Theta,
		Mix:       mix,
		Seed:      cell.Config.Seed,
	}
	if cell.Config.Scale > 0 {
		cfg.Model = pmem.ScaledOptane(cell.Config.Scale)
	}
	if cell.Thresholds.RecoveryOpenNSMax > 0 || cell.Thresholds.RecoveryOpenPMWriteLinesMax > 0 {
		cfg.MeasureRecovery = true
	}
	fmt.Printf("benchgate[%s]: mix %s, %d threads, %d ops, keyspace %d, seed %d, scale %d\n",
		cell.Name, mix.Name, cfg.Threads, cfg.Ops, cfg.Keyspace, cfg.Seed, cell.Config.Scale)

	res, err := bench.Run(cfg)
	if err != nil {
		fatal(err)
	}

	th := cell.Thresholds
	passed := true
	// check gates got against max; an unset threshold (0) gates nothing,
	// so the metric is reported as an info line, never as a passed check.
	check := func(name string, got, max float64) {
		if max <= 0 {
			fmt.Printf("  info %-26s %12.1f  (no threshold)\n", name, got)
			return
		}
		status := "ok  "
		if got > max {
			status = "FAIL"
			passed = false
		}
		fmt.Printf("  %s %-26s %12.1f  (threshold <= %.1f)\n", status, name, got, max)
	}
	check("p999 latency ns", float64(res.P999NS), float64(th.P999NSMax))
	check("max latency ns", float64(res.MaxNS), float64(th.MaxNSMax))
	check("PM write bytes/op", res.WriteBytesPerOp, th.PMWriteBytesPerOpMax)
	check("PM read bytes/op", res.ReadBytesPerOp, th.PMReadBytesPerOpMax)
	if th.RecoveryOpenNSMax > 0 {
		check("crash open ns (first op)", float64(res.RecoveryOpenNS), float64(th.RecoveryOpenNSMax))
		fmt.Printf("  info fully_recovered_ms=%.2f clean_open_ms=%.2f\n",
			float64(res.RecoveryFullNS)/1e6, float64(res.RecoveryCleanOpenNS)/1e6)
	}
	if th.RecoveryOpenPMWriteLinesMax > 0 {
		check("crash open PM write lines", float64(res.RecoveryOpenWriteLines), float64(th.RecoveryOpenPMWriteLinesMax))
		fmt.Printf("  info open_pm_read_lines=%d recover_all_pm_read_lines=%d recover_all_pm_write_lines=%d\n",
			res.RecoveryOpenReadLines, res.RecoveryAllReadLines, res.RecoveryAllWriteLines)
	}
	if th.LoadFactorMin > 0 {
		status := "ok  "
		if res.Table.LoadFactor < th.LoadFactorMin {
			status = "FAIL"
			passed = false
		}
		fmt.Printf("  %s %-26s %12.2f  (threshold >= %.2f)\n", status, "load factor", res.Table.LoadFactor, th.LoadFactorMin)
	}
	fmt.Printf("  info splits=%d stall_ms=%.2f split_waits=%d overflows=%d too_large=%d log_live_mib=%.1f\n",
		res.Table.Splits, float64(res.Table.SplitStallNS)/1e6,
		res.Table.SplitAssists, res.Counts.InsertOverflow, res.Counts.InsertTooLarge,
		float64(res.Table.LogLiveBytes)/(1<<20))
	return passed
}

// runSvcCell runs a service-tier gate cell: the simulation at the cell's
// (shards, batch) and at the unbatched single-table baseline (1, 1), then
// checks the batched run's fence count per op is a committed fraction of the
// baseline's and its aggregate throughput at least matches it.
func runSvcCell(cell gateCell) bool {
	sim, ok := workload.ClientSimByName(cell.Config.Mix)
	if !ok {
		fatal(fmt.Errorf("unknown client sim %q in gate cell %q", cell.Config.Mix, cell.Name))
	}
	run := func(shards, batch int) *bench.ServiceResult {
		cfg := bench.ServiceConfig{
			Shards:    shards,
			Batch:     batch,
			Clients:   cell.Config.Threads,
			Ops:       cell.Config.Ops,
			WarmupOps: cell.Config.WarmupOps,
			Keyspace:  cell.Config.Keyspace,
			Theta:     cell.Config.Theta,
			Sim:       sim,
			Seed:      cell.Config.Seed,
		}
		if cell.Config.Scale > 0 {
			cfg.Model = pmem.ScaledOptane(cell.Config.Scale)
		}
		res, err := bench.RunService(cfg)
		if err != nil {
			fatal(err)
		}
		return res
	}
	fmt.Printf("benchgate[%s]: sim %s, %d clients, %d ops, keyspace %d, seed %d, scale %d — %d×%d vs 1×1 baseline\n",
		cell.Name, sim.Name, cell.Config.Threads, cell.Config.Ops, cell.Config.Keyspace,
		cell.Config.Seed, cell.Config.Scale, cell.Config.Shards, cell.Config.Batch)

	baseline := run(1, 1)
	target := run(cell.Config.Shards, cell.Config.Batch)

	th := cell.Thresholds
	passed := true
	fenceRatio := 0.0
	if baseline.FencesPerOp > 0 {
		fenceRatio = target.FencesPerOp / baseline.FencesPerOp
	}
	mopsRatio := 0.0
	if baseline.MopsPerS > 0 {
		mopsRatio = target.MopsPerS / baseline.MopsPerS
	}
	if th.SvcFenceRatioMax > 0 {
		status := "ok  "
		if fenceRatio > th.SvcFenceRatioMax {
			status = "FAIL"
			passed = false
		}
		fmt.Printf("  %s %-26s %12.3f  (threshold <= %.3f; %.3f vs %.3f fences/op)\n",
			status, "fence ratio vs baseline", fenceRatio, th.SvcFenceRatioMax,
			target.FencesPerOp, baseline.FencesPerOp)
	}
	if th.SvcMopsRatioMin > 0 {
		status := "ok  "
		if mopsRatio < th.SvcMopsRatioMin {
			status = "FAIL"
			passed = false
		}
		fmt.Printf("  %s %-26s %12.3f  (threshold >= %.3f; %.3f vs %.3f Mops/s)\n",
			status, "throughput vs baseline", mopsRatio, th.SvcMopsRatioMin,
			target.MopsPerS, baseline.MopsPerS)
	}
	if th.LoadFactorMin > 0 {
		status := "ok  "
		if target.LoadFactor < th.LoadFactorMin {
			status = "FAIL"
			passed = false
		}
		fmt.Printf("  %s %-26s %12.2f  (threshold >= %.2f)\n", status, "load factor (mean)", target.LoadFactor, th.LoadFactorMin)
	}
	fmt.Printf("  info batch_mean=%.1f flush_saved=%d imbalance=%.3f reconnects=%d elided_per_op=%.3f\n",
		target.BatchSizeMean, target.FlushSaved, target.Imbalance, target.Reconnects,
		target.FencesElidedPerOp)
	return passed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
