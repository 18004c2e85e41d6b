package main

import (
	"dash/internal/core"
)

// The traced run of a workload: separate set-ups for an untraced phase, a
// traced phase, a model-off replay of the traced phase's op streams and the
// DRAM reference, each phase cfg.tracedPhase() long. End-to-end metrics
// never come from here.

// sumStats folds per-shard table stats into one for the shape metrics.
func sumStats(sts []core.TableStats) core.TableStats {
	var t core.TableStats
	var capacity int64
	for _, st := range sts {
		t.Count += st.Count
		t.StashRecords += st.StashRecords
		t.SegFilterBytes += st.SegFilterBytes
		t.GlobalDepth = max(t.GlobalDepth, st.GlobalDepth)
		capacity += st.SlotCapacity
	}
	t.LoadFactor = ratio(float64(t.Count), float64(capacity))
	t.StashShare = ratio(float64(t.StashRecords), float64(t.Count))
	return t
}

// traceU64 is the traced run of a closed-loop uint64 workload.
func traceU64(s u64Spec, cfg runConfig, rep *report) ([]*spanBuf, error) {
	dur, windows := cfg.tracedPhase()
	ph := loopPhase{dur: dur, windows: windows, maxOps: s.maxOps(dur)}

	env, _, err := s.setup(cfg, false, rep)
	if err != nil {
		return nil, err
	}
	restore := gcOff()
	plain := runLoop(env.clients, ph)
	restore()
	rep.attempted += plain.ops
	rep.fail(plain.fails, "untraced phase: %s", plain.problem)

	env = nil
	release()
	env, _, err = s.setup(cfg, false, rep)
	if err != nil {
		return nil, err
	}
	bufs := make([]*spanBuf, 0, clients+1)
	for _, c := range env.clients {
		c.spans = newSpanBuf()
		bufs = append(bufs, c.spans)
	}
	before, pmBefore := env.tb.Stats(), env.pool.Stats()
	restore = gcOff()
	traced := runLoop(env.clients, ph)
	restore()
	pm := env.pool.Stats().Sub(pmBefore)
	after := env.tb.Stats()
	rep.attempted += traced.ops
	rep.fail(traced.fails, "traced phase: %s", traced.problem)
	on := summarize(bufs)
	opLatencies(rep, on, traced.kinds)
	statsWindow(rep, []core.TableStats{before}, []core.TableStats{after}, traced.ops)
	pmLayer(rep, pm, traced.ops)
	tableShape(rep, after, after.Count)
	rep.set("epoch.pending_max", "count", float64(after.EpochPending))
	rep.set("workload.next_ns", "ns", meanNS(on.dur[spNext]))
	tracedMops, plainMops := float64(traced.ops)/traced.elapsed.Seconds(), float64(plain.ops)/plain.elapsed.Seconds()
	rep.set("trace.overhead_frac", "frac", 1-ratio(tracedMops, plainMops))
	fixed := make([]int64, len(env.clients))
	for i, c := range env.clients {
		fixed[i] = c.ops
	}
	want := env.audit(s.preload, rep)
	restartBuf := newSpanBuf()
	bufs = append(bufs, restartBuf)
	restartTable(env.pool, env.tb, want, s.reopens, restartBuf, rep)

	env = nil
	release()
	env, _, err = s.setup(cfg, false, rep)
	if err != nil {
		return nil, err
	}
	env.pool.SetModel(nil)
	offBufs := make([]*spanBuf, 0, clients)
	for _, c := range env.clients {
		c.spans = newSpanBuf()
		offBufs = append(offBufs, c.spans)
	}
	restore = gcOff()
	off := runLoop(env.clients, loopPhase{fixedOps: fixed})
	restore()
	rep.attempted += off.ops
	rep.fail(off.fails, "model-off replay: %s", off.problem)
	modeledNS(rep, on, summarize(offBufs))

	env = nil
	release()
	env, _, err = s.setup(cfg, true, rep)
	if err != nil {
		return nil, err
	}
	restore = gcOff()
	ref := runLoop(env.clients, ph)
	restore()
	rep.attempted += ref.ops
	rep.fail(ref.fails, "DRAM reference: %s", ref.problem)
	rep.set("ref.dram_map.throughput_mops", "Mops/s", float64(ref.ops)/ref.elapsed.Seconds()/1e6)

	summarize(bufs).setSpanMetrics(rep)
	return bufs, nil
}

// traceSvc is the traced run of service-var. The open loop gives the
// service-layer spans; the core-layer spans come from sequential replays of
// the same op stream straight into the shard tables, since the frontend's
// executors make those calls out of the benchmark's reach.
func traceSvc(s svcSpec, cfg runConfig, rep *report) ([]*spanBuf, error) {
	dur, windows := cfg.tracedPhase()

	env, _, err := s.setup(cfg, viaFrontend, rep)
	if err != nil {
		return nil, err
	}
	olBufs := []*spanBuf{newSpanBuf(), newSpanBuf()}
	arr := &rng{s: cfg.seed ^ 0x6172726976616c73}
	restore := s.nominalPhase(env, arr, rep)
	before, pmBefore := shardStats(env.svc), env.svc.PMStats()
	feBefore := env.fe.Metrics().Snapshot()
	ol := openLoop(env, s.nominalKops*1e3, dur, windows, arr, olBufs)
	restore()
	pm := env.svc.PMStats().Sub(pmBefore)
	after := shardStats(env.svc)
	s.account(rep, ol, "traced open loop")
	fe := env.fe.Metrics().Snapshot().Sub(feBefore)
	rep.set("service.submit_ns.p50", "ns", sortedQ(ol.submitNS, 0.50))
	rep.set("service.submit_ns.p99", "ns", sortedQ(ol.submitNS, 0.99))
	rep.set("service.complete_ns.p50", "ns", sortedQ(ol.completeNS, 0.50))
	rep.set("service.complete_ns.p99", "ns", sortedQ(ol.completeNS, 0.99))
	rep.set("service.batch_mean", "count", fe.Hists["service.batch.size"].Mean)
	rep.set("service.queue_depth_mean", "count", mean(ol.queueDepth))
	rep.set("service.shard_imbalance", "frac", env.fe.Imbalance())
	rep.set("workload.gen_lag_p99_us", "us", sortedQ(ol.lagNS, 0.99)/1e3)
	rep.set("epoch.pending_max", "count", float64(ol.pendingMax))
	statsWindow(rep, before, after, ol.completed)
	pmLayer(rep, pm, ol.completed)
	total := sumStats(after)
	tableShape(rep, total, total.Count)
	want := s.audit(env, rep)
	probe, probeVal := s.probe(env)
	env.close()
	restartBuf := newSpanBuf()
	s.restart(cfg, env.svc, want, probe, probeVal, restartBuf, rep)

	replay := func(model bool, traced bool, fixed []int64) (loopResult, *spanBuf, error) {
		env = nil
		release()
		e, _, err := s.setup(cfg, viaShards, rep)
		if err != nil {
			return loopResult{}, nil, err
		}
		if !model {
			for i := 0; i < e.svc.N(); i++ {
				e.svc.Pool(i).SetModel(nil)
			}
		}
		if traced {
			e.direct.spans = newSpanBuf()
		}
		ph := loopPhase{dur: dur, windows: windows, fixedOps: fixed}
		restore := gcOff()
		res := runLoop([]*client{e.direct}, ph)
		restore()
		rep.attempted += res.ops
		rep.fail(res.fails, "core replay: %s", res.problem)
		return res, e.direct.spans, nil
	}
	plain, _, err := replay(true, false, nil)
	if err != nil {
		return nil, err
	}
	traced, coreBuf, err := replay(true, true, nil)
	if err != nil {
		return nil, err
	}
	on := summarize([]*spanBuf{coreBuf})
	opLatencies(rep, on, traced.kinds)
	rep.set("workload.next_ns", "ns", meanNS(on.dur[spNext]))
	rep.set("trace.overhead_frac", "frac", 1-ratio(float64(traced.ops)/traced.elapsed.Seconds(), float64(plain.ops)/plain.elapsed.Seconds()))
	_, offBuf, err := replay(false, true, []int64{traced.ops})
	if err != nil {
		return nil, err
	}
	modeledNS(rep, on, summarize([]*spanBuf{offBuf}))

	env = nil
	release()
	env, _, err = s.setup(cfg, viaRefMap, rep)
	if err != nil {
		return nil, err
	}
	restore = gcOff()
	ref := runLoop([]*client{env.direct}, loopPhase{dur: dur, windows: windows})
	restore()
	rep.attempted += ref.ops
	rep.fail(ref.fails, "DRAM reference: %s", ref.problem)
	rep.set("ref.dram_map.throughput_mops", "Mops/s", float64(ref.ops)/ref.elapsed.Seconds()/1e6)

	bufs := append(olBufs, restartBuf, coreBuf)
	summarize(bufs).setSpanMetrics(rep)
	return bufs, nil
}
