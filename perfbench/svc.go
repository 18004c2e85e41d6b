package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"dash/internal/core"
	"dash/internal/pmem"
	"dash/internal/service"
	"dash/internal/workload"
)

// svcSpec is the open-loop workload through the sharded service tier.
type svcSpec struct {
	name    string
	why     string
	mix     workload.Mix
	theta   float64
	preload uint64
	shards  int
	batch   int
	warmup  int // pipelined ops through the frontend, part of set-up
	durOps  int // ops the durability pass pipelines

	// The offered rates and the latency limit are fixed numbers, measured
	// on a 2-CPU machine, so two commits are judged against the same load.
	nominalKops float64   // rate the latency metrics are taken at
	ladderKops  []float64 // ascending rates for max_rate_kops
	p99LimitUS  float64   // latency limit on each ladder rate's p99
	reopens     int       // crash-image reopens per run
	setups      int       // set-ups per run; setup_s is their median
}

var svcSpecDef = svcSpec{
	name: "service-var",
	why:  "service tier + record log: open loop 20 kops/s on 1 P (ladder 50-600 on 2, p99 limit 20 ms) via 2 shards, batch 16, 16-128 B Zipf 0.99 keys; predicted flat under inline-u64 path changes",
	mix: workload.Mix{Name: "service-var", Var: &workload.DefaultVarSpec,
		Percent: [5]int{opInsert: 15, opRead: 50, opUpdate: 20, opDelete: 15}},
	theta:       0.99,
	preload:     200_000,
	shards:      2,
	batch:       16,
	warmup:      20_000,
	durOps:      20_000,
	nominalKops: 20,
	ladderKops:  []float64{50, 100, 200, 300, 350, 400, 450, 500, 550, 600},
	p99LimitUS:  20000,
	reopens:     15,
	setups:      5,
}

// varOracle is the DRAM model of the service-var keyspace, advanced in
// submission order. One submitter and per-shard FIFO execution make every
// request's answer deterministic, so the oracle predicts each one exactly.
//
// Inserts re-insert the oldest key a delete removed (a fresh key when none
// is waiting), so the live set holds steady and the Zipf head stays live:
// without that, deletes would empty the hot keys within the first
// thousand ops and most reads and updates would miss.
type varOracle struct {
	spec     workload.VarSpec
	preload  uint64
	pre      []uint32          // salt of each preloaded key's value; 0: absent
	fresh    map[uint64]uint32 // the same for keys inserted by the stream
	reinsert []uint64          // deleted keys, oldest first
	salt     uint32
	live     int64
	bytes    int64 // user key+value bytes of the live records
	inserts  int64
	deletes  int64
}

// varPlan is one op as the oracle resolved it: the key it targets, the
// value salt written or expected, and whether the key is expected live.
type varPlan struct {
	kind  workload.OpKind
	key   uint64
	salt  uint32
	found bool
}

func newVarOracle(spec workload.VarSpec, preload uint64) *varOracle {
	o := &varOracle{spec: spec, preload: preload, pre: make([]uint32, preload), fresh: map[uint64]uint32{}, salt: 1}
	for k := uint64(0); k < preload; k++ {
		o.set(k, 1)
	}
	return o
}

func (o *varOracle) get(k uint64) uint32 {
	if k < o.preload {
		return o.pre[k]
	}
	return o.fresh[k]
}

func (o *varOracle) recBytes(k uint64, salt uint32) int64 {
	return int64(o.spec.KeyLen(k) + o.spec.ValLen(k, uint64(salt)))
}

// set makes k live with salt (0 deletes it), keeping the live tallies.
func (o *varOracle) set(k uint64, salt uint32) {
	if old := o.get(k); old != 0 {
		o.live--
		o.bytes -= o.recBytes(k, old)
	}
	if salt != 0 {
		o.live++
		o.bytes += o.recBytes(k, salt)
	}
	switch {
	case k < o.preload:
		o.pre[k] = salt
	case salt == 0:
		delete(o.fresh, k)
	default:
		o.fresh[k] = salt
	}
}

// plan resolves op against the model and advances it.
func (o *varOracle) plan(op workload.Op) varPlan {
	p := varPlan{kind: op.Kind, key: op.Key}
	switch op.Kind {
	case opInsert:
		if len(o.reinsert) > 0 {
			p.key = o.reinsert[0]
			o.reinsert = o.reinsert[1:]
		}
		o.salt++
		p.salt = o.salt
		o.set(p.key, p.salt)
		o.inserts++
	case opRead, opReadNeg:
		p.salt = o.get(p.key)
		p.found = p.salt != 0
	case opUpdate:
		if o.get(p.key) != 0 {
			o.salt++
			p.salt, p.found = o.salt, true
			o.set(p.key, p.salt)
		}
	case opDelete:
		if o.get(p.key) != 0 {
			p.found = true
			o.set(p.key, 0)
			o.reinsert = append(o.reinsert, p.key)
			o.deletes++
		}
	}
	return p
}

// key appends k's encoding.
func (o *varOracle) key(dst []byte, k uint64) []byte { return o.spec.AppendKey(dst, k) }

// value appends the value bytes of (k, salt): the spec's filler with the
// key in its first 8 bytes, so a value read under the wrong key shows.
func (o *varOracle) value(dst []byte, k uint64, salt uint32) []byte {
	n := len(dst)
	dst = o.spec.AppendValue(dst, k, uint64(salt))
	binary.LittleEndian.PutUint64(dst[n:], k)
	return dst
}

// checkResult compares a completed request with its plan; it returns a
// description of a wrong answer, or "".
func (o *varOracle) checkResult(p varPlan, found bool, val []byte, err error, scratch *[]byte) string {
	if err != nil {
		return fmt.Sprintf("%v %#x: %v", p.kind, p.key, err)
	}
	switch p.kind {
	case opInsert:
		return ""
	case opRead, opReadNeg:
		if found != p.found {
			return fmt.Sprintf("get %#x: found=%v, oracle says %v", p.key, found, p.found)
		}
		if found {
			*scratch = o.value((*scratch)[:0], p.key, p.salt)
			if !bytes.Equal(val, *scratch) {
				return fmt.Sprintf("get %#x: value differs from the last acknowledged write", p.key)
			}
		}
	default:
		if found != p.found {
			return fmt.Sprintf("%v %#x: found=%v, oracle says %v", p.kind, p.key, found, p.found)
		}
	}
	return ""
}

// shardRouter applies []byte ops straight to the shard tables, routed as
// the frontend routes them, for the sequential core replays.
type shardRouter struct{ s *service.Shards }

func (r shardRouter) t(k []byte) *core.Table            { return r.s.Table(r.s.RouteB(k)) }
func (r shardRouter) InsertB(k, v []byte) error         { return r.t(k).InsertB(k, v) }
func (r shardRouter) UpdateB(k, v []byte) (bool, error) { return r.t(k).UpdateB(k, v) }
func (r shardRouter) DeleteB(k []byte) bool             { return r.t(k).DeleteB(k) }
func (r shardRouter) GetBAppend(dst, k []byte) ([]byte, bool) {
	return r.t(k).GetBAppend(dst, k)
}

// varExec applies ops sequentially through tb, planning each against the
// oracle and checking its answer.
func varExec(tb varTable, o *varOracle, c *client) execFn {
	var kbuf, vbuf, gbuf, scratch []byte
	return func(op workload.Op, tr *opTrace) string {
		p := o.plan(op)
		kbuf = o.key(kbuf[:0], p.key)
		var found bool
		var err error
		var val []byte
		t := tr.begin()
		switch p.kind {
		case opInsert:
			vbuf = o.value(vbuf[:0], p.key, p.salt)
			t = tr.begin()
			err = tb.InsertB(kbuf, vbuf)
			tr.end(spInsert, t)
			if err == nil {
				c.insOK++
			}
		case opRead, opReadNeg:
			gbuf, found = tb.GetBAppend(gbuf[:0], kbuf)
			tr.end(spGet, t)
			val = gbuf
		case opUpdate:
			vbuf = o.value(vbuf[:0], p.key, p.salt)
			t = tr.begin()
			found, err = tb.UpdateB(kbuf, vbuf)
			tr.end(spUpdate, t)
		case opDelete:
			found = tb.DeleteB(kbuf)
			tr.end(spDelete, t)
			if found {
				c.delOK++
			}
		}
		return o.checkResult(p, found, val, err, &scratch)
	}
}

// svcMode selects what a service-var set-up builds.
type svcMode int

const (
	viaFrontend svcMode = iota // shards plus a batching frontend
	viaShards                  // shards driven directly, sequentially
	viaRefMap                  // the DRAM reference map
)

// svcEnv is one set-up instance of service-var.
type svcEnv struct {
	svc    *service.Shards
	fe     *service.Frontend
	oracle *varOracle
	stream *workload.Stream
	direct *client // sequential replay client (viaShards, viaRefMap)
}

// poolSize sizes each shard's pool for the preload, the warm-up and ops
// more ops. Records live half on each shard. Deletes and updates free
// their old blobs for reuse, so the log grows by the inserts that find no
// freed blob and the updates that outrun reclamation; the budget assumes
// every insert and a quarter of the updates take a fresh worst-case blob.
func (s svcSpec) poolSize(ops uint64) uint64 {
	v := s.mix.Var
	rec := uint64(16+v.MaxKeyLen+v.MaxValLen+15)&^15 + 64
	fresh := ops * uint64(4*s.mix.Percent[opInsert]+s.mix.Percent[opUpdate]) / 400
	records := (s.preload+uint64(s.warmup))*5/4 + fresh
	return records*rec/uint64(s.shards) + 16<<20
}

// schedule sets a run's phases: the timed budget at the nominal rate,
// then half a second per ladder rate.
func (s svcSpec) schedule(cfg runConfig) (nominal, rung time.Duration) {
	nominal, _ = cfg.timed()
	return nominal, 500 * time.Millisecond
}

// config is the service configuration of a run: its pools hold every op
// the schedule offers, and a traced run's phases offer fewer.
func (s svcSpec) config(cfg runConfig) service.Config {
	nominal, rung := s.schedule(cfg)
	ops := s.nominalKops * 1e3 * (nominalWarmup + nominal).Seconds()
	for _, k := range s.ladderKops {
		ops += k * 1e3 * rung.Seconds()
	}
	return service.Config{Shards: s.shards, PoolSize: s.poolSize(uint64(ops)), Seed: cfg.seed}
}

// preloadVar inserts the oracle's preload keys through tb from clients
// goroutines, uncharged.
func preloadVar(tb varTable, o *varOracle) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kb, vb []byte
			for k := uint64(w); k < o.preload; k += clients {
				kb = o.key(kb[:0], k)
				vb = o.value(vb[:0], k, 1)
				if err := tb.InsertB(kb, vb); err != nil {
					errs[w] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup builds service-var from scratch: generator, shards, uncharged
// preload, then the shared cost model and a charged warm-up that consumes
// the stream's first ops through the path mode selects.
func (s svcSpec) setup(cfg runConfig, mode svcMode, rep *report) (*svcEnv, time.Duration, error) {
	start := time.Now()
	gen, err := workload.NewGenerator(workload.Config{Keyspace: s.preload, Theta: s.theta, Mix: s.mix, Seed: cfg.seed})
	if err != nil {
		return nil, 0, err
	}
	env := &svcEnv{stream: gen.Stream(0), oracle: newVarOracle(*s.mix.Var, s.preload)}
	var target varTable
	if mode == viaRefMap {
		target = newRefMap()
	} else {
		env.svc, err = service.New(s.config(cfg))
		if err != nil {
			return nil, 0, err
		}
		target = shardRouter{env.svc}
	}
	if err := preloadVar(target, env.oracle); err != nil {
		return nil, 0, err
	}
	if env.svc != nil {
		m := pmem.DefaultOptane()
		for i := 0; i < env.svc.N(); i++ {
			env.svc.Pool(i).SetModel(m)
		}
	}
	if mode == viaFrontend {
		env.fe = service.NewFrontend(env.svc, s.batch)
		pipeline(env.fe, env.oracle, env.stream, s.warmup, rep)
	} else {
		env.direct = &client{stream: env.stream}
		env.direct.exec = varExec(target, env.oracle, env.direct)
		warm := runLoop([]*client{env.direct}, loopPhase{fixedOps: []int64{int64(s.warmup)}})
		rep.attempted += warm.ops
		rep.fail(warm.fails, "warm-up: %s", warm.problem)
	}
	return env, time.Since(start), nil
}

// close stops the frontend; the shards stay open.
func (e *svcEnv) close() {
	if e.fe != nil {
		e.fe.Close()
	}
}

// slot is one in-flight request with what the benchmark knows about it.
type slot struct {
	req        service.Request
	plan       varPlan
	kbuf, vbuf []byte
	due        int64 // when the open loop meant to send it
	begun      int64 // when the generator started on it
	submitted  int64 // when Submit returned
	seq        uint64
}

// fill builds the request for p.
func (sl *slot) fill(o *varOracle, p varPlan) {
	sl.plan = p
	sl.kbuf = o.key(sl.kbuf[:0], p.key)
	r := &sl.req
	r.KeyB = sl.kbuf
	switch p.kind {
	case opInsert:
		r.Op = service.OpInsert
		sl.vbuf = o.value(sl.vbuf[:0], p.key, p.salt)
	case opRead, opReadNeg:
		r.Op = service.OpGet
		sl.vbuf = sl.vbuf[:0]
	case opUpdate:
		r.Op = service.OpUpdate
		sl.vbuf = o.value(sl.vbuf[:0], p.key, p.salt)
	case opDelete:
		r.Op = service.OpDelete
	}
	r.ValueB = sl.vbuf
}

// finish waits for the request and checks its answer.
func (sl *slot) finish(o *varOracle, scratch *[]byte) string {
	res := sl.req.Wait()
	if sl.plan.kind == opRead && cap(res.ValueB) > cap(sl.vbuf) {
		sl.vbuf = res.ValueB[:0]
	}
	return o.checkResult(sl.plan, res.Found, res.ValueB, res.Err, scratch)
}

// pipeline drives n ops of stream through fe from the calling goroutine,
// keeping up to 64 requests in flight and checking every answer.
func pipeline(fe *service.Frontend, o *varOracle, stream *workload.Stream, n int, rep *report) {
	const window = 64
	slots := make([]slot, window)
	var scratch []byte
	for i := 0; i < n+window; i++ {
		sl := &slots[i%window]
		if i >= window {
			rep.attempted++
			if p := sl.finish(o, &scratch); p != "" {
				rep.fail(1, "pipelined op: %s", p)
			}
		}
		if i < n {
			sl.fill(o, o.plan(stream.Next()))
			fe.Submit(&sl.req)
		}
	}
}

// rng is a SplitMix64 stream for the arrival schedule.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// expGapNS draws an exponential inter-arrival gap for rate ops/s.
func (r *rng) expGapNS(rate float64) int64 {
	u := (float64(r.next()>>11) + 0.5) / (1 << 53)
	return int64(-math.Log(u) / rate * 1e9)
}

// openLoopReq marks open-loop request ids apart from the closed loops'
// (client<<48 | op) and the restarts' (1<<62 | reopen).
const openLoopReq = 1 << 60

// olResult is one open-loop phase.
type olResult struct {
	submitted, completed int64
	fails                int64
	problem              string
	start, lastDone      int64
	lat                  []uint32 // due to completion, ns, in due order
	winLat               []int    // len(lat) at each window end
	lagNS                []uint32 // generator start minus due time
	submitNS             []uint32
	completeNS           []uint32
	finalLagNS           int64
	queueDepth           []float64
	pendingMax           uint64
}

// achieved is the completion rate of the phase, ops/s.
func (r *olResult) achieved() float64 {
	return float64(r.completed) / (float64(r.lastDone-r.start) / 1e9)
}

// openLoop offers rate ops/s on a seeded exponential schedule for dur from
// one submitting goroutine while one completing goroutine waits for the
// requests in submission order. Latency runs from each request's due time,
// so a stall also charges the requests queued behind it.
func openLoop(env *svcEnv, rate float64, dur time.Duration, windows int, arr *rng, spans []*spanBuf) *olResult {
	const nslots = 4096
	slots := make([]slot, nslots)
	free := make(chan *slot, nslots)
	for i := range slots {
		free <- &slots[i]
	}
	sub := make(chan *slot, nslots)
	res := &olResult{}
	n := int(rate*dur.Seconds()) + 64
	res.lat = make([]uint32, 0, n)
	res.lagNS = make([]uint32, 0, n)
	res.submitNS = make([]uint32, 0, n)
	res.completeNS = make([]uint32, 0, n)
	var sb, cb *spanBuf
	if spans != nil {
		sb, cb = spans[0], spans[1]
	}
	start := now()
	res.start = start
	end := start + int64(dur)
	winNS := int64(dur) / int64(windows)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var scratch []byte
		nextWin := start + winNS
		for sl := range sub {
			p := sl.finish(env.oracle, &scratch)
			done := now()
			for sl.due >= nextWin {
				res.winLat = append(res.winLat, len(res.lat))
				nextWin += winNS
			}
			res.lat = append(res.lat, uint32(min(done-sl.due, math.MaxUint32)))
			res.completeNS = append(res.completeNS, uint32(min(done-sl.submitted, math.MaxUint32)))
			if cb != nil {
				cb.add(sl.seq, spComplete, sl.submitted, done)
				cb.add(sl.seq, spBenchOp, sl.begun, done)
			}
			res.completed++
			res.lastDone = done
			if p != "" {
				res.fails++
				if res.problem == "" {
					res.problem = p
				}
			}
			if res.completed%256 == 0 {
				for i := 0; env.svc != nil && i < env.svc.N(); i++ {
					res.pendingMax = max(res.pendingMax, env.svc.Epoch(i).Pending())
				}
				if spans != nil {
					res.queueDepth = append(res.queueDepth, float64(env.fe.Metrics().Snapshot().Gauges["service.queue.depth"]))
				}
			}
			free <- sl
		}
		res.winLat = append(res.winLat, len(res.lat))
	}()
	due := start
	var seq uint64
	for {
		due += arr.expGapNS(rate)
		if due >= end {
			break
		}
		sl := <-free
		waitUntil(due)
		seq++
		t0 := now()
		op := env.stream.Next()
		t1 := now()
		sl.fill(env.oracle, env.oracle.plan(op))
		sl.due, sl.begun, sl.seq = due, t0, openLoopReq|seq
		t2 := now()
		env.fe.Submit(&sl.req)
		t3 := now()
		sl.submitted = t3
		res.lagNS = append(res.lagNS, uint32(min(max(t0-due, 0), math.MaxUint32)))
		res.submitNS = append(res.submitNS, uint32(min(t3-t2, math.MaxUint32)))
		res.finalLagNS = t0 - due
		if sb != nil {
			sb.add(sl.seq, spNext, t0, t1)
			sb.add(sl.seq, spSubmit, t2, t3)
		}
		res.submitted++
		sub <- sl
	}
	close(sub)
	wg.Wait()
	return res
}

// waitUntil returns at the first clock reading at or after t. The Go
// timer overshoots by up to a millisecond and nanosleep by ~60 us, either
// of which would be charged to every request, so the generator sleeps only
// through long gaps and spins through the rest, yielding to the executors
// and the completer on every turn.
func waitUntil(t int64) {
	for {
		gap := t - now()
		switch {
		case gap <= 0:
			return
		case gap > 3_000_000:
			time.Sleep(time.Duration(gap - 2_000_000))
		default:
			runtime.Gosched()
		}
	}
}

// windowed reports the median over windows of the phase's p50 and p99
// latency, ns.
func (r *olResult) windowed() (p50, p99 float64) {
	var w50, w99 []float64
	lo := 0
	var buf []uint32
	for _, hi := range r.winLat {
		if hi-lo < 100 {
			lo = hi
			continue
		}
		buf = append(buf[:0], r.lat[lo:hi]...)
		slices.Sort(buf)
		w50 = append(w50, quantile(buf, 0.50))
		w99 = append(w99, quantile(buf, 0.99))
		lo = hi
	}
	return median(w50), median(w99)
}

func sortedQ(xs []uint32, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, q)
}

// setupRepeated sets service-var up s.setups times, reports setup_s as
// the median and returns the last instance.
func (s svcSpec) setupRepeated(cfg runConfig, rep *report) (*svcEnv, error) {
	var times []float64
	var env *svcEnv
	for i := 0; i < s.setups; i++ {
		if env != nil {
			env.close()
		}
		env = nil
		release()
		e, d, err := s.setup(cfg, viaFrontend, rep)
		if err != nil {
			return nil, err
		}
		env = e
		times = append(times, d.Seconds())
	}
	rep.set("setup_s", "s", median(times))
	var alloc, mirror uint64
	for i := 0; i < env.svc.N(); i++ {
		st := env.svc.Table(i).Stats()
		alloc += st.AllocatedBytes
		mirror += st.SegFilterBytes
	}
	rep.note("preload=%d records over %d shards, PM allocated %d B, filter mirror %d B, pool %d B per shard; nominal %.0f kops/s, ladder %v kops/s, p99 limit %.0f us",
		s.preload, s.shards, alloc, mirror, s.config(cfg).PoolSize, s.nominalKops, s.ladderKops, s.p99LimitUS)
	return env, nil
}

// shardStats returns every shard's table stats.
func shardStats(svc *service.Shards) []core.TableStats {
	out := make([]core.TableStats, svc.N())
	for i := range out {
		out[i] = svc.Table(i).Stats()
	}
	return out
}

// latencyWindow is the open loop's latency window. The phase's p50 and
// p99 are medians over windows of each window's quantiles, so one burst
// of outside work in a window moves one window, not the run.
const latencyWindow = 250 * time.Millisecond

// nominalWarmup is the open loop run at the nominal rate, checked but not
// measured, before the latency phase: the first windows after the switch
// to one P ran slower than the rest.
const nominalWarmup = 500 * time.Millisecond

// nominalPhase sets the process up for the open loop at the nominal rate
// and returns the function that undoes it: GC off, one P, and a warm-up.
// With two Ps the submitter spins on one CPU while the executors and the
// completer park and are woken on the other, and the kernel may queue a
// woken thread behind the spinning one for a whole scheduler tick (4 ms at
// HZ=250). Whether it does depends on where the threads happen to sit, so
// across runs the p99 flipped between the engine's tail (~20 us) and the
// tick. On one P every hand-off goes through the Go scheduler, no thread
// is woken, and the second CPU is left to the kernel, so the p99 is the
// program's. The ladder keeps every P: it measures capacity, and its p99
// limit is far above a tick.
func (s svcSpec) nominalPhase(env *svcEnv, arr *rng, rep *report) func() {
	restore := gcOff()
	prev := runtime.GOMAXPROCS(1)
	s.account(rep, openLoop(env, s.nominalKops*1e3, nominalWarmup, 1, arr, nil), "nominal warm-up")
	return func() {
		runtime.GOMAXPROCS(prev)
		restore()
	}
}

// rungWindow is the latency window of a ladder rate's shorter phase.
const rungWindow = 125 * time.Millisecond

// runSvc is the untraced run of service-var: latency at the nominal rate,
// the rate ladder, the audits, restart and durability.
func runSvc(s svcSpec, cfg runConfig, rep *report) error {
	base := heapBytes()
	env, err := s.setupRepeated(cfg, rep)
	if err != nil {
		return err
	}
	nomDur, rungDur := s.schedule(cfg)
	nomWindows := max(1, int(nomDur/latencyWindow))
	arr := &rng{s: cfg.seed ^ 0x6172726976616c73}
	restore := s.nominalPhase(env, arr, rep)
	before := env.svc.PMStats()
	nom := openLoop(env, s.nominalKops*1e3, nomDur, nomWindows, arr, nil)
	restore()
	s.account(rep, nom, "nominal rate")
	p50, p99 := nom.windowed()
	rep.set("throughput_mops", "Mops/s", nom.achieved()/1e6)
	rep.set("latency_p50_us", "us", p50/1e3)
	rep.set("latency_p99_us", "us", p99/1e3)
	completed := nom.completed
	rep.note("nominal phase: %d requests at %.0f kops/s offered in %.2fs, generator lag p99 %.1f us",
		nom.completed, s.nominalKops, nomDur.Seconds(), sortedQ(nom.lagNS, 0.99)/1e3)

	// The ladder follows, half a second per rate. Every rate runs; the
	// highest whose windowed p99 meets the limit with no backlog left at
	// its end counts, so one stall at a low rate does not end the search.
	var best float64
	var passed []string
	for _, kops := range s.ladderKops {
		restore := gcOff()
		r := openLoop(env, kops*1e3, rungDur, max(1, int(rungDur/rungWindow)), arr, nil)
		restore()
		s.account(rep, r, fmt.Sprintf("ladder %.0f kops/s", kops))
		completed += r.completed
		_, p99 := r.windowed()
		ok := r.fails == 0 && p99 <= s.p99LimitUS*1e3 && float64(r.finalLagNS) <= s.p99LimitUS*1e3
		passed = append(passed, fmt.Sprintf("%.0f:%s(p99 %.0fus)", kops, map[bool]string{true: "ok", false: "miss"}[ok], p99/1e3))
		if ok {
			best = r.achieved()
		}
	}
	rep.set("max_rate_kops", "kops/s", best/1e3)
	// PM cost per op over every rate the run offered. The fences counted
	// are the ones the engine asks for, issued or elided by a batch window:
	// the op stream fixes them, while how many the frontend elides depends
	// on how its batches happened to form (the traced run reports both).
	pm := env.svc.PMStats().Sub(before)
	pm.Fences += pm.FencesElided
	pmEndToEnd(rep, pm, completed)
	rep.note("ladder: %v", passed)

	want := s.audit(env, rep)
	probe, probeVal := s.probe(env)
	allocated := int64(0)
	for _, st := range shardStats(env.svc) {
		allocated += int64(st.AllocatedBytes)
	}
	rep.set("space_amp", "B/B", ratio(float64(allocated), float64(env.oracle.bytes)))
	env.close()
	svc := env.svc
	env = nil
	var arenas uint64
	for i := 0; i < svc.N(); i++ {
		arenas += svc.Pool(i).Size()
	}
	heap := heapBytes()
	rep.set("dram_bytes_per_record", "B/record", ratio(float64(heap)-float64(base)-float64(arenas), float64(want)))

	s.restart(cfg, svc, want, probe, probeVal, nil, rep)
	svc = nil
	release()
	return s.durable(cfg, rep)
}

// account adds an open-loop phase's requests to the tally.
func (s svcSpec) account(rep *report, r *olResult, what string) {
	rep.attempted += r.submitted
	rep.fail(r.fails, "%s: %s", what, r.problem)
	rep.fail(r.submitted-r.completed, "%s: %d requests never completed", what, r.submitted-r.completed)
}

// audit checks the record count summed over shards against preload +
// inserts - deletes, and returns it.
func (s svcSpec) audit(env *svcEnv, rep *report) int64 {
	o := env.oracle
	want := int64(s.preload) + o.inserts - o.deletes
	got := env.svc.Count()
	rep.attempted++
	rep.check(got == want && want == o.live, "lost-op audit: shard counts sum to %d, want preload %d + inserts %d - deletes %d = %d (oracle %d)",
		got, s.preload, o.inserts, o.deletes, want, o.live)
	return want
}

// probe returns a live key and its value bytes for the restart's first Get.
func (s svcSpec) probe(env *svcEnv) ([]byte, []byte) {
	o := env.oracle
	for k := uint64(0); k < s.preload; k++ {
		if salt := o.pre[k]; salt != 0 {
			return o.key(nil, k), o.value(nil, k, salt)
		}
	}
	return nil, nil
}

// restart measures service restart from the crash images of svc's shards
// (the tables are still open): service.Open plus the first Get served
// through a new frontend, then carried through every shard's RecoverAll.
func (s svcSpec) restart(cfg runConfig, svc *service.Shards, want int64, probe, probeVal []byte, spans *spanBuf, rep *report) {
	imgs := make([][]byte, svc.N())
	for i := range imgs {
		imgs[i] = liveImage(svc.Pool(i), svc.Table(i).Stats().AllocatedBytes)
	}
	size := svc.Pool(0).Size()
	var openMS, fullMS, segNS, logNS []float64
	for r := 0; r < s.reopens; r++ {
		m := pmem.DefaultOptane()
		pools := make([]*pmem.Pool, len(imgs))
		for i, img := range imgs {
			p, err := poolFromImage(img, size, m)
			if err != nil {
				rep.fail(1, "reopen %d: %v", r, err)
				return
			}
			pools[i] = p
		}
		req := uint64(1)<<62 | uint64(r)
		restore := gcOff()
		t0 := now()
		rs, err := service.Open(pools, s.config(cfg))
		t1 := now()
		rep.attempted++
		if !rep.check(err == nil, "reopen %d: %v", r, err) {
			restore()
			return
		}
		fe := service.NewFrontend(rs, s.batch)
		q := service.Request{Op: service.OpGet, KeyB: probe}
		fe.Submit(&q)
		res := q.Wait()
		t2 := now()
		for i := 0; i < rs.N(); i++ {
			rs.Table(i).RecoverAll()
		}
		t3 := now()
		restore()
		fe.Close()
		spans.add(req, spOpen, t0, t1)
		spans.add(req, spFirstOp, t1, t2)
		spans.add(req, spRecoverAll, t2, t3)
		spans.add(req, spBenchOp, t0, t3)
		rep.attempted += 2
		rep.check(res.Err == nil && res.Found && bytes.Equal(res.ValueB, probeVal), "reopen %d: first get: found=%v err=%v", r, res.Found, res.Err)
		n := rs.Count()
		rep.check(n == want, "reopen %d: count %d, want %d", r, n, want)
		var seg, lg int64
		for _, st := range shardStats(rs) {
			seg += st.RecoverySegmentsNS
			lg += st.RecoveryLogNS
		}
		openMS = append(openMS, float64(t2-t0)/1e6)
		fullMS = append(fullMS, float64(t3-t0)/1e6)
		segNS = append(segNS, float64(seg))
		logNS = append(logNS, float64(lg))
		rs, pools = nil, nil
		release()
	}
	rep.set("restart_open_ms", "ms", median(openMS))
	rep.set("restart_full_ms", "ms", median(fullMS))
	if spans == nil {
		return
	}
	rep.set("core.recovery.segments_ns", "ns", median(segNS))
	rep.set("core.recovery.log_ns", "ns", median(logNS))
	svc.Close()
	pools := make([]*pmem.Pool, svc.N())
	for i := range pools {
		p, err := poolFromImage(liveImage(svc.Pool(i), svc.Table(i).Stats().AllocatedBytes), size, pmem.DefaultOptane())
		if err != nil {
			rep.fail(1, "clean reopen: %v", err)
			return
		}
		pools[i] = p
	}
	t0 := now()
	cs, err := service.Open(pools, s.config(cfg))
	t1 := now()
	rep.attempted++
	if !rep.check(err == nil, "clean reopen: %v", err) {
		return
	}
	rep.set("core.clean_open_ns", "ns", float64(t1-t0))
	rep.attempted++
	n := cs.Count()
	rep.check(n == want, "clean reopen: count %d, want %d", n, want)
}

// durable is service-var's untimed durability pass: the seeded op stream
// pipelined through a frontend over crash-tracking pools, a simulated power
// loss of every shard, a reopen, and a byte-exact check of every key the
// oracle knows, deleted keys included.
func (s svcSpec) durable(cfg runConfig, rep *report) error {
	conf := s.config(cfg)
	conf.PoolSize = s.poolSize(uint64(s.durOps))
	svc, err := service.New(conf)
	if err != nil {
		return err
	}
	o := newVarOracle(*s.mix.Var, s.preload)
	if err := preloadVar(shardRouter{svc}, o); err != nil {
		return err
	}
	svc.Close()
	pools := make([]*pmem.Pool, svc.N())
	for i := range pools {
		if pools[i], err = trackedPool(svc.Pool(i)); err != nil {
			return err
		}
	}
	svc = nil
	release()
	ds, err := service.Open(pools, conf)
	if err != nil {
		return fmt.Errorf("durability open: %w", err)
	}
	for i := 0; i < ds.N(); i++ {
		ds.Table(i).RecoverAll()
	}
	gen, err := workload.NewGenerator(workload.Config{Keyspace: s.preload, Theta: s.theta, Mix: s.mix, Seed: cfg.seed})
	if err != nil {
		return err
	}
	fe := service.NewFrontend(ds, s.batch)
	pipeline(fe, o, gen.Stream(0), s.durOps, rep)
	fe.Close()
	for _, p := range pools {
		p.Crash()
	}
	rs, err := service.Open(pools, conf)
	rep.attempted++
	if !rep.check(err == nil, "durability reopen after crash: %v", err) {
		return nil
	}
	router := shardRouter{rs}
	var kb, vb, want []byte
	bad, checked := int64(0), int64(0)
	verify := func(k uint64, salt uint32) {
		checked++
		kb = o.key(kb[:0], k)
		var ok bool
		vb, ok = router.GetBAppend(vb[:0], kb)
		if salt == 0 {
			if ok {
				bad++
			}
			return
		}
		want = o.value(want[:0], k, salt)
		if !ok || !bytes.Equal(vb, want) {
			bad++
		}
	}
	for k, salt := range o.pre {
		verify(uint64(k), salt)
	}
	for k, salt := range o.fresh {
		verify(k, salt)
	}
	for _, k := range o.reinsert {
		if k >= s.preload {
			verify(k, 0)
		}
	}
	rep.attempted += checked
	rep.fail(bad, "durability: %d keys read back wrong after crash (lost or changed write, or a deleted key back)", bad)
	n := rs.Count()
	rep.attempted++
	rep.check(n == o.live, "durability: count after crash %d, want %d", n, o.live)
	rep.note("durability pass: %d ops pipelined through the frontend on crash-tracking pools, crash, reopen, %d keys verified", s.durOps, checked)
	return nil
}
