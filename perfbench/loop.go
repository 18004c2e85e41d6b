package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dash/internal/workload"
)

// u64Table is the uint64 API the closed loops drive. *core.Table and the
// DRAM reference map implement it.
type u64Table interface {
	Insert(key, value uint64) error
	Get(key uint64) (uint64, bool)
	Update(key, value uint64) (bool, error)
	Delete(key uint64) bool
}

// varTable is the []byte API the sequential replays drive. *core.Table,
// the shard router and the DRAM reference map implement it.
type varTable interface {
	InsertB(key, value []byte) error
	GetBAppend(dst, key []byte) ([]byte, bool)
	UpdateB(key, value []byte) (bool, error)
	DeleteB(key []byte) bool
}

// opTrace is a sampled op's span context; nil when the op is not traced.
type opTrace struct {
	buf *spanBuf
	req uint64
}

// begin returns the start time of a child span, 0 when untraced.
func (t *opTrace) begin() int64 {
	if t == nil {
		return 0
	}
	return now()
}

// end records the child span name that began at start.
func (t *opTrace) end(name spanName, start int64) {
	if t != nil {
		t.buf.add(t.req, name, start, now())
	}
}

// execFn applies one generated op and checks its answer; it returns a
// description of the failure, or "" when the op succeeded.
type execFn func(op workload.Op, tr *opTrace) string

// client is one load-generating goroutine of a closed loop.
type client struct {
	id     int
	stream *workload.Stream
	exec   execFn
	spans  *spanBuf // nil: untraced

	ops, fails int64
	kinds      [5]int64 // ops per workload.OpKind
	// insOK and delOK count acknowledged inserts and deletes since the
	// client was created (set-up included), for the lost-op audit.
	insOK, delOK int64
	problem      string
	lat          []uint32 // per-op latency, ns
	winLat       []int    // len(lat) at each window end
	winOps       []int64  // ops at each window end
	trace        opTrace
}

// loopPhase is one closed-loop measurement.
type loopPhase struct {
	dur      time.Duration // timed length, split into windows
	windows  int
	maxOps   int64   // per-client cap on a timed phase (pool budget); 0: none
	fixedOps []int64 // per-client op counts to run instead of a duration
	latCap   int     // per-client latency samples kept; 0: none
}

// loopResult aggregates a phase over its clients.
type loopResult struct {
	elapsed     time.Duration
	ops, fails  int64
	kinds       [5]int64
	problem     string
	winMops     []float64 // throughput per complete window, Mops/s
	winP50NS    []float64
	winP99NS    []float64
	windowCount int
}

// runLoop runs every client on its own goroutine until the phase ends and
// returns the aggregate. Clients keep their counters for the caller.
func runLoop(clients []*client, ph loopPhase) loopResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := now()
	for _, c := range clients {
		c.ops, c.fails, c.kinds, c.problem = 0, 0, [5]int64{}, ""
		c.lat, c.winLat, c.winOps = c.lat[:0], c.winLat[:0], c.winOps[:0]
		if ph.latCap > 0 && cap(c.lat) < ph.latCap {
			c.lat = make([]uint32, 0, ph.latCap)
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(ph, start, &stop)
		}(c)
	}
	wg.Wait()
	res := loopResult{elapsed: time.Duration(now() - start)}
	for _, c := range clients {
		res.ops += c.ops
		res.fails += c.fails
		for k := range c.kinds {
			res.kinds[k] += c.kinds[k]
		}
		if res.problem == "" {
			res.problem = c.problem
		}
	}
	if ph.fixedOps != nil {
		return res
	}
	nw := ph.windows
	for _, c := range clients {
		nw = min(nw, len(c.winLat))
	}
	res.windowCount = nw
	winSec := ph.dur.Seconds() / float64(ph.windows)
	var buf []uint32
	for w := 0; w < nw; w++ {
		buf = buf[:0]
		var ops int64
		for _, c := range clients {
			lo, olo := 0, int64(0)
			if w > 0 {
				lo, olo = c.winLat[w-1], c.winOps[w-1]
			}
			buf = append(buf, c.lat[lo:c.winLat[w]]...)
			ops += c.winOps[w] - olo
		}
		res.winMops = append(res.winMops, float64(ops)/winSec/1e6)
		if len(buf) > 0 {
			slices.Sort(buf)
			res.winP50NS = append(res.winP50NS, quantile(buf, 0.50))
			res.winP99NS = append(res.winP99NS, quantile(buf, 0.99))
		}
	}
	if nw == 0 {
		// The op cap ended the phase inside its first window: report the
		// phase as one window.
		buf = buf[:0]
		for _, c := range clients {
			buf = append(buf, c.lat...)
		}
		slices.Sort(buf)
		res.winMops = []float64{float64(res.ops) / res.elapsed.Seconds() / 1e6}
		res.winP50NS = []float64{quantile(buf, 0.50)}
		res.winP99NS = []float64{quantile(buf, 0.99)}
	}
	return res
}

func (c *client) run(ph loopPhase, start int64, stop *atomic.Bool) {
	timed := ph.fixedOps == nil
	limit := ph.maxOps
	if !timed {
		limit = ph.fixedOps[c.id]
	}
	win := int64(1)
	windowEnd := func(w int64) int64 { return start + int64(ph.dur)*w/int64(max(ph.windows, 1)) }
	nextWin := windowEnd(win)
	for {
		t0 := now()
		if timed {
			if t0 >= nextWin {
				c.winLat = append(c.winLat, len(c.lat))
				c.winOps = append(c.winOps, c.ops)
				if win == int64(ph.windows) {
					return
				}
				win++
				nextWin = windowEnd(win)
			}
			if stop.Load() {
				return
			}
		}
		if limit > 0 && c.ops >= limit {
			stop.Store(true)
			return
		}
		var tr *opTrace
		if c.spans != nil && c.ops%sampleEvery == 0 {
			tr = &c.trace
			tr.buf, tr.req = c.spans, uint64(c.id)<<48|uint64(c.ops)
		}
		op := c.stream.Next()
		t1 := now()
		if p := c.exec(op, tr); p != "" {
			c.fails++
			if c.problem == "" {
				c.problem = p
			}
		}
		t2 := now()
		if tr != nil {
			c.spans.add(tr.req, spNext, t0, t1)
			c.spans.add(tr.req, spBenchOp, t0, t2)
		}
		c.kinds[op.Kind]++
		c.ops++
		if len(c.lat) < cap(c.lat) {
			c.lat = append(c.lat, uint32(min(t2-t1, math.MaxUint32)))
		}
	}
}

// refMap is the DRAM ceiling: a lock-sharded Go map behind the same
// interfaces as the table, driven by the same loops and op streams.
type refMap struct {
	shards [256]refShard
}

type refShard struct {
	mu  sync.Mutex
	u   map[uint64]uint64
	b   map[string][]byte
	pad [64]byte
}

func newRefMap() *refMap {
	m := &refMap{}
	for i := range m.shards {
		m.shards[i].u = map[uint64]uint64{}
		m.shards[i].b = map[string][]byte{}
	}
	return m
}

func (m *refMap) shardU(k uint64) *refShard {
	return &m.shards[(k*0x9e3779b97f4a7c15)>>56]
}

func (m *refMap) shardB(k []byte) *refShard {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return &m.shards[h>>56]
}

func (m *refMap) Insert(k, v uint64) error {
	s := m.shardU(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.u[k]; ok {
		return errRefExists
	}
	s.u[k] = v
	return nil
}

func (m *refMap) Get(k uint64) (uint64, bool) {
	s := m.shardU(k)
	s.mu.Lock()
	v, ok := s.u[k]
	s.mu.Unlock()
	return v, ok
}

func (m *refMap) Update(k, v uint64) (bool, error) {
	s := m.shardU(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.u[k]; !ok {
		return false, nil
	}
	s.u[k] = v
	return true, nil
}

func (m *refMap) Delete(k uint64) bool {
	s := m.shardU(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.u[k]
	delete(s.u, k)
	return ok
}

func (m *refMap) InsertB(k, v []byte) error {
	s := m.shardB(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.b[string(k)]; ok {
		return errRefExists
	}
	s.b[string(k)] = slices.Clone(v)
	return nil
}

func (m *refMap) GetBAppend(dst, k []byte) ([]byte, bool) {
	s := m.shardB(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.b[string(k)]
	if !ok {
		return dst, false
	}
	return append(dst, v...), true
}

func (m *refMap) UpdateB(k, v []byte) (bool, error) {
	s := m.shardB(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.b[string(k)]; !ok {
		return false, nil
	}
	s.b[string(k)] = slices.Clone(v)
	return true, nil
}

func (m *refMap) DeleteB(k []byte) bool {
	s := m.shardB(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.b[string(k)]
	delete(s.b, string(k))
	return ok
}
