package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync/atomic"
	"testing"

	"dash/internal/core"
	"dash/internal/pmem"
	"dash/internal/workload"
)

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny shrinks the workloads so every code path runs in seconds.
func tinyWorkloads() []workloadDef {
	ing := ingestSpec
	ing.preload, ing.warmup, ing.durOps, ing.setups, ing.reopens, ing.topUpGrid = 4096, 1000, 2000, 2, 2, 8192
	look := lookupSpec
	look.preload, look.warmup, look.durOps, look.setups, look.reopens = 4096, 1000, 2000, 2, 2
	svc := svcSpecDef
	svc.preload, svc.warmup, svc.durOps, svc.setups, svc.reopens = 2000, 500, 1000, 2, 2
	svc.nominalKops, svc.ladderKops = 2, []float64{2, 4}
	return []workloadDef{
		{ing.name, ing.why,
			func(c runConfig, r *report) error { return runU64(ing, c, r) },
			func(c runConfig, r *report) ([]*spanBuf, error) { return traceU64(ing, c, r) }},
		{look.name, look.why,
			func(c runConfig, r *report) error { return runU64(look, c, r) },
			func(c runConfig, r *report) ([]*spanBuf, error) { return traceU64(look, c, r) }},
		{svc.name, svc.why,
			func(c runConfig, r *report) error { return runSvc(svc, c, r) },
			func(c runConfig, r *report) ([]*spanBuf, error) { return traceSvc(svc, c, r) }},
	}
}

// TestEveryNameReported runs every workload, untraced and traced, and
// checks that each reports every metric BENCHMARK.json names, with its
// unit, and that the names in the file are the ones the code knows.
func TestEveryNameReported(t *testing.T) {
	b := readBenchmarkFile(t)
	var wnames []string
	for _, w := range b.Workloads {
		wnames = append(wnames, w.Name)
	}
	var defined []string
	for i, w := range workloads {
		defined = append(defined, w.name)
		if i < len(b.Workloads) && b.Workloads[i].Why != w.why {
			t.Errorf("%s: BENCHMARK.json gives the reason %q, benchmark prints %q", w.name, b.Workloads[i].Why, w.why)
		}
	}
	if !slices.Equal(wnames, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", wnames, defined)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Fatalf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per_layer[%d] = %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}

	outDir := t.TempDir()
	for i, w := range tinyWorkloads() {
		if w.name != wnames[i] {
			t.Fatalf("tiny workload %d is %s, want %s", i, w.name, wnames[i])
		}
		for _, traced := range []bool{false, true} {
			rep := runOne(w, runConfig{seed: 5, seconds: 1, trace: traced, outDir: outDir})
			if !rep.correct() {
				t.Fatalf("%s trace=%v: %d of %d ops failed: %v", w.name, traced, rep.failed, rep.attempted, rep.problems)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", w.name, traced, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestSameSeedSameRun checks that a seed fixes the inputs: one goroutine
// driving the same seed twice issues the identical op sequence and moves
// the identical number of PM lines, on the inline and the []byte paths.
func TestSameSeedSameRun(t *testing.T) {
	mixed := workload.Mix{Name: "mixed", Percent: [5]int{opInsert: 40, opRead: 40, opReadNeg: 5, opUpdate: 15}}
	const preload, ops = 4096, 30_000
	runU := func(seed uint64) ([]workload.Op, pmem.StatsSnapshot) {
		pool, err := pmem.NewPool(pmem.Options{Size: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := core.Create(pool, core.Options{Seed: seed | 1})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < preload; k++ {
			if err := tb.Insert(k, u64Value(k, 1)); err != nil {
				t.Fatal(err)
			}
		}
		gen, err := workload.NewGenerator(workload.Config{Keyspace: preload, Mix: mixed, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return recordOps(t, pool, gen.Stream(0), ops, func(c *client) execFn { return u64Exec(tb, c) })
	}
	runV := func(seed uint64) ([]workload.Op, pmem.StatsSnapshot) {
		pool, err := pmem.NewPool(pmem.Options{Size: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := core.Create(pool, core.Options{Seed: seed | 1})
		if err != nil {
			t.Fatal(err)
		}
		o := newVarOracle(*svcSpecDef.mix.Var, preload)
		var kb, vb []byte
		for k := uint64(0); k < preload; k++ {
			if err := tb.InsertB(o.key(kb[:0], k), o.value(vb[:0], k, 1)); err != nil {
				t.Fatal(err)
			}
		}
		gen, err := workload.NewGenerator(workload.Config{Keyspace: preload, Theta: 0.99, Mix: svcSpecDef.mix, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return recordOps(t, pool, gen.Stream(0), ops, func(c *client) execFn { return varExec(tb, o, c) })
	}
	for name, run := range map[string]func(uint64) ([]workload.Op, pmem.StatsSnapshot){"u64": runU, "var": runV} {
		ops1, pm1 := run(11)
		ops2, pm2 := run(11)
		if !slices.Equal(ops1, ops2) {
			t.Errorf("%s: same seed gave different op streams", name)
		}
		if pm1 != pm2 {
			t.Errorf("%s: same seed gave different PM traffic: %+v vs %+v", name, pm1, pm2)
		}
		if pm1.WriteLines == 0 || pm1.ReadLines == 0 {
			t.Errorf("%s: no PM traffic recorded: %+v", name, pm1)
		}
		ops3, _ := run(12)
		if slices.Equal(ops1, ops3) {
			t.Errorf("%s: different seeds gave the same op stream", name)
		}
	}
}

// recordOps runs n ops of stream through one client built by mk, checking
// every answer, and returns the ops and the PM traffic.
func recordOps(t *testing.T, pool *pmem.Pool, stream *workload.Stream, n int64, mk func(*client) execFn) ([]workload.Op, pmem.StatsSnapshot) {
	t.Helper()
	c := &client{stream: stream}
	exec := mk(c)
	var seen []workload.Op
	c.exec = func(op workload.Op, tr *opTrace) string {
		seen = append(seen, op)
		return exec(op, tr)
	}
	before := pool.Stats()
	res := runLoop([]*client{c}, loopPhase{fixedOps: []int64{n}})
	if res.fails != 0 {
		t.Fatalf("%d ops failed: %s", res.fails, res.problem)
	}
	return seen, pool.Stats().Sub(before)
}

// dropOneInsert acknowledges its dropAt'th insert without applying it.
type dropOneInsert struct {
	*core.Table
	n      atomic.Int64
	dropAt int64
}

func (d *dropOneInsert) Insert(k, v uint64) error {
	if d.n.Add(1) == d.dropAt {
		return nil
	}
	return d.Table.Insert(k, v)
}

// TestAuditCatchesDroppedInsert checks that the lost-op audit fails when
// one acknowledged insert never reached the table, and passes otherwise.
func TestAuditCatchesDroppedInsert(t *testing.T) {
	s := ingestSpec
	s.preload, s.warmup = 4096, 1000
	for _, drop := range []bool{false, true} {
		rep := newReport(s.name)
		env, _, err := s.setup(runConfig{seed: 3, seconds: 1}, false, rep)
		if err != nil {
			t.Fatal(err)
		}
		var target u64Table = env.tb
		if drop {
			target = &dropOneInsert{Table: env.tb, dropAt: 700}
		}
		for _, c := range env.clients {
			c.exec = u64Exec(target, c)
		}
		runLoop(env.clients, loopPhase{fixedOps: []int64{1000, 1000}})
		before := rep.failed
		env.audit(s.preload, rep)
		if got := rep.failed - before; (got == 1) != drop {
			t.Errorf("drop=%v: audit failed %d times: %v", drop, got, rep.problems)
		}
	}
}
