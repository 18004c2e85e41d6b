package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Spans are recorded from the benchmark's own files, around each call into
// a layer of the program. Every request has one root span (bench.op) and
// depth-one children; a layer's self time is its span minus the part of it
// its children cover. Spans stay in memory and are written out at the end.

// spanName indexes spanNames.
type spanName uint8

const (
	spBenchOp spanName = iota
	spNext
	spGet
	spInsert
	spUpdate
	spDelete
	spSubmit
	spComplete
	spOpen
	spFirstOp
	spRecoverAll
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.op", "workload.next", "core.get", "core.insert", "core.update",
	"core.delete", "service.submit", "service.complete", "core.open",
	"core.first_op", "core.recover_all",
}

// span is one timed interval; times are nanoseconds since the process
// clock base (now).
type span struct {
	req        uint64
	start, end int64
	name       spanName
}

// spanBuf is one goroutine's span store; spans beyond its capacity are
// not kept. A nil *spanBuf records nothing, which is how untraced runs
// skip the work.
type spanBuf struct {
	spans []span
}

const spansPerBuf = 1 << 20

func newSpanBuf() *spanBuf { return &spanBuf{spans: make([]span, 0, spansPerBuf)} }

func (b *spanBuf) add(req uint64, name spanName, start, end int64) {
	if b == nil || len(b.spans) == cap(b.spans) {
		return
	}
	b.spans = append(b.spans, span{req: req, start: start, end: end, name: name})
}

// sampleEvery picks which ops a traced closed loop records: one in 16
// keeps span memory small at millions of ops per second while leaving
// well over 10 samples beyond p999 for every op kind a workload runs.
const sampleEvery = 16

var clockBase = time.Now()

// now is the monotonic clock every timing in the benchmark reads.
func now() int64 { return int64(time.Since(clockBase)) }

// spanSummary holds per-name durations and self times over a set of spans.
type spanSummary struct {
	dur  [numSpanNames][]int64
	self [numSpanNames][]int64
}

// summarize groups spans by request and derives each span's self time:
// roots lose the time their children cover, children (leaves here) keep
// their whole duration.
func summarize(bufs []*spanBuf) *spanSummary {
	var all []span
	for _, b := range bufs {
		if b != nil {
			all = append(all, b.spans...)
		}
	}
	slices.SortFunc(all, func(a, b span) int {
		if a.req != b.req {
			if a.req < b.req {
				return -1
			}
			return 1
		}
		return int(a.name) - int(b.name)
	})
	s := &spanSummary{}
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].req == all[i].req {
			j++
		}
		var root *span
		var covered int64
		for k := i; k < j; k++ {
			sp := &all[k]
			d := sp.end - sp.start
			s.dur[sp.name] = append(s.dur[sp.name], d)
			if sp.name == spBenchOp {
				root = sp
				continue
			}
			s.self[sp.name] = append(s.self[sp.name], d)
			covered += d
		}
		if root != nil {
			self := root.end - root.start - covered
			if self < 0 {
				self = 0
			}
			s.self[spBenchOp] = append(s.self[spBenchOp], self)
		}
		i = j
	}
	for n := range s.dur {
		slices.Sort(s.dur[n])
	}
	return s
}

func meanNS(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t int64
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}

// setSpanMetrics reports each span name's mean self time and the median
// restart step times.
func (s *spanSummary) setSpanMetrics(rep *report) {
	for n := spanName(0); n < numSpanNames; n++ {
		rep.set("self_ns."+spanNames[n], "ns", meanNS(s.self[n]))
	}
	for _, n := range []spanName{spOpen, spFirstOp, spRecoverAll} {
		rep.set(spanNames[n]+"_ns", "ns", quantile(s.dur[n], 0.5))
	}
}

// maxSpansWritten bounds the trace file; the metrics use every span.
const maxSpansWritten = 200_000

// writeSpans writes the environment header and up to maxSpansWritten spans
// as JSON lines to dir/<workload>-seed<seed>.jsonl and returns the path.
func writeSpans(dir, workload string, seed uint64, header []string, bufs []*spanBuf) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, h := range header {
		if err := enc.Encode(map[string]string{"info": h}); err != nil {
			f.Close()
			return "", err
		}
	}
	written := 0
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, sp := range b.spans {
			if written == maxSpansWritten {
				break
			}
			rec := struct {
				Req   uint64 `json:"req"`
				Name  string `json:"name"`
				Start int64  `json:"start_ns"`
				End   int64  `json:"end_ns"`
			}{sp.req, spanNames[sp.name], sp.start, sp.end}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return "", err
			}
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
