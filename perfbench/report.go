package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload run's outcome: the op tally (attempted,
// failed), the metrics, and the environment and reasoning lines printed
// ahead of the result.
type report struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	order     []string
	info      []string
}

const maxProblems = 20

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}}
}

// set records a metric. A non-finite value (an empty denominator) is
// reported as 0 and noted, so the result line stays valid JSON.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("metric %s was not finite; reported as 0", name)
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts n failed operations and keeps the first descriptions.
func (r *report) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check fails one operation when ok is false; it returns ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.fail(1, format, args...)
	}
	return ok
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// write prints the human-readable lines and then the result object as the
// last line.
func (r *report) write(w io.Writer) error {
	for _, l := range r.info {
		fmt.Fprintf(w, "# %s: %s\n", r.workload, l)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s: FAIL %s\n", r.workload, p)
	}
	fmt.Fprintf(w, "# %s: failed_ops_frac %g (%d failed of %d attempted)\n", r.workload, ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	names := slices.Clone(r.order)
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%s %-34s %16.6f %s\n", r.workload, n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// quantile returns the q-quantile of sorted by linear interpolation
// between the closest ranks; 0 for an empty slice.
func quantile[T uint32 | int64 | float64](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return float64(sorted[n-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
