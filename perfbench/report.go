package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one named measurement of a run: the raw samples and the value
// the benchmark reports for them.
type metric struct {
	name    string
	unit    string
	samples []float64
	// q is the quantile of the samples the metric reports: the median
	// unless the metric names another percentile (job_latency_p90_s).
	q float64
	// exercised is false for a per-layer metric the workload does not run;
	// it is emitted as 0 so every traced run carries the same names.
	exercised bool
}

// timing makes a metric reported as the median of its samples.
func timing(name, unit string, samples ...float64) metric {
	return metric{name: name, unit: unit, samples: samples, q: 0.5, exercised: true}
}

// value is the figure printed and emitted for the metric.
func (m metric) value() float64 {
	if !m.exercised || len(m.samples) == 0 {
		return 0
	}
	return quantile(m.samples, m.q)
}

// quantile returns the q-quantile of xs: the midpoint median for q = 0.5,
// the nearest-rank value otherwise.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if q == 0.5 {
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return s[min(max(i, 0), n-1)]
}

// highestPercentile is the highest whole percentile that has at least ten
// samples beyond it, or 0 when there are too few samples for any.
func highestPercentile(n int) int {
	if n <= 10 {
		return 0
	}
	return 100 * (n - 10) / n
}

// outcome is everything one workload run reports.
type outcome struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	// check is "passed", "failed" or "unchecked" (a seed without recorded
	// expectations: only the run's internal consistency was checked).
	check    string
	problems []string
	endToEnd []metric
	perLayer []metric
}

// fail records a failed correctness check as a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// verify compares the run's check values with the recorded ones and sets
// o.check. A nil want leaves the seed unchecked; every mismatch fails.
func (o *outcome) verify(got, want map[string]string) {
	if want == nil {
		o.check = "unchecked"
		return
	}
	o.check = "passed"
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			o.check = "failed"
			o.fail("check %s: got %q, recorded %q", k, got[k], want[k])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// correct reports whether every check of the run held.
func (o *outcome) correct() bool { return len(o.problems) == 0 }

// write prints the human-readable report followed by the one-line JSON
// result, which must stay the last line of standard output.
func (o *outcome) write(w io.Writer, traced bool, checks map[string]string) error {
	metrics := o.endToEnd
	if traced {
		metrics = o.perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", o.workload, o.seed, traced)
	fmt.Fprintf(w, "operations  attempted %d  failed %d\n", o.attempted, o.failed)
	fmt.Fprintf(w, "check  %s\n", o.check)
	for _, k := range sortedKeys(checks) {
		fmt.Fprintf(w, "  %-24s %s\n", k, checks[k])
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	fmt.Fprintf(w, "%-34s %-7s %16s %8s %16s %6s\n", "metric", "unit", "value", "pct", "at pct", "n")
	out := map[string]map[string]any{}
	for _, m := range metrics {
		out[m.name] = map[string]any{"value": m.value(), "unit": m.unit}
		if !m.exercised {
			fmt.Fprintf(w, "%-34s %-7s %16s\n", m.name, m.unit, "n/a")
			continue
		}
		pct, atPct := "-", "-"
		if p := highestPercentile(len(m.samples)); p > 0 {
			pct = fmt.Sprintf("p%d", p)
			atPct = fmt.Sprintf("%.6g", quantile(m.samples, float64(p)/100))
		}
		fmt.Fprintf(w, "%-34s %-7s %16.6g %8s %16s %6d\n", m.name, m.unit, m.value(), pct, atPct, len(m.samples))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.correct(),
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
