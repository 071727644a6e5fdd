// Command perfbench is the repository benchmark. It runs one workload per
// process, checks the workload's outputs against recorded digests and
// exact counts, and prints every metric by name and unit, the last line of
// standard output being one JSON object:
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (wall time, set-up
// time, peak RSS, per-operation latency); with --trace 1 the run also
// times each layer's public calls and prints the per-layer metrics. The
// workloads and the layer-to-end-to-end map are described in README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// params are the inputs of one workload run.
type params struct {
	seed   int64
	budget time.Duration
	traced bool
	scale  float64
	expect map[string]string // recorded check values; nil = unchecked
}

// workload is one benchmark workload: a closed loop over the program's
// public API at a fixed input size.
type workload struct {
	name  string
	scale float64
	run   func(p params) (*outcome, map[string]string, error)
}

var workloads = []workload{
	{name: "repro", scale: reproScale, run: runRepro},
	{name: "industrial-score", scale: industrialScale, run: runIndustrial},
	{name: "serve-mix", scale: serveScale, run: runServeMix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: repro, industrial-score or serve-mix")
	seed := flag.Int64("seed", 1, "seed of the attacks' randomness (repro, industrial-score) or of the job order (serve-mix)")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload repro|industrial-score|serve-mix, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	p := params{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		scale:  w.scale,
		expect: recorded(w.name, *seed),
	}
	out, checks, err := w.run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := out.write(os.Stdout, p.traced, checks); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// passes runs pass until the budget is spent: at least one pass (two when
// traced, one of each kind), and another only while the previous pass still
// fits in what remains, so a run overshoots its budget by at most rounding.
func passes(p params, pass func(i int) error) error {
	least := 1
	if p.traced {
		least = 2
	}
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= least && time.Since(start)+last > p.budget {
			return nil
		}
		t := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// tracedPass reports whether pass i of a traced run is a traced one:
// traced runs alternate untraced and traced passes, so the tracing
// overhead is measured within one process.
func tracedPass(p params, i int) bool { return p.traced && i%2 == 1 }

// overheadFrac is obs.overhead_frac: the traced passes' median wall time
// over the untraced passes', minus one.
func overheadFrac(untraced, traced []float64) metric {
	m := timing("obs.overhead_frac", "ratio")
	if len(untraced) > 0 && len(traced) > 0 {
		m.samples = []float64{quantile(traced, 0.5)/quantile(untraced, 0.5) - 1}
	}
	return m
}

// endToEnd builds the end-to-end metrics every workload reports.
func endToEnd(wall, setup, latency []float64) []metric {
	p90 := timing("job_latency_p90_s", "s", latency...)
	p90.q = 0.9
	return []metric{
		timing("wall_s", "s", wall...),
		timing("setup_s", "s", setup...),
		timing("peak_rss_mb", "MB", float64(obs.PeakRSS())/(1<<20)),
		timing("job_latency_p50_s", "s", latency...),
		p90,
	}
}

// perLayerSpec lists every per-layer metric in report order. Each traced
// run emits all of them; a layer its workload does not exercise reads 0
// and prints as n/a.
var perLayerSpec = []struct{ name, unit string }{
	{"layout.generate_s", "s"},
	{"split.challenge_s", "s"},
	{"pairs.prep_s", "s"},
	{"pairs.enumerate_s", "s"},
	{"features.extract_s", "s"},
	{"ml.infer_s", "s"},
	{"ml.infer_rows_per_s", "1/s"},
	{"pairs.retain_s", "s"},
	{"pairs.scored", "count"},
	{"pairs.batches", "count"},
	{"pairs.regions", "count"},
	{"pairs.retained", "count"},
	{"pairs.retained_frac", "ratio"},
	{"ml.rows_per_batch", "rows"},
	{"attack.score_s", "s"},
	{"attack.pairs_per_s", "1/s"},
	{"attack.evaluate_s", "s"},
	{"model.train_s", "s"},
	{"model.train_samples", "count"},
	{"ml.trees", "count"},
	{"ml.train_l1_s", "s"},
	{"ml.train_l2_s", "s"},
	{"model.sample_s", "s"},
	{"attack.fold_train_s", "s"},
	{"attack.fold_score_s", "s"},
	{"attack.pa_validation_s", "s"},
	{"experiments.table1_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.table4_s", "s"},
	{"experiments.table5_s", "s"},
	{"experiments.table6_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.instance_cache_hits", "count"},
	{"model.store_hits", "count"},
	{"model.store_misses", "count"},
	{"model.store_hit_frac", "ratio"},
	{"attack.job_train_s", "s"},
	{"attack.job_score_s", "s"},
	{"serve.queue_wait_p50_s", "s"},
	{"serve.run_p50_s", "s"},
	{"serve.overhead_p50_s", "s"},
	{"serve.first_latency_p50_s", "s"},
	{"serve.repeat_latency_p50_s", "s"},
	{"serve.jobs_done", "count"},
	{"serve.jobs_failed", "count"},
	{"serve.refused", "count"},
	{"obs.overhead_frac", "ratio"},
}

// layers collects a traced run's per-layer samples by metric name.
type layers map[string][]float64

// add appends one sample to the named metric.
func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

// metrics lays the collected samples out in perLayerSpec order; names the
// workload never sampled are marked unexercised. The overhead metric is
// passed in whole because it is computed across passes.
func (l layers) metrics(overhead metric) []metric {
	out := make([]metric, 0, len(perLayerSpec))
	for _, s := range perLayerSpec {
		if s.name == overhead.name {
			out = append(out, overhead)
			continue
		}
		m := timing(s.name, s.unit, l[s.name]...)
		m.exercised = len(m.samples) > 0
		out = append(out, m)
	}
	return out
}

// settle returns the previous pass's garbage to the operating system before
// the next pass starts, so every pass begins from the memory state of a
// fresh process and peak RSS is that of one pass, not of several
// overlapping ones.
func settle() { debug.FreeOSMemory() }

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// spanTotals sums, per span name, the durations and the integer attributes
// of every span in the trees the program recorded on an obs context.
type spanTotals struct {
	dur  map[string]time.Duration
	attr map[string]int64 // keyed "<span>.<attr>"
}

func sumSpans(roots []*obs.SpanReport) spanTotals {
	t := spanTotals{dur: map[string]time.Duration{}, attr: map[string]int64{}}
	var walk func(s *obs.SpanReport)
	walk = func(s *obs.SpanReport) {
		t.dur[s.Name] += time.Duration(s.DurNS)
		for k, v := range s.Attrs {
			switch n := v.(type) {
			case int:
				t.attr[s.Name+"."+k] += int64(n)
			case int64:
				t.attr[s.Name+"."+k] += n
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return t
}
