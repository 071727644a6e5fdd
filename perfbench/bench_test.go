package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyScale sizes each workload for the smoke tests: the same code paths as
// the standard sizes, in seconds rather than minutes.
var tinyScale = map[string]float64{
	"repro":            0.02,
	"industrial-score": 0.04,
	"serve-mix":        0.03,
}

// result is the JSON object on the last line of a run's output.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

// runTiny runs a workload at its tiny scale for its minimum number of
// passes and returns the parsed last line, the full output and the run's
// check values.
func runTiny(t *testing.T, name string, traced bool, expect map[string]string) (result, string, map[string]string) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	out, checks, err := w.run(params{seed: 3, traced: traced, scale: tinyScale[name], expect: expect})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := out.write(&buf, traced, checks); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	if len(keys) != 4 {
		t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", sortedKeys(keys))
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	return r, buf.String(), checks
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkEmitted fails unless the run emitted exactly the declared metrics,
// each with its declared unit.
func checkEmitted(t *testing.T, r result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		raw, ok := r.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
			continue
		}
		var m struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(raw, &m); err != nil || m.Value == nil || m.Unit != unit {
			t.Errorf("metric %s = %s, want a value in %s", name, raw, unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
}

// TestSmoke runs every workload untraced and traced at a tiny scale and
// checks that each emits every metric BENCHMARK.json names, and that its
// operations all succeed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				r, out, _ := runTiny(t, w.name, traced, nil)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("traced=%v: correct %v, attempted %d, failed %d\n%s", traced, r.Correct, r.Attempted, r.Failed, out)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				checkEmitted(t, r, want)
				for name := range endToEnd {
					var m struct{ Value float64 }
					if !traced && (json.Unmarshal(r.Metrics[name], &m) != nil || m.Value <= 0) {
						t.Errorf("end-to-end metric %s = %s, want a positive value", name, r.Metrics[name])
					}
				}
			}
		})
	}
}

// TestRecordedChecks runs a workload against its own check values, then
// against a copy with one digest tampered: the first run passes, the second
// fails and counts the mismatch as a failed operation.
func TestRecordedChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			_, _, checks := runTiny(t, w.name, false, nil)
			r, out, _ := runTiny(t, w.name, false, checks)
			if !r.Correct || r.Failed != 0 || !strings.Contains(out, "check  passed") {
				t.Errorf("run against its own check values: correct %v, failed %d\n%s", r.Correct, r.Failed, out)
			}
			tampered := map[string]string{}
			for k, v := range checks {
				tampered[k] = v
				if strings.HasSuffix(k, "digest") {
					tampered[k] = "0" + v[1:]
				}
			}
			r, out, _ = runTiny(t, w.name, false, tampered)
			if r.Correct || r.Failed == 0 || !strings.Contains(out, "check  failed") {
				t.Errorf("run against a tampered digest: correct %v, failed %d\n%s", r.Correct, r.Failed, out)
			}
		})
	}
}

// TestUncheckedSeed pins that a seed without recorded values reports its
// check as unchecked, not as passed.
func TestUncheckedSeed(t *testing.T) {
	if recorded("repro", 3) != nil {
		t.Fatal("seed 3 has recorded values; the smoke tests rely on it being unchecked")
	}
	_, out, _ := runTiny(t, "repro", false, nil)
	if !strings.Contains(out, "check  unchecked") {
		t.Errorf("seed without recorded values not reported unchecked:\n%s", out)
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			if recorded(w.name, seed) == nil {
				t.Errorf("%s: no recorded check values for seed %d", w.name, seed)
			}
		}
	}
}

// TestIndustrialReplay pins that the traced industrial run's single-worker
// replay scores exactly the evaluation's pairs.
func TestIndustrialReplay(t *testing.T) {
	r, out, checks := runTiny(t, "industrial-score", true, nil)
	if !r.Correct {
		t.Fatalf("traced run failed its checks:\n%s", out)
	}
	var m struct{ Value float64 }
	if err := json.Unmarshal(r.Metrics["pairs.scored"], &m); err != nil {
		t.Fatal(err)
	}
	if got := itoa(int64(m.Value)); got != checks["pairs.scored"] || m.Value == 0 {
		t.Errorf("replay scored %s pairs, evaluation %s", got, checks["pairs.scored"])
	}
}

// TestMaskedDigest pins which rendered fields the repro digest ignores.
func TestMaskedDigest(t *testing.T) {
	a := "Table IV\nconfig  acc   runtime\nML-9    1.0%  1.2s\n\nRuntime  3s   4s\nValTime  1.0s\nAvg  5\n"
	b := "Table IV\nconfig  acc      runtime\nML-9    1.0%     17ms\n\nRuntime  30s  4ms\nValTime  9.9s\nAvg  5\n"
	if maskedDigest(a) != maskedDigest(b) {
		t.Error("digest depends on a wall-clock field")
	}
	if maskedDigest(a) == maskedDigest(strings.Replace(a, "1.0%", "2.0%", 1)) {
		t.Error("digest ignores a result field")
	}
}

// TestPercentiles pins the report's median and percentile rules.
func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	for n, want := range map[int]int{5: 0, 10: 0, 20: 50, 100: 90, 300: 96} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}
