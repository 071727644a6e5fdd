// Perf-baseline gate: `benchgen -check` reruns the scoring and training
// measurements and compares them against the committed BENCH_scoring.json /
// BENCH_train.json baselines.
//
// The gate is designed to be meaningful across machines. Two kinds of
// fields are checked:
//
//   - Exact fields (pair/batch/row counts, sample/tree counts, artifact
//     bytes) are deterministic functions of (scale, seed) — the engine's
//     bit-identity guarantee — and must match the baseline exactly on any
//     hardware. A mismatch means behavior changed, not that a machine is
//     slow.
//   - Ratio fields (batch-vs-scalar speedup, mallocs per pair, cold-train
//     vs warm-load speedup) compare two measurements taken on the same
//     machine in the same process, so they transfer across hardware. Each
//     must stay within the tolerance of its baseline value (speedups may
//     drop to baseline*(1-tol); allocation rates may grow to
//     baseline*(1+tol)).
//
// Absolute wall-clock numbers in the baselines (pairs/sec, ns) are recorded
// for the perf trajectory but never gated on.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/obs"
)

// checker accumulates gate results and prints one line per check.
type checker struct {
	checks     int
	violations []string
}

// exact gates a deterministic field on equality.
func (c *checker) exact(name string, base, cur int64) {
	c.checks++
	if base == cur {
		fmt.Printf("  ok    %-44s %d (exact)\n", name, cur)
		return
	}
	v := fmt.Sprintf("%s: got %d, baseline %d (must match exactly)", name, cur, base)
	c.violations = append(c.violations, v)
	fmt.Printf("  FAIL  %-44s %d, baseline %d\n", name, cur, base)
}

// exactStr gates a deterministic string field (design names, evaluation
// digests) on equality.
func (c *checker) exactStr(name string, base, cur string) {
	c.checks++
	if base == cur {
		fmt.Printf("  ok    %-44s %.24s (exact)\n", name, cur)
		return
	}
	v := fmt.Sprintf("%s: got %q, baseline %q (must match exactly)", name, cur, base)
	c.violations = append(c.violations, v)
	fmt.Printf("  FAIL  %-44s %q, baseline %q\n", name, cur, base)
}

// floor gates a same-machine ratio against its allowed minimum
// base*(1-tol).
func (c *checker) floor(name string, base, cur, tol float64) {
	c.checks++
	limit := base * (1 - tol)
	if cur >= limit {
		fmt.Printf("  ok    %-44s %.4g (baseline %.4g, floor %.4g)\n", name, cur, base, limit)
		return
	}
	v := fmt.Sprintf("%s: %.4g below floor %.4g (baseline %.4g, tolerance %.0f%%)",
		name, cur, limit, base, tol*100)
	c.violations = append(c.violations, v)
	fmt.Printf("  FAIL  %-44s %.4g below floor %.4g (baseline %.4g)\n", name, cur, limit, base)
}

// ceiling gates a same-machine ratio against its allowed maximum
// base*(1+tol).
func (c *checker) ceiling(name string, base, cur, tol float64) {
	c.checks++
	limit := base * (1 + tol)
	if cur <= limit {
		fmt.Printf("  ok    %-44s %.4g (baseline %.4g, ceiling %.4g)\n", name, cur, base, limit)
		return
	}
	v := fmt.Sprintf("%s: %.4g above ceiling %.4g (baseline %.4g, tolerance %.0f%%)",
		name, cur, limit, base, tol*100)
	c.violations = append(c.violations, v)
	fmt.Printf("  FAIL  %-44s %.4g above ceiling %.4g (baseline %.4g)\n", name, cur, limit, base)
}

func loadBaseline(path string, doc any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchgen -check: %w", err)
	}
	if err := json.Unmarshal(b, doc); err != nil {
		return fmt.Errorf("benchgen -check: %s: %w", path, err)
	}
	return nil
}

// runCheck loads both baselines, reruns their measurements at the
// baselines' own (scale, seed), gates every field, and returns an error
// listing the violations, if any.
func runCheck(o *obs.Context, workers int, scoringPath, trainPath string, tol float64) error {
	if tol <= 0 || tol >= 1 {
		return fmt.Errorf("benchgen -check: -tolerance %g out of range (0, 1)", tol)
	}
	chk := &checker{}

	var scoringBase scoringDoc
	if err := loadBaseline(scoringPath, &scoringBase); err != nil {
		return err
	}
	suite, err := experiments.NewSuiteTier(o, layout.TierStandard, scoringBase.Scale, scoringBase.Seed, workers)
	if err != nil {
		return err
	}
	fmt.Printf("checking %s (scale %g, seed %d, tolerance %.0f%%)\n",
		scoringPath, scoringBase.Scale, scoringBase.Seed, tol*100)
	cur, err := measureScoring(suite)
	if err != nil {
		return err
	}
	chk.exact("instance_prep.designs", int64(scoringBase.InstancePrep.Designs), int64(cur.InstancePrep.Designs))
	checkConfigs(chk, "scoring", configNames(scoringBase.Configs), configNames(cur.Configs))
	for i, base := range scoringBase.Configs {
		if i >= len(cur.Configs) || cur.Configs[i].Config != base.Config {
			continue
		}
		got := cur.Configs[i]
		pfx := "scoring." + base.Config + "."
		chk.exact(pfx+"pairs", base.Pairs, got.Pairs)
		chk.exact(pfx+"batches", base.Batches, got.Batches)
		chk.exact(pfx+"batch_rows", base.BatchRows, got.BatchRows)
		chk.floor(pfx+"speedup", base.Speedup, got.Speedup, tol)
		chk.ceiling(pfx+"scalar_mallocs_per_pair", base.ScalarMallocsPerPair, got.ScalarMallocsPerPair, tol)
		chk.ceiling(pfx+"batch_mallocs_per_pair", base.BatchMallocsPerPair, got.BatchMallocsPerPair, tol)
	}

	var trainBase trainDoc
	if err := loadBaseline(trainPath, &trainBase); err != nil {
		return err
	}
	// Both baselines are normally measured on one suite, which then serves
	// the training stage's instances from its cache.
	if trainBase.Scale != suite.Scale || trainBase.Seed != suite.Seed {
		if suite, err = experiments.NewSuiteTier(o, layout.TierStandard, trainBase.Scale, trainBase.Seed, workers); err != nil {
			return err
		}
	}
	fmt.Printf("checking %s (scale %g, seed %d, tolerance %.0f%%)\n",
		trainPath, trainBase.Scale, trainBase.Seed, tol*100)
	curTrain, err := measureTrain(suite)
	if err != nil {
		return err
	}
	checkConfigs(chk, "train", trainConfigNames(trainBase.Configs), trainConfigNames(curTrain.Configs))
	for i, base := range trainBase.Configs {
		if i >= len(curTrain.Configs) || curTrain.Configs[i].Config != base.Config {
			continue
		}
		got := curTrain.Configs[i]
		pfx := "train." + base.Config + "."
		chk.exact(pfx+"samples", int64(base.Samples), int64(got.Samples))
		chk.exact(pfx+"trees", int64(base.Trees), int64(got.Trees))
		chk.exact(pfx+"artifact_bytes", int64(base.ArtifactBytes), int64(got.ArtifactBytes))
		chk.floor(pfx+"warm_load_speedup", base.Speedup, got.Speedup, tol)
	}

	if err := checkIndustrial(chk, o, workers, scoringBase.Industrial, trainBase.Industrial, tol); err != nil {
		return err
	}

	if len(chk.violations) > 0 {
		fmt.Printf("\nperf gate: %d of %d checks FAILED\n", len(chk.violations), chk.checks)
		return fmt.Errorf("benchgen -check: %d regression(s):\n  %s",
			len(chk.violations), strings.Join(chk.violations, "\n  "))
	}
	fmt.Printf("\nperf gate: all %d checks passed\n", chk.checks)
	return nil
}

// checkIndustrial reruns the industrial-tier measurement once and gates
// both baselines' industrial sections against it: the evaluation digest and
// every count exactly (cross-machine bit-identity), the allocation rates
// and peak heap by ceiling (the tier's memory envelope). Baselines written
// before the tier existed carry no industrial section and skip the stage.
func checkIndustrial(chk *checker, o *obs.Context, workers int,
	scoringBase *industrialScoringEntry, trainBase *industrialTrainEntry, tol float64) error {

	if scoringBase == nil && trainBase == nil {
		return nil
	}
	scale, seed := 0.0, int64(0)
	if scoringBase != nil {
		scale, seed = scoringBase.Scale, scoringBase.Seed
	} else {
		scale, seed = trainBase.Scale, trainBase.Seed
	}
	// The allocation rates scale with the worker count (per-worker arenas
	// and heaps amortize over a fixed v-pin count), so the measurement
	// reruns at the worker count the baseline recorded — the exact fields
	// are worker-invariant either way (pinned by the shard-invariance
	// tests), and the ceilings stay comparable on any runner.
	if scoringBase != nil && scoringBase.Workers > 0 {
		if workers != scoringBase.Workers {
			fmt.Printf("industrial stage measures at the baseline's recorded -workers %d\n", scoringBase.Workers)
		}
		workers = scoringBase.Workers
	}
	fmt.Printf("checking industrial tier (scale %g, seed %d; single fold, takes a few minutes)\n", scale, seed)
	curScoring, curTrain, err := measureIndustrial(o, workers, scale, seed)
	if err != nil {
		return err
	}
	if scoringBase != nil {
		chk.exactStr("industrial.design", scoringBase.Design, curScoring.Design)
		chk.exact("industrial.cells", int64(scoringBase.Cells), int64(curScoring.Cells))
		chk.exact("industrial.vpins", int64(scoringBase.VPins), int64(curScoring.VPins))
		chk.exactStr("industrial.eval_digest", scoringBase.EvalDigest, curScoring.EvalDigest)
		chk.exact("industrial.pairs", scoringBase.Pairs, curScoring.Pairs)
		chk.exact("industrial.batches", scoringBase.Batches, curScoring.Batches)
		chk.exact("industrial.batch_rows", scoringBase.BatchRows, curScoring.BatchRows)
		chk.exact("industrial.regions", int64(scoringBase.Regions), int64(curScoring.Regions))
		chk.exact("industrial.retained", scoringBase.Retained, curScoring.Retained)
		chk.ceiling("industrial.mallocs_per_vpin", scoringBase.MallocsPerVpin, curScoring.MallocsPerVpin, tol)
		chk.ceiling("industrial.alloc_bytes_per_pair", scoringBase.AllocBytesPerPair, curScoring.AllocBytesPerPair, tol)
		chk.ceiling("industrial.peak_heap_bytes",
			float64(scoringBase.PeakHeapBytes), float64(curScoring.PeakHeapBytes), tol)
	}
	if trainBase != nil {
		chk.exact("industrial.samples", int64(trainBase.Samples), int64(curTrain.Samples))
		chk.exact("industrial.trees", int64(trainBase.Trees), int64(curTrain.Trees))
		chk.exact("industrial.artifact_bytes", int64(trainBase.ArtifactBytes), int64(curTrain.ArtifactBytes))
	}
	return nil
}

// checkConfigs gates the config lists matching by name and order.
func checkConfigs(chk *checker, kind string, base, cur []string) {
	chk.checks++
	if fmt.Sprint(base) == fmt.Sprint(cur) {
		fmt.Printf("  ok    %-44s %v\n", kind+".configs", cur)
		return
	}
	v := fmt.Sprintf("%s.configs: measured %v, baseline %v", kind, cur, base)
	chk.violations = append(chk.violations, v)
	fmt.Printf("  FAIL  %-44s %v, baseline %v\n", kind+".configs", cur, base)
}

func configNames(entries []scoringBenchEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Config
	}
	return out
}

func trainConfigNames(entries []trainBenchEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Config
	}
	return out
}
