package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/obs"
)

const (
	// reproScale sizes the repro workload: one reproduction of every table
	// and figure takes about 5 s on a 2-core machine, so a run holds several
	// and set-up is measured more than once.
	reproScale = 0.05
	// reproLayoutSeed fixes the standard designs, as the paper's benchmark
	// circuits are fixed: training time follows the designs' data more than
	// any count shows, and varying them moved a pass by up to 15 % from one
	// seed to the next. The run's seed drives the attacks' randomness —
	// sampling, bootstraps, tree induction, validation splits and the
	// obfuscation noise — so seed 1 is exactly `experiments -run all` at
	// seed 1.
	reproLayoutSeed = 1
)

// reproCounters are the program's own counters whose exact values are part
// of the repro check: they pin how much attack work one reproduction does.
var reproCounters = []string{
	"attack.targets",
	"attack.pairs.scored",
	"ml.trees.trained",
	"model.artifacts.hit",
	"model.artifacts.miss",
}

// runRepro is the paper reproduction: every experiment of
// experiments.All() through experiments.RunExperiment on a fresh
// standard-tier suite with a cold model store. One pass generates the
// suite and prepares the clean instances of every layer the experiments
// attack (set-up), then runs the experiments (the measured phase).
//
// Every pass carries an obs.Context without a logger, because the
// program's counters are part of the correctness check; traced passes
// additionally time each experiment and read the spans the program records.
func runRepro(p params) (*outcome, map[string]string, error) {
	out := &outcome{workload: "repro", seed: p.seed}
	exps := experiments.All()
	prepLayers := reproLayers(exps)
	var wall, traced, setup []float64
	var first map[string]string
	l := layers{}
	err := passes(p, func(i int) error {
		settle()
		o := obs.New(obs.Options{Command: "perfbench"})
		isTraced := tracedPass(p, i)

		t0 := time.Now()
		designs, err := layout.GenerateSuiteObs(o, layout.SuiteConfig{Tier: layout.TierStandard, Scale: p.scale, Seed: reproLayoutSeed})
		if err != nil {
			return err
		}
		s := experiments.NewSuiteFromDesigns(designs, p.scale, p.seed)
		s.Obs = o
		t1 := time.Now()
		for _, layer := range prepLayers {
			if _, err := s.Instances(layer, 0); err != nil {
				return err
			}
		}
		prep := time.Since(t1)
		setup = append(setup, seconds(time.Since(t0)))

		var buf bytes.Buffer
		perExp := make([]time.Duration, len(exps))
		t2 := time.Now()
		for k, e := range exps {
			te := time.Now()
			err := experiments.RunExperiment(s, e, &buf)
			if isTraced {
				perExp[k] = time.Since(te)
			}
			out.attempted++
			if err != nil {
				out.fail("pass %d: %s: %v", i, e.ID, err)
			}
		}
		d := seconds(time.Since(t2))
		if isTraced {
			traced = append(traced, d)
		} else {
			wall = append(wall, d)
		}

		checks := map[string]string{"output.digest": maskedDigest(buf.String())}
		for _, c := range reproCounters {
			checks[c] = itoa(o.Metrics().Counter(c).Value())
		}
		if first == nil {
			first = checks
		} else if diff := diffChecks(checks, first); diff != "" {
			out.fail("pass %d differs from pass 0: %s", i, diff)
		}
		if isTraced {
			reproLayersOf(l, o, exps, perExp, prep)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out.verify(first, p.expect)
	// The user of this workload waits for the whole reproduction, so its
	// per-operation latency is the pass time.
	out.endToEnd = endToEnd(wall, setup, wall)
	out.perLayer = l.metrics(overheadFrac(wall, traced))
	return out, first, nil
}

// reproLayers lists the split layers whose clean instances the experiments
// use, from their declared attack-run dependencies.
func reproLayers(exps []experiments.Experiment) []int {
	seen := map[int]bool{}
	for _, e := range exps {
		if e.Deps == nil {
			continue
		}
		for _, r := range e.Deps() {
			if r.Noise == 0 {
				seen[r.Layer] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for layer := range seen {
		out = append(out, layer)
	}
	sort.Ints(out)
	return out
}

// reproLayersOf records one traced pass's per-layer figures from the spans
// and counters the program emitted and the benchmark's own timings.
func reproLayersOf(l layers, o *obs.Context, exps []experiments.Experiment, perExp []time.Duration, prep time.Duration) {
	t := sumSpans(o.SpansReport())
	m := o.Metrics()
	l.add("layout.generate_s", seconds(t.dur["layout.suite"]))
	l.add("split.challenge_s", seconds(t.dur["split.challenge"]))
	// Set-up prepares instances through Suite.Instances, which also cuts
	// the challenges; the challenge spans are taken out of its time.
	l.add("pairs.prep_s", seconds(prep-t.dur["split.challenge"]))
	l.add("pairs.scored", float64(m.Counter("attack.pairs.scored").Value()))
	l.add("model.train_s", seconds(t.dur["sampling"]+t.dur["train-level1"]+t.dur["train-level2"]))
	l.add("model.train_samples", float64(t.attr["sampling.samples"]))
	l.add("ml.trees", float64(m.Counter("ml.trees.trained").Value()))
	l.add("ml.train_l1_s", seconds(t.dur["train-level1"]))
	l.add("ml.train_l2_s", seconds(t.dur["train-level2"]))
	l.add("model.sample_s", seconds(t.dur["sampling"]))
	l.add("attack.fold_train_s", seconds(time.Duration(t.attr["target.train_ns"])))
	l.add("attack.fold_score_s", seconds(time.Duration(t.attr["target.test_ns"])))
	l.add("attack.pa_validation_s", seconds(t.dur["validation"]))
	for k, e := range exps {
		l.add("experiments."+e.ID+"_s", seconds(perExp[k]))
	}
	l.add("experiments.instance_cache_hits", float64(m.Cache("suite.instances").Hits()))
	addStore(l, m.Cache("model.artifacts"))
}

// addStore records the model store's hit and miss counts and hit share.
func addStore(l layers, c obs.CacheStats) {
	hits, misses := c.Hits(), c.Misses()
	l.add("model.store_hits", float64(hits))
	l.add("model.store_misses", float64(misses))
	if hits+misses > 0 {
		l.add("model.store_hit_frac", float64(hits)/float64(hits+misses))
	}
}

// maskedDigest hashes the rendered tables and figures with their wall-clock
// fields masked: the Runtime and ValTime rows keep only their label, a
// table whose header ends in a "runtime" column loses that column, and
// "finished in" lines are dropped. Runs of blanks collapse to one, since
// column padding depends on the masked widths.
func maskedDigest(out string) string {
	h := sha256.New()
	runtimeCol := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			runtimeCol = false
		case f[0] == "Runtime" || f[0] == "ValTime":
			f = f[:1]
		case f[len(f)-1] == "runtime":
			runtimeCol = true
		case runtimeCol:
			f = f[:len(f)-1]
		case strings.Contains(line, "finished in"):
			f = nil
		}
		fmt.Fprintln(h, strings.Join(f, " "))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// diffChecks names the first check whose value differs between two passes.
func diffChecks(got, want map[string]string) string {
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			return fmt.Sprintf("%s %q != %q", k, got[k], want[k])
		}
	}
	return ""
}
