package experiments

import (
	"context"

	"repro/internal/attack"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/sweep"
)

// RunSpec names one leave-one-out attack run an experiment depends on: a
// configuration at a (split layer, noise) coordinate. Specs are the bridge
// between the experiment registry and the sweep work-unit layer: each spec
// expands into one unit per suite design (fold).
type RunSpec struct {
	Config attack.Config
	Layer  int
	Noise  float64
}

// Named experiment configurations beyond the attack package's presets,
// shared by the renderers, their Deps and benchgen.

// Imp7RandomTree is Imp-7 on RandomTree base classifiers (Table II).
func Imp7RandomTree() attack.Config {
	c := attack.WithBase(attack.Imp7(), ml.RandomTree, 0)
	c.Name = "Imp-7-RandomTree"
	return c
}

// Imp11TwoLevel is Imp-11 with two-level pruning (Table III).
func Imp11TwoLevel() attack.Config {
	c := attack.WithTwoLevel(attack.Imp11())
	c.Name = "Imp-11-2L"
	return c
}

// Imp11Logistic is Imp-11 on the logistic family (ext-classifiers).
func Imp11Logistic() attack.Config {
	c := attack.WithFamily(attack.Imp11(), model.FamilyLogistic)
	c.Name = "Imp-11-logistic"
	return c
}

// Imp11RandomForest is Imp-11 on RandomTree base classifiers
// (ext-classifiers).
func Imp11RandomForest() attack.Config {
	c := attack.WithBase(attack.Imp11(), ml.RandomTree, 0)
	c.Name = "Imp-11-RandomForest"
	return c
}

// Deps enumerations per experiment. Each mirrors exactly the Run/RunNoisy
// calls its renderer makes (see tables.go, figures.go, extensions.go), so a
// sharded plan pre-computes precisely the folds the merge run will load.

func depsTableI() []RunSpec {
	return crossLayers(attack.StandardConfigs(), tableLayers)
}

func depsTableII() []RunSpec {
	return crossLayers([]attack.Config{Imp7RandomTree(), attack.Imp7()}, []int{8, 6})
}

func depsTableIII() []RunSpec {
	return crossLayers([]attack.Config{Imp11TwoLevel(), attack.Imp11()}, []int{8})
}

func depsTableIV() []RunSpec {
	var out []RunSpec
	for _, layer := range tableLayers {
		out = append(out, crossLayers(tableIVConfigs(layer), []int{layer})...)
	}
	return out
}

// depsNoise covers Table VI and Fig. 10: Imp-11 with and without Gaussian
// y-noise obfuscation at the two lower split layers.
func depsNoise() []RunSpec {
	var out []RunSpec
	for _, layer := range []int{6, 4} {
		for _, sd := range []float64{0, 0.01, 0.02} {
			out = append(out, RunSpec{Config: attack.Imp11(), Layer: layer, Noise: sd})
		}
	}
	return out
}

// depsExtClassifiers covers the classifier bake-off. Every classifier is a
// registered learner family, so all three are content-addressable and
// checkpoint as plan units.
func depsExtClassifiers() []RunSpec {
	return crossLayers(classifierConfigs(), []int{8, 6})
}

// depsExtDL covers the DL-perspective comparison: Bagging vs the MLP family
// vs the MLP with the list-wise ranking head, at the top split layer.
func depsExtDL() []RunSpec {
	return crossLayers(dlConfigs(), []int{8})
}

func depsExtDefense() []RunSpec {
	// Only the undefended baseline runs against the suite's own challenges;
	// the defense variants mutate layouts out-of-suite and cannot be
	// checkpointed as units.
	return crossLayers([]attack.Config{attack.Imp11()}, []int{6})
}

func depsExtRecovery() []RunSpec {
	return crossLayers([]attack.Config{attack.WithY(attack.Imp9())}, []int{8})
}

// crossLayers expands configs × layers into clean (noise-0) run specs.
func crossLayers(configs []attack.Config, layers []int) []RunSpec {
	out := make([]RunSpec, 0, len(configs)*len(layers))
	for _, layer := range layers {
		for _, cfg := range configs {
			out = append(out, RunSpec{Config: cfg, Layer: layer})
		}
	}
	return out
}

// PlanRuns expands run specs into the suite's work units: one unit per
// (spec × fold), deduplicated across specs by options hash and coordinate,
// the key of the suite's run cache (experiments share runs — Tables IV and
// V and Fig. 9 all consume the same sweeps). Every configuration is
// content-addressable — learner families serialize their identity into
// OptionsHash — so every spec plans. Enumeration is deterministic: same
// suite, same specs, same plan.
func (s *Suite) PlanRuns(runs []RunSpec) []sweep.Task {
	var units []sweep.Task
	seen := map[runKey]bool{}
	for _, r := range runs {
		pcfg := s.Prepare(r.Config)
		key := runKey{pcfg.OptionsHash(), coord{r.Layer, r.Noise}}
		if seen[key] {
			continue
		}
		seen[key] = true
		for fold := range s.Designs {
			u := sweep.NewUnit(s.provenance(), pcfg, r.Layer, r.Noise, fold, s.Designs[fold].Name)
			units = append(units, sweep.Task{Unit: u, Config: pcfg})
		}
	}
	return units
}

// Plan enumerates the work units of a set of experiments by concatenating
// their Deps and expanding with PlanRuns. Experiments without Deps (pure
// feature figures, out-of-suite defense variants) contribute nothing: their
// rendering work always happens in the merge process.
func (s *Suite) Plan(exps []Experiment) []sweep.Task {
	var runs []RunSpec
	for _, e := range exps {
		if e.Deps != nil {
			runs = append(runs, e.Deps()...)
		}
	}
	return s.PlanRuns(runs)
}

// RunPlan executes the units of the plan that the suite's Shard owns,
// checkpointing every completed fold (see sweep.RunOwned). It is the shard
// worker's entry point: enumerate (Plan), filter by ownership,
// compute-or-skip each unit, and exit — rendering happens later, in a merge
// run that loads the union of all shards' partials. Requires a Checkpoint.
func (s *Suite) RunPlan(units []sweep.Task) (sweep.Stats, error) {
	return sweep.RunOwned(context.Background(), s.Obs, s.Checkpoint, s.Shard, s.Workers, units,
		func(u sweep.Unit) ([]*attack.Instance, error) { return s.Instances(u.Layer, u.Noise) })
}
