// Package attack implements the paper's contribution: the machine-learning
// attack on split manufacturing. It generates balanced training samples
// from v-pin pairs, trains a Bagging classifier under leave-one-out
// cross-validation, scores all candidate pairs of a held-out design into
// per-v-pin Lists of Candidates (LoC), and layers on the paper's
// refinements — neighborhood-restricted sampling for scalability (Imp),
// two-level pruning, top-layer direction limits ("Y"), threshold-controlled
// LoC sizes, and the validation-based proximity attack.
package attack

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pairs"
)

// Options are a configuration's training options, declared once in
// model.TrainOptions and embedded in Config.
type Options = model.TrainOptions

// Config selects one of the paper's model configurations: its Options plus
// the fields training never reads.
type Config struct {
	Options
	// Ranking enables the DL-perspective list-wise ranking head: each scored
	// v-pin's candidate list is softmax-normalised in place (pairs.Ranked).
	// Rankings, CCR and accuracy-at-K are unchanged; score-scale consumers
	// see a per-list probability distribution instead of raw outputs.
	Ranking bool
	// Seed is the root of all randomness of a run. Every random decision —
	// training-set sampling, tree induction, level-2 negative draws,
	// proximity validation splits — draws from an independent stream
	// derived from Seed and the unit's coordinates via rng.Derive, so
	// results depend only on Seed, never on Workers or scheduling.
	Seed int64
	// Workers bounds the goroutines of every parallel stage (zero or
	// negative selects GOMAXPROCS). Results are bit-identical at any count.
	Workers int
	// Obs, when non-nil, receives logs, spans and metrics from every stage
	// of the run; nil disables instrumentation at no cost.
	Obs *obs.Context
	// Models, when non-nil, caches trained artifacts by spec content hash:
	// repeated folds (threshold sweeps, config variants sharing a level-1
	// model) become cache hits instead of retrainings. A nil store trains
	// every target fresh. Results are bit-identical either way.
	Models *model.Store
}

// TrainOptions returns the configuration's training options.
func (c Config) TrainOptions() Options { return c.Options }

// foldSpec builds the model spec of leave-one-out fold target — training
// on every other instance with this configuration's options, seeded for the
// fold — and the fold's neighborhood radius (-1 without the Imp
// improvement). span, when non-nil, records the radius and is the parent
// the training stage's progress spans nest under.
func (c Config) foldSpec(insts []*Instance, target int, span *obs.Span) (model.Spec, float64) {
	trainInsts := others(insts, target)
	radiusNorm := -1.0
	if c.Neighborhood {
		radiusNorm = pairs.NeighborRadiusNorm(trainInsts, c.NeighborQuantile)
		span.SetAttr("radius_norm", radiusNorm)
	}
	spec := model.NewSpec(c.Options, c.Seed, target, trainInsts, radiusNorm)
	spec.Workers = c.Workers
	spec.Obs = c.Obs
	spec.Span = span
	return spec, radiusNorm
}

func (c Config) withDefaults() Config {
	c.Options = c.WithDefaults()
	return c
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("attack: config without name")
	}
	for _, f := range c.Features {
		if f < 0 || f >= features.NumAll {
			return fmt.Errorf("attack: config %s: feature index %d out of range", c.Name, f)
		}
	}
	if _, err := model.FamilyByName(c.Family); err != nil {
		return fmt.Errorf("attack: config %s: %w", c.Name, err)
	}
	if c.MaxLoCCount < 0 {
		return fmt.Errorf("attack: config %s: MaxLoCCount %d must not be negative", c.Name, c.MaxLoCCount)
	}
	if c.ShardVpins < 0 {
		return fmt.Errorf("attack: config %s: ShardVpins %d must not be negative", c.Name, c.ShardVpins)
	}
	return nil
}

// retainCap is the per-v-pin candidate-list bound of this configuration for
// a design with n v-pins: the fractional LoCCap, tightened by the absolute
// MaxLoCCount when set.
func (c Config) retainCap(n int) int {
	capPer := pairs.LoCCap(n, c.MaxLoCFrac)
	if c.MaxLoCCount > 0 && c.MaxLoCCount < capPer {
		capPer = c.MaxLoCCount
	}
	return capPer
}

// ML9 is the baseline configuration: the first nine features, no
// scalability improvement ("ML" in the paper's predecessor [18]).
func ML9() Config {
	return Config{Options: Options{Name: "ML-9", Features: features.Set9()}}
}

// Imp9 is ML9 plus the neighborhood scalability improvement.
func Imp9() Config {
	return Config{Options: Options{Name: "Imp-9", Features: features.Set9(), Neighborhood: true}}
}

// Imp7 removes the two least important features from Imp9 ("ML-Imp" in
// [18]).
func Imp7() Config {
	return Config{Options: Options{Name: "Imp-7", Features: features.Set7(), Neighborhood: true}}
}

// Imp11 uses all eleven features, including the congestion measurements.
func Imp11() Config {
	return Config{Options: Options{Name: "Imp-11", Features: features.Set11(), Neighborhood: true}}
}

// WithY returns the "Y" variant of a configuration: DiffVpinY limited to
// zero, for attacks on the highest via layer.
func WithY(c Config) Config {
	c.Name += "Y"
	c.LimitDiffVpinY = true
	return c
}

// WithTwoLevel returns the two-level-pruning variant of a configuration.
func WithTwoLevel(c Config) Config {
	c.TwoLevel = true
	return c
}

// WithBase returns c with a different Bagging base classifier and ensemble
// size (0 = Weka default for the kind).
func WithBase(c Config, kind ml.TreeKind, trees int) Config {
	c.BaseKind = kind
	c.NumTrees = trees
	return c
}

// WithFamily returns c trained with the named learner family (see
// model.Families for the registered names).
func WithFamily(c Config, family string) Config {
	c.Family = family
	return c
}

// WithRanking returns c with the list-wise ranking head enabled.
func WithRanking(c Config) Config {
	c.Ranking = true
	return c
}

// DLMLP is the DL-perspective configuration (Li et al., DAC'19/TCAD'20
// recast onto this engine): the full feature set including the
// routing-hint block, neighborhood sampling, and the MLP learner family.
func DLMLP() Config {
	return Config{Options: Options{
		Name:         "DL-MLP",
		Features:     features.Set15(),
		Neighborhood: true,
		Family:       model.FamilyMLP,
	}}
}

// DLMLPRank is DLMLP with the list-wise ranking head.
func DLMLPRank() Config {
	c := WithRanking(DLMLP())
	c.Name = "DL-MLP-rank"
	return c
}

// StandardConfigs returns the four headline configurations of the paper's
// experiments in presentation order.
func StandardConfigs() []Config {
	return []Config{ML9(), Imp9(), Imp7(), Imp11()}
}

// ConfigByName resolves a named configuration preset by its report name
// ("ML-9", "Imp-11", "Imp-7Y", "DL-MLP", ...), covering StandardConfigs,
// their "Y" variants, and the DL-perspective configurations. Commands and
// the job server accept these names as config presets.
func ConfigByName(name string) (Config, bool) {
	for _, c := range ConfigPresets() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// ConfigPresets lists every named configuration preset ConfigByName
// resolves, in presentation order. The serve layer's GET /configs endpoint
// reports these names.
func ConfigPresets() []Config {
	presets := append(StandardConfigs(), StandardConfigsY()...)
	return append(presets, DLMLP(), DLMLPRank())
}

// StandardConfigsY returns the four "Y" variants evaluated at split layer 8.
func StandardConfigsY() []Config {
	return []Config{WithY(ML9()), WithY(Imp9()), WithY(Imp7()), WithY(Imp11())}
}
