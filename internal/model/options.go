// Package model owns the attack's train stage: it turns a training Spec —
// the held-out fold's training designs, the attack configuration's training
// options, and the seed — into an Artifact holding the compiled flat-arena
// ensembles plus metadata, with a canonical content hash per Spec, a
// versioned binary codec for artifacts, and a Store that makes repeated
// folds and sweeps cache hits (in-memory LRU plus an optional on-disk
// directory). The attack engine consumes Artifacts through the pairs
// scoring backends; training here is bit-identical to training in-process
// at any worker count because every random stream is derived from
// (Seed, unit, Fold, ...) exactly as the engine always did.
package model

import (
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/pairs"
)

// TrainOptions are the options of an attack configuration: everything that
// influences the trained model's bits, plus the unhashed presentation field
// (Name) and execution fields (ScalarScoring, ShardVpins). attack.Config
// embeds this struct as attack.Options, so the options are declared once.
type TrainOptions struct {
	// Name labels the configuration in reports, logs and artifact metadata
	// ("ML-9", "Imp-11Y", ...). It is excluded from spec hashes.
	Name string
	// Features are the feature indices trees may split on.
	Features []int
	// Neighborhood enables the Imp scalability improvement (§III-D):
	// training samples and tested pairs are restricted to a radius derived
	// from the training designs' matched-pair ManhattanVpin distribution.
	Neighborhood bool
	// NeighborQuantile is the CDF cut defining the neighborhood radius;
	// zero selects the paper's 0.90.
	NeighborQuantile float64
	// LimitDiffVpinY enables the "Y" refinement (§III-G): only pairs with
	// DiffVpinY = 0 are trained on and tested (meaningful at split layer 8).
	LimitDiffVpinY bool
	// TwoLevel enables two-level pruning (§III-E): the artifact carries a
	// second ensemble trained on level-1 survivors.
	TwoLevel bool
	// BaseKind is the Bagging base classifier: REPTree in the paper's final
	// models, RandomTree in its predecessor [18].
	BaseKind ml.TreeKind
	// NumTrees is the ensemble size; zero selects the Weka default for the
	// base kind.
	NumTrees int
	// MaxLoCFrac bounds each retained per-v-pin candidate list as a fraction
	// of the design's v-pins (zero selects 0.15); metrics are exact for LoC
	// fractions up to it. It influences training only under TwoLevel (the
	// lists level 2 draws negatives from) and is hashed only then.
	MaxLoCFrac float64
	// MaxLoCCount, when positive, also caps each retained list at an
	// absolute length, keeping industrial-scale memory proportional to the
	// v-pin count; metrics and Evaluation.Digest stay exact within the cap.
	// Like MaxLoCFrac it is hashed only under TwoLevel, and only when set.
	MaxLoCCount int
	// TrainCap bounds the number of training samples (0 = unlimited); a
	// larger set is replaced by a balanced random subsample.
	TrainCap int
	// Family selects the registered learner family ("" = FamilyBagging,
	// the paper's ensemble). Every family hashes, caches, serializes, and
	// checkpoints identically; see Family and the registry in family.go.
	Family string
	// MLPHidden, MLPEpochs, and MLPRate configure the mlp family's network
	// (zero selects its defaults, resolved by WithDefaults). Other families
	// ignore and never hash them.
	MLPHidden int
	MLPEpochs int
	MLPRate   float64
	// ScalarScoring scores through the trained Bagging's per-pair Prob (the
	// correctness oracle) instead of the compiled ml.Ensemble batch path.
	// Results are bit-identical, so it is excluded from spec hashes.
	ScalarScoring bool
	// ShardVpins is the v-pin count of one spatial region of the streamed
	// candidate scoring (0 = automatic). Results are bit-identical for every
	// value, so it is excluded from spec hashes.
	ShardVpins int
}

// WithDefaults resolves the zero-value conveniences the field docs name.
func (o TrainOptions) WithDefaults() TrainOptions {
	if o.NeighborQuantile <= 0 || o.NeighborQuantile > 1 {
		o.NeighborQuantile = 0.90
	}
	if o.NumTrees <= 0 {
		if o.BaseKind == ml.RandomTree {
			o.NumTrees = ml.DefaultForestSize
		} else {
			o.NumTrees = ml.DefaultBaggingSize
		}
	}
	if o.MaxLoCFrac <= 0 || o.MaxLoCFrac > 1 {
		o.MaxLoCFrac = 0.15
	}
	if len(o.Features) == 0 {
		o.Features = features.Set9()
	}
	// The zero value and the explicit name mean the same family; normalise
	// to "" so default configurations hash (and serialize their Meta)
	// exactly as they did before the family axis existed.
	if o.Family == FamilyBagging {
		o.Family = ""
	}
	if o.Family == FamilyMLP {
		if o.MLPHidden <= 0 {
			o.MLPHidden = 16
		}
		if o.MLPEpochs <= 0 {
			o.MLPEpochs = 30
		}
		if o.MLPRate <= 0 {
			o.MLPRate = 0.05
		}
	}
	return o
}

// TreeOptions returns the base-classifier options for ensemble training.
func (o TrainOptions) TreeOptions() ml.TreeOptions {
	opts := ml.TreeOptions{Kind: o.BaseKind, Features: o.Features}
	if o.BaseKind == ml.RandomTree {
		opts.MinLeaf = 1 // Weka RandomTree default
	}
	return opts
}

// Filter builds the pair-admission filter of these options for one
// instance: the neighborhood radius applies only under the Imp improvement,
// the DiffVpinY limit only under the "Y" refinement.
func (o TrainOptions) Filter(inst *pairs.Instance, radiusNorm float64) pairs.Filter {
	if !o.Neighborhood {
		radiusNorm = -1
	}
	return inst.Filter(radiusNorm, o.LimitDiffVpinY)
}

// FeatureNames maps the configured feature indices to their display names
// (the paper's for the base block, the routing-hint names past it).
func (o TrainOptions) FeatureNames() []string {
	out := make([]string, len(o.Features))
	for i, f := range o.Features {
		out[i] = features.Name(f)
	}
	return out
}
