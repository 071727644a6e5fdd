package attack

// Benchmarks for the candidate pair-scoring hot path: the scalar oracle
// (per-pair Scorer.Prob calls on the compiled arena, selected by
// Config.ScalarScoring) against the batched flat-arena path (gather into
// per-worker buffers, one ml.Ensemble.ProbBatch call per v-pin and model
// level). Both paths produce bit-identical Evaluations — batch_test.go
// proves it — so these benchmarks compare pure throughput.
//
// The pairs/s metric is the one to read: ns/op varies with the fixture's
// candidate counts, pairs/s does not.

import (
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/pairs"
	"repro/internal/rng"
	"repro/internal/split"
)

// benchAttackModel trains cfg's model for target 0 of the fixture at the
// layer, exactly as runTarget would: same derived streams, same optional
// level-2 stage, same compiled arenas.
func benchAttackModel(b *testing.B, cfg Config, layer int) (pairs.Scorer, *Instance, float64) {
	b.Helper()
	insts := prep(challenges(b, layer))
	spec, radius := cfg.foldSpec(insts, 0, nil)
	art, _, err := model.Train(spec)
	if err != nil {
		b.Fatal(err)
	}
	return art.Scorer(), insts[0], radius
}

func benchScoreTarget(b *testing.B, cfg Config, scalar bool) {
	cfg = cfg.withDefaults()
	cfg.Seed = 1
	cfg.Workers = 1
	cfg.ScalarScoring = scalar
	model, inst, radius := benchAttackModel(b, cfg, 6)
	b.ResetTimer()
	var scored int64
	for i := 0; i < b.N; i++ {
		ev := scoreTarget(model, inst, cfg, radius)
		scored = ev.PairsScored
	}
	b.ReportMetric(float64(scored)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkScoreTargetML9Scalar(b *testing.B)   { benchScoreTarget(b, ML9(), true) }
func BenchmarkScoreTargetML9Batch(b *testing.B)    { benchScoreTarget(b, ML9(), false) }
func BenchmarkScoreTargetImp11Scalar(b *testing.B) { benchScoreTarget(b, Imp11(), true) }
func BenchmarkScoreTargetImp11Batch(b *testing.B)  { benchScoreTarget(b, Imp11(), false) }
func BenchmarkScoreTargetTwoLevelScalar(b *testing.B) {
	benchScoreTarget(b, WithTwoLevel(Imp11()), true)
}
func BenchmarkScoreTargetTwoLevelBatch(b *testing.B) {
	benchScoreTarget(b, WithTwoLevel(Imp11()), false)
}

// ablationOnce holds the suite of the repository-level ablation benchmarks
// (scale 0.25, seed 1, split layer 6), so BenchmarkAblationUnbalanced here
// compares directly against BenchmarkAblationBalanced there.
var (
	ablationOnce  sync.Once
	ablationErr   error
	ablationInsts []*Instance
)

func ablationInstances(b *testing.B) []*Instance {
	b.Helper()
	ablationOnce.Do(func() {
		designs, err := layout.GenerateSuite(layout.SuiteConfig{Scale: 0.25, Seed: 1})
		if err != nil {
			ablationErr = err
			return
		}
		chs := make([]*split.Challenge, len(designs))
		for i, d := range designs {
			if chs[i], err = split.NewChallenge(d, 6); err != nil {
				ablationErr = err
				return
			}
		}
		ablationInsts = prep(chs)
	})
	if ablationErr != nil {
		b.Fatal(ablationErr)
	}
	return ablationInsts
}

// BenchmarkAblationUnbalanced is the unbalanced side of the negative
// sampling ablation: every fold's balanced training set — the exact set Run
// trains on, from the fold's sampling stream — gets one more sampling
// pass's negatives added, for two negatives per positive, and the model
// trains on the fold's level-1 streams. Only the class balance differs from
// the balanced leave-one-out run.
func BenchmarkAblationUnbalanced(b *testing.B) {
	insts := ablationInstances(b)
	cfg := Imp11().withDefaults()
	cfg.Name = "Imp-11-unbalanced"
	var acc float64
	for i := 0; i < b.N; i++ {
		acc = 0
		for target := range insts {
			train := others(insts, target)
			radius := pairs.NeighborRadiusNorm(train, cfg.NeighborQuantile)
			r := rng.Derive(cfg.Seed, model.UnitSampling, int64(target))
			ds := TrainingSet(cfg, train, radius, nil, r)
			extra := TrainingSet(cfg, train, radius, nil, r)
			for k := range extra.X {
				if !extra.Y[k] {
					ds.Add(extra.X[k], false)
				}
			}
			sc, err := trainModelUnit(cfg, ds, model.UnitLevel1, target)
			if err != nil {
				b.Fatal(err)
			}
			acc += scoreTarget(sc, insts[target], cfg, radius).AccuracyAtK(10)
		}
		acc /= float64(len(insts))
	}
	b.ReportMetric(acc, "acc@10")
}
