package attack

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/par"
	"repro/internal/split"
)

// Stream units name the independent random streams a target consumes.
// Every stream is derived as rng.Derive(cfg.Seed, unit, target, index...),
// so a unit's draws depend only on the seed and its coordinates — never on
// what other units consumed or on which worker ran them. The training
// units 1–4 moved to the model package with the train stage
// (model.UnitSampling .. model.UnitLevel2Model); the proximity-attack
// units stay here with their explicit historical values. Renumbering any
// unit changes every downstream result; treat them like the golden values
// in internal/rng.
const (
	unitPA      int64 = 5 // proximity-attack validation split
	unitPAModel int64 = 6 // proximity-attack model training (per tree)
)

// Result is the outcome of one leave-one-out attack run: one Evaluation per
// design, each produced by a model trained on the other designs.
type Result struct {
	Config Config
	// Evals[i] is the evaluation with design i held out. When Run returns
	// a partial result alongside an error, entries for failed targets are
	// nil.
	Evals []*Evaluation
	// RadiusNorm[i] is the neighborhood radius (fraction of die width)
	// used when design i was the target; -1 without the Imp improvement.
	RadiusNorm []float64
}

// MeanTrainDur and MeanTestDur average the per-target phase durations.
func (r *Result) MeanTrainDur() time.Duration {
	return r.meanDur(func(e *Evaluation) time.Duration { return e.TrainDur })
}

// MeanTestDur averages the per-target scoring durations.
func (r *Result) MeanTestDur() time.Duration {
	return r.meanDur(func(e *Evaluation) time.Duration { return e.TestDur })
}

func (r *Result) meanDur(f func(*Evaluation) time.Duration) time.Duration {
	n := 0
	var sum time.Duration
	for _, e := range r.Evals {
		if e == nil {
			continue
		}
		sum += f(e)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// NewInstancesWorkers prepares challenges for attack runs, building the
// feature extractors and spatial indexes of all designs on up to workers
// goroutines (<= 0 selects GOMAXPROCS). Instance construction is per-design
// deterministic, so the result is identical at any worker count.
func NewInstancesWorkers(chs []*split.Challenge, workers int) []*Instance {
	return pairs.NewAll(chs, workers)
}

// prepareRun applies defaults and validates a leave-one-out run request.
func prepareRun(cfg Config, insts []*Instance) (Config, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if len(insts) < 2 {
		return cfg, fmt.Errorf("attack: leave-one-out needs at least 2 designs, got %d", len(insts))
	}
	for _, inst := range insts[1:] {
		if inst.Ch.SplitLayer != insts[0].Ch.SplitLayer {
			return cfg, fmt.Errorf("attack: mixed split layers %d and %d",
				insts[0].Ch.SplitLayer, inst.Ch.SplitLayer)
		}
	}
	return cfg, nil
}

// prepareTarget is prepareRun for a single held-out design at index target.
func prepareTarget(cfg Config, insts []*Instance, target int) (Config, error) {
	cfg, err := prepareRun(cfg, insts)
	if err != nil {
		return cfg, err
	}
	if target < 0 || target >= len(insts) {
		return cfg, fmt.Errorf("attack: target %d out of range 0..%d", target, len(insts)-1)
	}
	return cfg, nil
}

// Run executes the full leave-one-out cross-validation attack of §III-C:
// for every prepared instance (see NewInstancesWorkers), a model is trained
// on all other instances and used to score the held-out one. All instances
// must be cuts at the same split layer. Instances are read-only during the
// run and may be shared between concurrent runs, so callers that run
// several configurations over the same challenges pay the extractor/index
// construction cost once. Run is RunFolds without a context or a step.
func Run(cfg Config, insts []*Instance) (*Result, error) {
	return RunFolds(context.Background(), cfg, insts, nil)
}

// Fold computes one leave-one-out fold: its evaluation and neighborhood
// radius.
type Fold func() (*Evaluation, float64, error)

// FoldStep produces fold `fold` of a leave-one-out run. compute is the
// in-process fold — train on every other instance, score the held-out one,
// under the run's span and on the calling pool worker — which the step may
// call, or replace with a bit-identical result (a checkpoint load). The
// sweep package's checkpointed step is the one production step.
type FoldStep func(fold int, compute Fold) (*Evaluation, float64, error)

// RunFolds is the one leave-one-out fold loop: every fold of the run, on
// cfg.Workers goroutines (0 = GOMAXPROCS), each produced by step (nil
// computes every fold in process). ctx is checked before each fold; a fold
// that has not started when ctx is done fails with ctx.Err().
//
// Each target's randomness is an independent stream derived from cfg.Seed
// and the target index (see internal/rng), so the result is bit-identical
// at every worker count, including 1.
//
// A failing target does not abort its siblings: RunFolds finishes every
// target and, when some failed, returns the partial Result — nil Evals
// entries and RadiusNorm -1 for the failures — together with the joined
// per-target errors.
func RunFolds(ctx context.Context, cfg Config, insts []*Instance, step FoldStep) (*Result, error) {
	cfg, err := prepareRun(cfg, insts)
	if err != nil {
		return nil, err
	}
	o := cfg.Obs
	workers := par.Workers(cfg.Workers, len(insts))
	sp := o.Begin("attack.run", obs.F("config", cfg.Name),
		obs.F("layer", insts[0].Ch.SplitLayer), obs.F("designs", len(insts)),
		obs.F("workers", workers))
	defer sp.End()
	// Live progress over targets: done/total, rate, and ETA land in the
	// progress gauges and the /progress endpoint while the run executes.
	prog := o.NewProgress(fmt.Sprintf("attack.%s.L%d", cfg.Name, insts[0].Ch.SplitLayer),
		int64(len(insts)))
	defer prog.Finish()
	res := &Result{
		Config:     cfg,
		Evals:      make([]*Evaluation, len(insts)),
		RadiusNorm: make([]float64, len(insts)),
	}
	for i := range res.RadiusNorm {
		res.RadiusNorm[i] = -1
	}
	if step == nil {
		step = func(_ int, compute Fold) (*Evaluation, float64, error) { return compute() }
	}
	errs := ForFolds(ctx, len(insts), workers, func(worker, target int) error {
		ev, radius, err := step(target, func() (*Evaluation, float64, error) {
			return runTarget(cfg, insts, target, worker, sp)
		})
		prog.Add(1)
		if err != nil {
			return err
		}
		res.Evals[target] = ev
		res.RadiusNorm[target] = radius
		o.Metrics().Counter(fmt.Sprintf("attack.worker.%d.targets", worker)).Inc()
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		failed := 0
		for _, e := range errs {
			if e != nil {
				failed++
			}
		}
		return res, fmt.Errorf("attack: %s: %d of %d targets failed: %w",
			cfg.Name, failed, len(insts), err)
	}
	return res, nil
}

// ForFolds is the pool every leave-one-out fold runs on — the folds of one
// run (RunFolds) and the owned work units of a sharded sweep alike: fn(worker,
// i) for every i in 0..n-1 on par.Workers(workers, n) goroutines. ctx is
// checked before each index; an index reached after ctx is done is not run
// and reports ctx.Err(). The returned slice holds each index's error.
func ForFolds(ctx context.Context, n, workers int, fn func(worker, i int) error) []error {
	errs := make([]error, n)
	par.For(n, workers, func(worker, i int) {
		if errs[i] = ctx.Err(); errs[i] == nil {
			errs[i] = fn(worker, i)
		}
	})
	return errs
}

// RunTarget runs exactly one leave-one-out fold — train on every instance
// except target, score target — and returns the target's evaluation and the
// neighborhood radius used (as a fraction of die width; -1 without the Imp
// improvement). It skips the len(insts)-1 sibling runs Run would perform,
// and is bit-identical to Run(cfg, insts).Evals[target] at any worker
// count: every random stream the target consumes is derived from cfg.Seed,
// a stream unit, and the target index alone (see internal/rng). That is
// what lets a full leave-one-out run be decomposed into independently
// scheduled (and independently checkpointed) fold units and recombined
// exactly.
func RunTarget(cfg Config, insts []*Instance, target int) (*Evaluation, float64, error) {
	cfg, err := prepareTarget(cfg, insts, target)
	if err != nil {
		return nil, 0, err
	}
	return runTarget(cfg, insts, target, 0, nil)
}

// others returns insts without the element at target.
func others(insts []*Instance, target int) []*Instance {
	out := make([]*Instance, 0, len(insts)-1)
	for i, inst := range insts {
		if i != target {
			out = append(out, inst)
		}
	}
	return out
}

// trainModelUnit trains the configuration's classifier from streams derived
// from (cfg.Seed, unit, target): the family draws every random decision
// through TrainContext.Rng — the Bagging ensemble trains tree t in parallel
// on stream (cfg.Seed, unit, target, t) and compiles into its flat-arena
// form (bit-identical Prob — the documented Ensemble contract), single-model
// families consume the stream (cfg.Seed, unit, target) whole. The
// leave-one-out train stage lives in the model package; this helper trains
// the proximity attack's validation-split models on PA stream units.
func trainModelUnit(cfg Config, ds *ml.Dataset, unit int64, target int) (pairs.Scorer, error) {
	fam, err := model.FamilyByName(cfg.Family)
	if err != nil {
		return nil, err
	}
	return fam.Train(model.TrainContext{
		Obs:     cfg.Obs,
		Opts:    cfg.WithDefaults(),
		Seed:    cfg.Seed,
		Unit:    unit,
		Fold:    target,
		Workers: cfg.Workers,
	}, ds)
}

// runTarget trains on all instances except target and scores target. All
// randomness is drawn from streams derived from (cfg.Seed, unit, target),
// so the result does not depend on which worker runs it or on sibling
// targets. Training goes through the model layer: cfg.Models, when set,
// serves repeated folds from its artifact cache (bit-identical to fresh
// training); a nil store trains inline. The span for the target nests
// under parent when one is given (Run's root span), else at the context's
// root (RunTarget).
func runTarget(cfg Config, insts []*Instance, target, worker int, parent *obs.Span) (*Evaluation, float64, error) {
	sp := cfg.Obs.BeginUnder(parent, "target",
		obs.F("design", insts[target].Ch.Design.Name), obs.F("worker", worker))
	spec, radiusNorm := cfg.foldSpec(insts, target, sp)
	t0 := time.Now()
	art, stats, err := cfg.Models.GetOrTrain(spec)
	if err != nil {
		sp.End()
		return nil, 0, fmt.Errorf("attack: %s: target %s: %w", cfg.Name, insts[target].Ch.Design.Name, err)
	}
	trainDur := time.Since(t0)
	sp.SetAttr("train_ns", int64(trainDur))

	ev := scoreInSpan(cfg, art, insts[target], radiusNorm, sp)
	ev.TrainDur = trainDur
	ev.Phases.Sampling = stats.Sampling
	ev.Phases.Level1 = stats.Level1
	ev.Phases.Level2 = stats.Level2
	return ev, radiusNorm, nil
}

// scoreInSpan scores the target instance with a trained artifact under a
// "scoring" span nested in the target's span sp, records the target's
// scoring attributes and run counters, and ends sp. It is the one scoring
// tail of in-process training (runTarget) and pre-trained artifacts
// (RunTargetArtifact).
func scoreInSpan(cfg Config, art *model.Artifact, target *Instance, radiusNorm float64, sp *obs.Span) *Evaluation {
	scsp := sp.Begin("scoring")
	ev := scoreTarget(art.Scorer(), target, cfg, radiusNorm)
	scsp.SetAttr("pairs", ev.PairsScored)
	if ev.Batches > 0 {
		scsp.SetAttr("batches", ev.Batches)
		scsp.SetAttr("batch_rows", ev.BatchRows)
	}
	scsp.End()
	sp.SetAttr("test_ns", int64(ev.TestDur))
	sp.SetAttr("vpins", ev.N)
	sp.End()
	m := cfg.Obs.Metrics()
	m.Counter("attack.targets").Inc()
	m.Counter("attack.pairs.scored").Add(ev.PairsScored)
	return ev
}
