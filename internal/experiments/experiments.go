// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite. Each experiment is
// registered under the paper's table/figure number and writes a plain-text
// reproduction of the corresponding rows or series.
//
// Attack runs are cached per (configuration options hash, split layer)
// inside a Suite, so experiments that share underlying runs (Tables I and
// IV, Fig. 9, ...) do not repeat work.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/priorwork"
	"repro/internal/split"
	"repro/internal/sweep"
)

// Suite is the generated benchmark suite plus caches of challenges,
// prepared instances and attack results. A Suite is safe for concurrent
// use: every cache is a par.Memo, so concurrent requests for one key
// compute it once, and attack results depend only on (Seed, config,
// layer), never on which goroutine computed them.
type Suite struct {
	Designs []*layout.Design
	// Tier is the suite tier the designs came from ("" means standard).
	Tier  string
	Scale float64
	Seed  int64

	// Workers bounds the goroutines of every attack run and config sweep
	// started through this suite (propagated into attack.Config.Workers
	// unless the config sets its own). Zero selects GOMAXPROCS. Results
	// are bit-identical at any worker count.
	Workers int

	// Obs, when non-nil, receives cache hit/miss counters, spans, and logs
	// from every suite operation and is propagated into attack runs.
	Obs *obs.Context

	// Checkpoint, when non-nil, persists every leave-one-out fold as a
	// content-addressed unit file (see internal/sweep): folds already in the
	// checkpoint are loaded instead of recomputed — bit-identically — which
	// is both the resume path for killed runs and the merge path combining
	// partials that other shards (or machines) computed. Every learner
	// family checkpoints — MLP folds resume exactly like Bagging folds.
	Checkpoint *sweep.Checkpoint
	// Shard restricts RunPlan to the units this shard owns (the "-shard
	// i/n" partition). The zero value owns everything. Run/RunNoisy ignore
	// it: a rendering run always needs every fold, loading what shards
	// computed and computing only what is missing.
	Shard sweep.Shard

	chs   par.Memo[int, []*split.Challenge]
	noisy par.Memo[coord, []*split.Challenge]
	insts par.Memo[coord, []*attack.Instance]
	runs  par.Memo[runKey, *attack.Result]
	pa    par.Memo[runKey, []attack.PAOutcome]
	nn    par.Memo[int, []float64]
	// models caches trained artifacts per fold by spec content hash, so
	// sweeps that retrain identical folds (threshold sweeps, two-level
	// variants sharing a level-1 model) become cache hits; see
	// model.Store. It rides alongside the instance cache and reports
	// outcomes under the "model.artifacts" counters.
	models *model.Store
}

// coord is a (split layer, y-noise) coordinate of the suite's challenges.
type coord struct {
	layer int
	sd    float64
}

// runKey identifies one attack run: a configuration, by its options hash
// (attack.Config.OptionsHash), at a coordinate.
type runKey struct {
	options string
	coord
}

// NewSuiteTier generates the benchmark designs of a suite tier at the
// given scale: "standard" for the five sb* benchmark designs, "industrial"
// for the three 100k+-cell sbx* designs. It is the one place a suite is
// generated; the commands and the job server all cut and prepare through
// the Suite it returns. The tier changes only which designs are generated;
// every cache and attack path downstream is tier-agnostic. o, when
// non-nil, instruments generation and every subsequent suite operation.
// The designs are generated concurrently on up to workers goroutines (0 =
// GOMAXPROCS), and the bound is inherited by every attack run and config
// sweep started through the suite. Generation is per-design deterministic,
// so the suite is identical at any worker count.
func NewSuiteTier(o *obs.Context, tier string, scale float64, seed int64, workers int) (*Suite, error) {
	designs, err := layout.GenerateSuiteObs(o, layout.SuiteConfig{Tier: tier, Scale: scale, Seed: seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	s := NewSuiteFromDesigns(designs, scale, seed)
	s.Tier = tier
	s.Workers = workers
	s.Obs = o
	return s, nil
}

// SetModelStore replaces the suite's trained-artifact store. Commands use
// this to wire the -model-cache/-model-cache-dir flags in: with a shared
// on-disk directory, concurrent shards (separate processes, even separate
// machines) train each unique fold spec exactly once and load it everywhere
// else. A nil store is ignored. Call it before the suite is shared.
func (s *Suite) SetModelStore(st *model.Store) {
	if st != nil {
		s.models = st
	}
}

// provenance pins the suite shape for sweep units.
func (s *Suite) provenance() sweep.Provenance {
	tier := s.Tier
	if tier == "" {
		tier = layout.TierStandard
	}
	return sweep.Provenance{Tier: tier, Scale: s.Scale, Seed: s.Seed}
}

// cached returns m's value for key, computing it with fn on a miss, and
// records the lookup under the named cache counters (a caller that waited
// for a concurrent computation counts as a hit).
func cached[K comparable, V any](s *Suite, counter string, m *par.Memo[K, V], key K, fn func() (V, error)) (V, error) {
	v, hit, err := m.Get(key, fn)
	s.Obs.Metrics().Cache(counter).Lookup(hit)
	return v, err
}

// NewSuiteFromDesigns wraps already-generated designs in a Suite with
// fresh caches. The benchmark harness uses this to re-measure attack work
// without re-generating layouts.
func NewSuiteFromDesigns(designs []*layout.Design, scale float64, seed int64) *Suite {
	return &Suite{Designs: designs, Scale: scale, Seed: seed, models: model.NewStore(0, "")}
}

// Challenges returns (and caches) the challenges for a split layer.
func (s *Suite) Challenges(layer int) ([]*split.Challenge, error) {
	return cached(s, "suite.cache", &s.chs, layer, func() ([]*split.Challenge, error) {
		chs := make([]*split.Challenge, len(s.Designs))
		for i, d := range s.Designs {
			var err error
			if chs[i], err = split.NewChallengeObs(s.Obs, d, layer); err != nil {
				return nil, err
			}
		}
		return chs, nil
	})
}

// NoisyChallenges returns challenges with Gaussian y-noise of the given
// standard deviation (fraction of die height) applied to all v-pins,
// cached per (layer, sd).
func (s *Suite) NoisyChallenges(layer int, sd float64) ([]*split.Challenge, error) {
	base, err := s.Challenges(layer)
	if err != nil {
		return nil, err
	}
	if sd == 0 {
		return base, nil
	}
	return cached(s, "suite.cache", &s.noisy, coord{layer, sd}, func() ([]*split.Challenge, error) {
		rng := rand.New(rand.NewSource(s.Seed*1000 + int64(layer)*17 + int64(sd*1e4)))
		chs := make([]*split.Challenge, len(base))
		for i, ch := range base {
			chs[i] = ch.WithNoise(sd, rng)
		}
		return chs, nil
	})
}

// Instances returns (and caches) the prepared attack instances — feature
// extractors plus spatial pair indexes — for a split layer and noise level
// (sd 0 selects the clean challenges). Instances are immutable, so one set
// is shared by every attack run, sweep, and figure at the same (layer,
// noise) coordinates; multi-config sweeps stop re-deriving per-v-pin
// features. Lookups are counted under "suite.instances.hit"/".miss".
func (s *Suite) Instances(layer int, sd float64) ([]*attack.Instance, error) {
	return cached(s, "suite.instances", &s.insts, coord{layer, sd}, func() ([]*attack.Instance, error) {
		chs, err := s.NoisyChallenges(layer, sd)
		if err != nil {
			return nil, err
		}
		return attack.NewInstancesWorkers(chs, s.Workers), nil
	})
}

// Prepare binds a config to a run on this suite: it stamps the suite's
// seed, worker bound, observability context and model store. A config's own
// Workers and Models, when set, win over the suite's. It is the one place a
// config gets these fields; the commands and the job server call it too.
func (s *Suite) Prepare(cfg attack.Config) attack.Config {
	cfg.Seed = s.Seed
	if cfg.Workers == 0 {
		cfg.Workers = s.Workers
	}
	if s.Obs != nil {
		cfg.Obs = s.Obs
	}
	if cfg.Models == nil {
		cfg.Models = s.models
	}
	return cfg
}

// Run executes (and caches) a leave-one-out attack run of cfg at the given
// split layer.
func (s *Suite) Run(cfg attack.Config, layer int) (*attack.Result, error) {
	return s.RunNoisy(cfg, layer, 0)
}

// RunPA executes (and caches) the validation-based proximity attack of cfg
// at the given split layer, optionally on noise-obfuscated challenges
// (sd > 0, as a fraction of die height).
func (s *Suite) RunPA(cfg attack.Config, layer int, sd float64) ([]attack.PAOutcome, error) {
	return cached(s, "suite.cache", &s.pa, runKey{cfg.OptionsHash(), coord{layer, sd}}, func() ([]attack.PAOutcome, error) {
		insts, err := s.Instances(layer, sd)
		if err != nil {
			return nil, err
		}
		// Reuse the cached attack run's candidate lists; only the PA-LoC
		// validation stage is new work.
		prior, err := s.RunNoisy(cfg, layer, sd)
		if err != nil {
			return nil, err
		}
		return attack.RunProximity(s.Prepare(cfg), insts, prior)
	})
}

// RunNoisy executes (and caches) a leave-one-out run on challenges with
// y-noise of standard deviation sd (0 = clean) through the sweep driver:
// every fold is served from (and saved to) the suite's checkpoint when it
// has one, and the result is bit-identical to attack.Run either way.
func (s *Suite) RunNoisy(cfg attack.Config, layer int, sd float64) (*attack.Result, error) {
	return cached(s, "suite.cache", &s.runs, runKey{cfg.OptionsHash(), coord{layer, sd}}, func() (*attack.Result, error) {
		insts, err := s.Instances(layer, sd)
		if err != nil {
			return nil, err
		}
		r, err := sweep.RunFolds(context.Background(), s.Obs, s.Checkpoint, s.provenance(), sd, s.Prepare(cfg), insts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s at layer %d: %w", cfg.Name, layer, err)
		}
		return r, nil
	})
}

// sweepConfigs runs run for every configuration on the suite's worker
// pool, tracking live progress under "sweep.<name>", and joins the errors.
// Results are position-matched to cfgs. Each configuration's run is
// deterministic on its own, so the result does not depend on the worker
// count.
func sweepConfigs[T any](s *Suite, name string, cfgs []attack.Config, run func(attack.Config) (T, error)) ([]T, error) {
	prog := s.Obs.NewProgress("sweep."+name, int64(len(cfgs)))
	defer prog.Finish()
	out := make([]T, len(cfgs))
	errs := make([]error, len(cfgs))
	par.For(len(cfgs), s.Workers, func(_, i int) {
		out[i], errs[i] = run(cfgs[i])
		prog.Add(1)
	})
	return out, errors.Join(errs...)
}

// RunAll executes (and caches) the leave-one-out attack runs of all
// configs at the given split layer, sweeping the configs across the
// suite's worker pool. Results are position-matched to cfgs and identical
// to len(cfgs) sequential Run calls; table experiments use this to
// prefetch every column before printing.
func (s *Suite) RunAll(cfgs []attack.Config, layer int) ([]*attack.Result, error) {
	return sweepConfigs(s, fmt.Sprintf("configs.L%d", layer), cfgs,
		func(cfg attack.Config) (*attack.Result, error) { return s.Run(cfg, layer) })
}

// RunPAAll executes (and caches) the validation-based proximity attacks of
// all configs at the given split layer and noise level, sweeping the
// configs across the suite's worker pool. Results are position-matched to
// cfgs and identical to sequential RunPA calls.
func (s *Suite) RunPAAll(cfgs []attack.Config, layer int, sd float64) ([][]attack.PAOutcome, error) {
	return sweepConfigs(s, fmt.Sprintf("pa.L%d", layer), cfgs,
		func(cfg attack.Config) ([]attack.PAOutcome, error) { return s.RunPA(cfg, layer, sd) })
}

// nnPA returns the nearest-neighbour PA success of design d at the given
// layer, cached per layer.
func (s *Suite) nnPA(layer, d int) float64 {
	v, err := cached(s, "suite.cache", &s.nn, layer, func() ([]float64, error) {
		chs, err := s.Challenges(layer)
		if err != nil {
			return nil, err
		}
		v := make([]float64, len(chs))
		rng := rand.New(rand.NewSource(s.Seed + int64(layer)))
		for i, ch := range chs {
			v[i] = priorwork.NearestNeighborPA(ch, rng)
		}
		return v, nil
	})
	if err != nil {
		return 0
	}
	return v[d]
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key: "table1".."table6", "fig4".."fig10".
	ID string
	// Title describes what the paper reports there.
	Title string
	// Run writes the reproduction to w.
	Run func(s *Suite, w io.Writer) error
	// Deps enumerates the leave-one-out attack runs the experiment consumes
	// (see plan.go), which is what lets a sweep over experiments decompose
	// into shardable work units before anything executes. Nil means the
	// experiment needs no attack runs (fig4/7/8) or its runs cannot be
	// enumerated up front (out-of-suite defense variants). Deps only covers
	// the attack-run stage: proximity validation and rendering always run
	// in the merge process, on top of checkpointed folds.
	Deps func() []RunSpec
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: comparison with prior work [5] across split layers", Run: TableI, Deps: depsTableI},
		{ID: "table2", Title: "Table II: RandomTree vs REPTree base classifiers (Imp-7)", Run: TableII, Deps: depsTableII},
		{ID: "table3", Title: "Table III: two-level pruning vs no pruning (Imp-11, layer 8)", Run: TableIII, Deps: depsTableIII},
		{ID: "table4", Title: "Table IV: model configurations, LoC/accuracy trade-offs, runtime", Run: TableIV, Deps: depsTableIV},
		{ID: "table5", Title: "Table V: proximity attack success rates", Run: TableV, Deps: depsTableIV},
		{ID: "table6", Title: "Table VI: proximity attack under design obfuscation", Run: TableVI, Deps: depsNoise},
		{ID: "fig4", Title: "Fig. 4: CDF of matched-pair ManhattanVpin (layer 6)", Run: Fig4},
		{ID: "fig7", Title: "Fig. 7: feature importance rankings across layers", Run: Fig7},
		{ID: "fig8", Title: "Fig. 8: feature distributions by class (layer 6)", Run: Fig8},
		{ID: "fig9", Title: "Fig. 9: LoC-fraction vs accuracy trade-off curves", Run: Fig9, Deps: depsTableIV},
		{ID: "fig10", Title: "Fig. 10: trade-off curves with and without obfuscation noise", Run: Fig10, Deps: depsNoise},
	}
}

// AllWithExtensions returns the paper's experiments followed by the
// repository's extension experiments.
func AllWithExtensions() []Experiment {
	return append(All(), extExperiments()...)
}

// RunExperiment executes one experiment under a span on the suite's
// observability context, so per-experiment wall-clock cost lands in run
// reports. With a nil Suite.Obs it is exactly e.Run(s, w).
func RunExperiment(s *Suite, e Experiment, w io.Writer) error {
	sp := s.Obs.Begin("experiment", obs.F("id", e.ID))
	err := e.Run(s, w)
	sp.End()
	s.Obs.Metrics().Counter("experiments.run").Inc()
	return err
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range AllWithExtensions() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
