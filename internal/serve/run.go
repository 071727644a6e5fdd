package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/attack"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// execute runs one job end to end. Cancellation is checked at every stage
// boundary; within a stage the engine runs to completion (the worker slot
// is freed anyway — see Server.runOne). A "job.<id>" progress tracker
// counts the job's coarse stages for status polls and /progress.
func execute(ctx context.Context, s *Server, job *Job) (*Result, error) {
	spec := job.Spec
	start := time.Now()
	prog := s.o.NewProgress("job."+job.ID, int64(stages(spec)))
	defer prog.Finish()

	s.setStage(job, "instances")
	suite, err := s.suite(sweep.Provenance{Tier: spec.Tier, Scale: spec.Scale, Seed: *spec.Seed})
	if err != nil {
		return nil, err
	}
	insts, err := suite.Instances(spec.Layer, 0)
	if err != nil {
		return nil, err
	}
	prog.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{ID: job.ID, Kind: spec.Kind, Spec: spec}
	switch spec.Kind {
	case KindTrain:
		res.Train, err = s.runTrain(job, spec, suite, insts, prog)
	case KindAttack, KindProximity:
		res.Attack, err = s.runAttack(ctx, job, spec, suite, insts, prog)
	case KindSweep:
		res.Sweep, err = s.runSweep(ctx, job, spec, suite, insts, prog)
	default:
		err = fmt.Errorf("serve: unknown kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	res.ElapsedNS = int64(time.Since(start))
	return res, nil
}

// stages is the coarse step count of the job's progress tracker.
func stages(spec JobSpec) int {
	switch spec.Kind {
	case KindProximity:
		return 3 // instances, attack, proximity
	case KindSweep:
		return 1 + len(spec.Configs)
	default:
		return 2 // instances, train or attack
	}
}

// jobTarget resolves a single-target job's configuration, bound to the job's
// run by the suite's Prepare, and the held-out design's instance index.
func jobTarget(spec JobSpec, suite *experiments.Suite, insts []*attack.Instance) (attack.Config, int, error) {
	cfg, err := spec.Config.Resolve()
	if err != nil {
		return cfg, -1, err
	}
	for i, inst := range insts {
		if inst.Ch.Design.Name == spec.Design {
			return suite.Prepare(cfg), i, nil
		}
	}
	return cfg, -1, fmt.Errorf("serve: design %q not in generated suite", spec.Design)
}

// runTrain trains (or fetches from the shared store) the leave-one-out
// artifact for the held-out design and persists it under the state dir.
func (s *Server) runTrain(job *Job, spec JobSpec, suite *experiments.Suite,
	insts []*attack.Instance, prog *obs.Progress) (*TrainResult, error) {

	cfg, target, err := jobTarget(spec, suite, insts)
	if err != nil {
		return nil, err
	}
	s.setStage(job, "train")
	aspec, _, err := attack.TrainSpec(cfg, insts, target)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	art, stats, err := s.store.GetOrTrain(aspec)
	if err != nil {
		return nil, err
	}
	res := &TrainResult{
		SpecHash:      art.Meta.SpecHash,
		Level:         art.Meta.Level,
		Trees:         art.Meta.Trees,
		Samples:       art.Meta.Samples,
		Level2Trees:   art.Meta.Level2Trees,
		Level2Samples: art.Meta.Level2Samples,
		Cached:        stats.Sampling == 0 && stats.Level1 == 0 && stats.Level2 == 0,
		TrainNS:       int64(time.Since(t0)),
	}
	if s.opts.StateDir != "" {
		dir := filepath.Join(s.opts.StateDir, "artifacts")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: artifacts dir: %w", err)
		}
		path := filepath.Join(dir, art.Meta.SpecHash+".model")
		if _, err := os.Stat(path); err != nil {
			if err := art.WriteFile(path); err != nil {
				return nil, fmt.Errorf("serve: persist artifact: %w", err)
			}
		}
		res.Artifact = path
	}
	prog.Add(1)
	return res, nil
}

// runAttack runs the single-target attack (plus the proximity stage for
// proximity jobs).
func (s *Server) runAttack(ctx context.Context, job *Job, spec JobSpec, suite *experiments.Suite,
	insts []*attack.Instance, prog *obs.Progress) (*AttackResult, error) {

	cfg, target, err := jobTarget(spec, suite, insts)
	if err != nil {
		return nil, err
	}
	s.setStage(job, "attack")
	ev, radiusNorm, err := attack.RunTarget(cfg, insts, target)
	if err != nil {
		return nil, err
	}
	prog.Add(1)
	res := attackResult(cfg, spec.Layer, ev, radiusNorm)
	if spec.Kind != KindProximity {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.setStage(job, "proximity")
	out, err := attack.ProximityTarget(cfg, insts, target, ev, radiusNorm)
	if err != nil {
		return nil, err
	}
	prog.Add(1)
	res.Proximity = &ProximityResult{
		Success:      out.Success,
		FixedSuccess: out.FixedSuccess,
		BestFrac:     out.BestFrac,
		ValidationNS: int64(out.ValidationDur),
	}
	return res, nil
}

// runSweep runs the leave-one-out sweep of every configuration, checking
// for cancellation between configurations and before every fold. A full
// sweep (no shard/of) computes — or, when the server has a checkpoint,
// loads — every fold and returns per-configuration aggregates; a sharded
// sweep computes only the work units its partition owns into the
// checkpoint and returns unit statistics, leaving aggregation to a later
// full sweep job. Both go through the sweep driver the experiments CLI
// uses, and a sharded sweep plans its units through the suite's PlanRuns,
// so their units are interchangeable.
func (s *Server) runSweep(ctx context.Context, job *Job, spec JobSpec, suite *experiments.Suite,
	insts []*attack.Instance, prog *obs.Progress) (*SweepResult, error) {

	res := &SweepResult{Layer: spec.Layer, Shard: spec.Shard, Of: spec.Of}
	runs := make([]experiments.RunSpec, len(spec.Configs))
	for i, cs := range spec.Configs {
		cfg, err := cs.Resolve()
		if err != nil {
			return nil, err
		}
		runs[i] = experiments.RunSpec{Config: suite.Prepare(cfg), Layer: spec.Layer}
	}
	if spec.Of > 0 {
		// normalize guarantees a sharded job's server has a checkpoint.
		s.setStage(job, fmt.Sprintf("sweep shard %d/%d", spec.Shard, spec.Of))
		st, err := sweep.RunOwned(ctx, s.o, s.ck, sweep.Shard{Index: spec.Shard, Count: spec.Of},
			s.opts.Workers, suite.PlanRuns(runs), func(sweep.Unit) ([]*attack.Instance, error) { return insts, nil })
		if err != nil {
			return nil, err
		}
		res.Units = &UnitStats{Owned: st.Owned, Done: st.Computed, Skipped: st.Loaded, Recomputed: st.Recomputed}
		prog.Add(int64(len(spec.Configs)))
		return res, nil
	}
	prov := sweep.Provenance{Tier: spec.Tier, Scale: spec.Scale, Seed: *spec.Seed}
	for i, r := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.setStage(job, fmt.Sprintf("sweep %d/%d: %s", i+1, len(runs), r.Config.Name))
		cr, err := sweep.RunFolds(ctx, s.o, s.ck, prov, 0, r.Config, insts)
		if err != nil {
			return nil, err
		}
		res.Configs = append(res.Configs, sweepConfigResult(cr))
		prog.Add(1)
	}
	return res, nil
}

// sweepConfigResult summarises one configuration's leave-one-out result.
func sweepConfigResult(r *attack.Result) SweepConfigResult {
	cr := SweepConfigResult{
		Config:      r.Config.Name,
		MeanTrainNS: int64(r.MeanTrainDur()),
		MeanTestNS:  int64(r.MeanTestDur()),
	}
	for _, ev := range r.Evals {
		cr.Designs = append(cr.Designs, DesignSummary{
			Design:      ev.Design,
			VPins:       ev.N,
			MaxAccuracy: ev.MaxAccuracy(),
			EvalDigest:  ev.Digest(),
		})
	}
	for _, pt := range attack.Curve(r.Evals, attack.CurveFractions()) {
		cr.Curve = append(cr.Curve, CurvePoint{LoCFrac: pt.LoCFrac, Accuracy: pt.Accuracy})
	}
	return cr
}
