package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/obs"
)

// Outcome says how RunUnit produced a unit's result.
type Outcome int

const (
	// Computed: the unit was run fresh (and checkpointed, when a checkpoint
	// is configured).
	Computed Outcome = iota
	// Loaded: a valid checkpoint file served the unit without any engine
	// work.
	Loaded
	// Recomputed: a checkpoint file existed but failed validation, was
	// discarded, and the unit was run fresh.
	Recomputed
)

// String names the outcome for logs and stats.
func (o Outcome) String() string {
	return [...]string{Computed: "computed", Loaded: "loaded", Recomputed: "recomputed"}[o]
}

// NewUnit builds the work unit of one leave-one-out fold: fold `fold`
// (held-out design `design`) of cfg at (layer, noise) on the suite prov
// pins. It is the one unit constructor of the CLI, the experiment suite and
// the job server, so all three build identical keys at identical
// coordinates and can feed one checkpoint directory. Every configuration is
// content-addressable — learner families serialize their identity into
// OptionsHash — so every fold has a unit.
func NewUnit(prov Provenance, cfg attack.Config, layer int, noise float64, fold int, design string) Unit {
	return Unit{
		Prov:   prov,
		Config: cfg.Name,
		Spec:   cfg.OptionsHash(),
		Layer:  layer,
		Noise:  noise,
		Fold:   fold,
		Design: design,
	}
}

// RunUnit runs one fold through the checkpoint: load the unit if a valid
// partial exists, otherwise compute it with attack.RunTarget and persist
// it. The result is bit-identical either way — the checkpoint codec
// round-trips every evaluation bit — so callers can mix loaded and computed
// units freely. With a nil checkpoint RunUnit is exactly attack.RunTarget
// and touches no counter.
//
// Outcomes land on the obs counters sweep.units.done (computed),
// sweep.units.skipped (served from checkpoint), and sweep.units.recomputed
// (corrupt partial discarded and re-run, also counted under done).
func RunUnit(o *obs.Context, ck *Checkpoint, u Unit, cfg attack.Config,
	insts []*attack.Instance) (*attack.Evaluation, float64, Outcome, error) {

	if ck == nil {
		ev, radius, err := attack.RunTarget(cfg, insts, u.Fold)
		return ev, radius, Computed, err
	}
	if u.Fold < 0 || u.Fold >= len(insts) {
		return nil, 0, Computed, fmt.Errorf("sweep: unit %s: fold out of range 0..%d", u, len(insts)-1)
	}
	if ch := insts[u.Fold].Ch; ch.Design.Name != u.Design || ch.SplitLayer != u.Layer {
		return nil, 0, Computed, fmt.Errorf("sweep: unit %s: fold %d is design %s at layer %d in the prepared suite",
			u, u.Fold, ch.Design.Name, ch.SplitLayer)
	}
	return runUnit(o, ck, u, func() (*attack.Evaluation, float64, error) {
		return attack.RunTarget(cfg, insts, u.Fold)
	})
}

// runUnit is the load-or-compute-and-save path behind RunUnit and the fold
// step of RunFolds; compute produces the unit's fold in process.
func runUnit(o *obs.Context, ck *Checkpoint, u Unit, compute attack.Fold) (*attack.Evaluation, float64, Outcome, error) {
	res, discarded, err := ck.Load(u)
	if err != nil {
		return nil, 0, Computed, err
	}
	if res != nil {
		o.Metrics().Counter("sweep.units.skipped").Inc()
		return res.Eval, res.RadiusNorm, Loaded, nil
	}
	ev, radius, err := compute()
	if err != nil {
		return nil, 0, Computed, err
	}
	outcome := Computed
	if discarded {
		outcome = Recomputed
		o.Metrics().Counter("sweep.units.recomputed").Inc()
		o.Log().Warn("discarded corrupt checkpoint unit and recomputed", "unit", u.String())
	}
	if err := ck.Save(&UnitResult{Unit: u, RadiusNorm: radius, Eval: ev}); err != nil {
		return nil, 0, outcome, err
	}
	o.Metrics().Counter("sweep.units.done").Inc()
	return ev, radius, outcome, nil
}

// RunFolds is the leave-one-out driver: every fold of cfg over insts on
// attack's fold loop (attack.RunFolds), each fold loaded from ck when it
// holds the fold's unit and computed and saved otherwise. prov and noise
// complete the units' coordinates. With a nil checkpoint it is exactly
// attack.RunFolds without a step. The result is bit-identical to
// attack.Run at any worker count and any mix of loaded and computed folds.
func RunFolds(ctx context.Context, o *obs.Context, ck *Checkpoint, prov Provenance, noise float64,
	cfg attack.Config, insts []*attack.Instance) (*attack.Result, error) {

	if ck == nil {
		return attack.RunFolds(ctx, cfg, insts, nil)
	}
	return attack.RunFolds(ctx, cfg, insts, func(fold int, compute attack.Fold) (*attack.Evaluation, float64, error) {
		ch := insts[fold].Ch
		ev, radius, _, err := runUnit(o, ck, NewUnit(prov, cfg, ch.SplitLayer, noise, fold, ch.Design.Name), compute)
		return ev, radius, err
	})
}

// Task is one planned work unit and the prepared configuration that
// computes it.
type Task struct {
	Unit   Unit
	Config attack.Config
}

// Stats summarises a RunOwned execution.
type Stats struct {
	// Planned is the total unit count of the plan, across all shards.
	Planned int
	// Owned is how many units this shard was responsible for.
	Owned int
	// Computed units ran the attack engine (includes Recomputed).
	Computed int
	// Loaded units were served from valid checkpoint files.
	Loaded int
	// Recomputed units had a corrupt checkpoint file discarded first.
	Recomputed int
}

// String renders the stats for command output.
func (st Stats) String() string {
	return fmt.Sprintf("planned=%d owned=%d computed=%d loaded=%d recomputed=%d",
		st.Planned, st.Owned, st.Computed, st.Loaded, st.Recomputed)
}

// RunOwned is a shard worker's loop: it runs the units of plan that sh
// owns through RunUnit, on attack's fold pool (attack.ForFolds) with up to
// workers goroutines, and counts their outcomes. insts supplies the
// prepared instances of a unit's (layer, noise) coordinates. Rendering
// happens later, in a merge run that loads the union of all shards'
// partials, so RunOwned needs a checkpoint: without one it would compute
// results and throw them away.
func RunOwned(ctx context.Context, o *obs.Context, ck *Checkpoint, sh Shard, workers int,
	plan []Task, insts func(Unit) ([]*attack.Instance, error)) (Stats, error) {

	st := Stats{Planned: len(plan)}
	if ck == nil {
		return st, errors.New("sweep: a shard run needs a checkpoint directory to write partial results to")
	}
	if err := sh.Validate(); err != nil {
		return st, err
	}
	var owned []Task
	for _, t := range plan {
		if sh.Owns(t.Unit.Key()) {
			owned = append(owned, t)
		}
	}
	st.Owned = len(owned)

	name := "sweep.shard"
	if s := sh.String(); s != "" {
		name += "." + strings.ReplaceAll(s, "/", "of")
	}
	prog := o.NewProgress(name, int64(len(owned)))
	defer prog.Finish()
	outcomes := make([]Outcome, len(owned))
	errs := attack.ForFolds(ctx, len(owned), workers, func(_, i int) error {
		defer prog.Add(1)
		t := owned[i]
		in, err := insts(t.Unit)
		if err != nil {
			return err
		}
		_, _, outcomes[i], err = RunUnit(o, ck, t.Unit, t.Config, in)
		return err
	})
	var n [3]int
	for i, err := range errs {
		if err == nil {
			n[outcomes[i]]++
		}
	}
	st.Computed, st.Loaded, st.Recomputed = n[Computed]+n[Recomputed], n[Loaded], n[Recomputed]
	return st, errors.Join(errs...)
}
