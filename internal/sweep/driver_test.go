package sweep

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/split"
)

// hookFamily is the bagging family under a test-only name whose Train first
// calls the installed hook, so a test can act from inside a running fold.
type hookFamily struct {
	model.Family
	mu   sync.Mutex
	hook func()
}

func (*hookFamily) Name() string { return "sweep-test-hook" }

func (f *hookFamily) Train(ctx model.TrainContext, ds *ml.Dataset) (pairs.Scorer, error) {
	f.mu.Lock()
	hook := f.hook
	f.mu.Unlock()
	if hook != nil {
		hook()
	}
	return f.Family.Train(ctx, ds)
}

// setHook installs hook for the rest of the test.
func (f *hookFamily) setHook(t *testing.T, hook func()) {
	set := func(h func()) {
		f.mu.Lock()
		f.hook = h
		f.mu.Unlock()
	}
	set(hook)
	t.Cleanup(func() { set(nil) })
}

var testFamily = func() *hookFamily {
	bagging, err := model.FamilyByName(model.FamilyBagging)
	if err != nil {
		panic(err)
	}
	f := &hookFamily{Family: bagging}
	model.Register(f)
	return f
}()

var driverProv = Provenance{Tier: layout.TierStandard, Scale: 0.12, Seed: 3}

// driverInstances prepares the tiny five-design suite cut at layer 8.
func driverInstances(t *testing.T) []*attack.Instance {
	t.Helper()
	designs, err := layout.GenerateSuite(layout.SuiteConfig{
		Tier: driverProv.Tier, Scale: driverProv.Scale, Seed: driverProv.Seed})
	if err != nil {
		t.Fatal(err)
	}
	chs := make([]*split.Challenge, len(designs))
	for i, d := range designs {
		if chs[i], err = split.NewChallenge(d, 8); err != nil {
			t.Fatal(err)
		}
	}
	return attack.NewInstancesWorkers(chs, 0)
}

// driverConfig is a cheap configuration trained by the hook family, on one
// worker so folds run strictly one after another.
func driverConfig(o *obs.Context) attack.Config {
	cfg := attack.WithFamily(attack.ML9(), testFamily.Name())
	cfg.NumTrees = 3
	cfg.Seed = driverProv.Seed
	cfg.Workers = 1
	cfg.Obs = o
	return cfg
}

func unitFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.unit"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestDriverCancelledBeforeStart: a driver run whose context is already
// cancelled computes no fold — no training, no sweep.units.done, no unit
// file — and reports context.Canceled, both for a leave-one-out run and
// for a shard's owned units.
func TestDriverCancelledBeforeStart(t *testing.T) {
	insts := driverInstances(t)
	dir := t.TempDir()
	ck, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{Command: "test"})
	cfg := driverConfig(o)
	var mu sync.Mutex
	trains := 0
	testFamily.setHook(t, func() { mu.Lock(); trains++; mu.Unlock() })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := RunFolds(ctx, o, ck, driverProv, 0, cfg, insts); !errors.Is(err, context.Canceled) {
		t.Errorf("RunFolds on a cancelled context: err = %v, want context.Canceled", err)
	}
	plan := make([]Task, len(insts))
	for fold, inst := range insts {
		plan[fold] = Task{Unit: NewUnit(driverProv, cfg, 8, 0, fold, inst.Ch.Design.Name), Config: cfg}
	}
	st, err := RunOwned(ctx, o, ck, Shard{}, 2, plan,
		func(Unit) ([]*attack.Instance, error) { return insts, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunOwned on a cancelled context: err = %v, want context.Canceled", err)
	}
	if st.Computed != 0 || st.Loaded != 0 {
		t.Errorf("RunOwned on a cancelled context: %s, want nothing computed or loaded", st)
	}
	if trains != 0 {
		t.Errorf("%d folds trained after cancellation, want 0", trains)
	}
	if n := o.Metrics().Counter("sweep.units.done").Value(); n != 0 {
		t.Errorf("sweep.units.done = %d, want 0", n)
	}
	if n := unitFiles(t, dir); n != 0 {
		t.Errorf("%d unit files written, want 0", n)
	}
}

// TestDriverCancelInsideFold cancels from inside the first fold: that fold
// finishes and is checkpointed, and no later fold starts.
func TestDriverCancelInsideFold(t *testing.T) {
	insts := driverInstances(t)
	dir := t.TempDir()
	ck, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{Command: "test"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trains := 0
	testFamily.setHook(t, func() {
		trains++
		cancel()
	})

	res, err := RunFolds(ctx, o, ck, driverProv, 0, driverConfig(o), insts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if trains != 1 {
		t.Errorf("%d folds started, want only the one that cancelled", trains)
	}
	if res == nil || res.Evals[0] == nil {
		t.Fatal("the cancelling fold's evaluation is missing from the partial result")
	}
	for fold := 1; fold < len(insts); fold++ {
		if res.Evals[fold] != nil || res.RadiusNorm[fold] != -1 {
			t.Errorf("fold %d ran after cancellation", fold)
		}
	}
	if n := o.Metrics().Counter("sweep.units.done").Value(); n != 1 {
		t.Errorf("sweep.units.done = %d, want 1", n)
	}
	if n := unitFiles(t, dir); n != 1 {
		t.Errorf("%d unit files written, want 1", n)
	}
}

// TestDriverNoCheckpointIsRun: without a checkpoint, RunFolds and RunUnit
// are exactly attack.Run and attack.RunTarget — same digests — and leave
// every sweep.units.* counter at zero.
func TestDriverNoCheckpointIsRun(t *testing.T) {
	insts := driverInstances(t)
	o := obs.New(obs.Options{Command: "test"})
	cfg := driverConfig(o)
	want, err := attack.Run(cfg, insts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFolds(context.Background(), o, nil, driverProv, 0, cfg, insts)
	if err != nil {
		t.Fatal(err)
	}
	for fold, ev := range want.Evals {
		if got.Evals[fold].Digest() != ev.Digest() || got.RadiusNorm[fold] != want.RadiusNorm[fold] {
			t.Errorf("fold %d: RunFolds without a checkpoint differs from attack.Run", fold)
		}
	}
	u := NewUnit(driverProv, cfg, 8, 0, 2, insts[2].Ch.Design.Name)
	ev, radius, outcome, err := RunUnit(o, nil, u, cfg, insts)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Digest() != want.Evals[2].Digest() || radius != want.RadiusNorm[2] || outcome != Computed {
		t.Errorf("RunUnit without a checkpoint differs from attack.RunTarget (outcome %s)", outcome)
	}
	for _, c := range []string{"sweep.units.done", "sweep.units.skipped", "sweep.units.recomputed"} {
		if n := o.Metrics().Counter(c).Value(); n != 0 {
			t.Errorf("%s = %d without a checkpoint, want 0", c, n)
		}
	}
}

// TestDriverResumeLoadsEveryFold: a second RunFolds over the same
// checkpoint loads every fold instead of computing it, with unchanged
// digests.
func TestDriverResumeLoadsEveryFold(t *testing.T) {
	insts := driverInstances(t)
	dir := t.TempDir()
	run := func() (*attack.Result, *obs.Context) {
		ck, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New(obs.Options{Command: "test"})
		res, err := RunFolds(context.Background(), o, ck, driverProv, 0, driverConfig(o), insts)
		if err != nil {
			t.Fatal(err)
		}
		return res, o
	}
	first, o1 := run()
	second, o2 := run()
	n := int64(len(insts))
	if done := o1.Metrics().Counter("sweep.units.done").Value(); done != n {
		t.Errorf("first run computed %d folds, want %d", done, n)
	}
	if done, skipped := o2.Metrics().Counter("sweep.units.done").Value(),
		o2.Metrics().Counter("sweep.units.skipped").Value(); done != 0 || skipped != n {
		t.Errorf("resumed run computed %d and loaded %d folds, want 0 and %d", done, skipped, n)
	}
	for fold, ev := range first.Evals {
		if second.Evals[fold].Digest() != ev.Digest() {
			t.Errorf("fold %d digest changed across the checkpoint", fold)
		}
	}
}
