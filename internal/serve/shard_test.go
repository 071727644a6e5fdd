package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// sweepSpec is the canonical tiny sweep job of the shard tests: one cheap
// configuration over the five-design suite.
func sweepSpec(shard, of int) JobSpec {
	seed := testSeed
	return JobSpec{
		Kind:    KindSweep,
		Layer:   8,
		Scale:   testScale,
		Seed:    &seed,
		Configs: []ConfigSpec{{Preset: "ML-9"}},
		Shard:   shard,
		Of:      of,
	}
}

// TestServeShardedSweepMerge is the service half of the sharded-sweep
// contract: three sharded jobs partition the folds into the server's
// checkpoint, and a later unsharded sweep job merges them into a result
// digest-identical to a server that computed everything itself.
func TestServeShardedSweepMerge(t *testing.T) {
	o := obs.New(obs.Options{Command: "serve-test"})
	s := newTestServer(t, Options{Obs: o, Pool: 3, Queue: 8, CheckpointDir: t.TempDir()})

	shards := make([]*Job, 3)
	for i := range shards {
		job, err := s.Submit(sweepSpec(i+1, 3))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = job
	}
	owned, done := 0, 0
	for i, job := range shards {
		waitTerminal(t, job, 10*time.Minute)
		if st := s.Status(job); st.State != StateDone {
			t.Fatalf("shard job %d state %s, error %q", i+1, st.State, st.Error)
		}
		res, _ := s.Result(job)
		if res.Sweep == nil || res.Sweep.Units == nil {
			t.Fatalf("shard job %d returned no unit statistics", i+1)
		}
		if len(res.Sweep.Configs) != 0 {
			t.Errorf("shard job %d returned aggregates; those belong to the merge job", i+1)
		}
		u := res.Sweep.Units
		if u.Skipped != 0 || u.Recomputed != 0 || u.Done != u.Owned {
			t.Errorf("shard job %d on a fresh checkpoint: %+v", i+1, u)
		}
		owned += u.Owned
		done += u.Done
	}

	merge, err := s.Submit(sweepSpec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, merge, 10*time.Minute)
	if st := s.Status(merge); st.State != StateDone {
		t.Fatalf("merge job state %s, error %q", st.State, st.Error)
	}
	mres, _ := s.Result(merge)
	if mres.Sweep == nil || len(mres.Sweep.Configs) != 1 || mres.Sweep.Units != nil {
		t.Fatalf("merge job result %+v, want one config aggregate and no unit stats", mres.Sweep)
	}
	folds := len(mres.Sweep.Configs[0].Designs)
	if owned != folds || done != folds {
		t.Errorf("3 shards owned %d and computed %d of %d folds", owned, done, folds)
	}
	if got := o.Metrics().Counter("sweep.units.skipped").Value(); got != int64(folds) {
		t.Errorf("merge loaded %d units from the checkpoint, want all %d", got, folds)
	}
	if got := o.Metrics().Counter("sweep.units.done").Value(); got != int64(folds) {
		t.Errorf("%d units computed across the shard jobs, want %d", got, folds)
	}

	// A checkpoint-less server computing the same sweep from scratch agrees
	// on every fold digest.
	direct := newTestServer(t, Options{Pool: 1})
	djob, err := direct.Submit(sweepSpec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, djob, 10*time.Minute)
	if st := direct.Status(djob); st.State != StateDone {
		t.Fatalf("direct job state %s, error %q", st.State, st.Error)
	}
	dres, _ := direct.Result(djob)
	want := dres.Sweep.Configs[0]
	got := mres.Sweep.Configs[0]
	if len(got.Designs) != len(want.Designs) {
		t.Fatalf("merged sweep has %d designs, direct %d", len(got.Designs), len(want.Designs))
	}
	for i := range want.Designs {
		if got.Designs[i].EvalDigest != want.Designs[i].EvalDigest {
			t.Errorf("design %s: merged digest %s != direct %s",
				want.Designs[i].Design, got.Designs[i].EvalDigest, want.Designs[i].EvalDigest)
		}
	}
}

// TestServeShardedSweepKeysByOptions: a sharded sweep plans through the
// suite's PlanRuns, whose dedup keys configs by options hash, so two configs
// that share a display name but not their options own a unit per fold each.
func TestServeShardedSweepKeysByOptions(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1, CheckpointDir: t.TempDir()})
	spec := sweepSpec(1, 1)
	spec.Configs = []ConfigSpec{{Preset: "ML-9"}, {Preset: "ML-9", NumTrees: 1}}
	got := runSweepJob(t, s, spec)
	const want = 2 * 5 // 2 configs × 5 standard designs
	if got.Units == nil || got.Units.Owned != want {
		t.Fatalf("sharded sweep units %+v, want %d owned", got.Units, want)
	}
}

// runSweepJob submits spec, waits for it, and returns its sweep result.
func runSweepJob(t *testing.T, s *Server, spec JobSpec) *SweepResult {
	t.Helper()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job, 10*time.Minute)
	if st := s.Status(job); st.State != StateDone {
		t.Fatalf("sweep job state %s, error %q", st.State, st.Error)
	}
	res, _ := s.Result(job)
	if res.Sweep == nil {
		t.Fatal("sweep job returned no sweep result")
	}
	return res.Sweep
}

// TestShardCLIUnitsServeMerge is the cross-tool half of the sharded-sweep
// contract: folds an `experiments -shard` worker computes (Suite.RunPlan)
// land under the same unit keys a server sweep job builds, so a server
// sharing the checkpoint directory loads every fold instead of computing
// it, and reproduces a checkpoint-less server's digests.
func TestShardCLIUnitsServeMerge(t *testing.T) {
	ckDir := t.TempDir()
	suite, err := experiments.NewSuiteTier(nil, layout.TierStandard, testScale, testSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Checkpoint, err = sweep.Open(ckDir); err != nil {
		t.Fatal(err)
	}
	stats, err := suite.RunPlan(suite.PlanRuns([]experiments.RunSpec{{Config: attack.ML9(), Layer: 8}}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Planned == 0 || stats.Computed != stats.Planned {
		t.Fatalf("CLI plan %s; want every unit computed", stats)
	}

	o := obs.New(obs.Options{Command: "serve-test"})
	s := newTestServer(t, Options{Obs: o, Pool: 1, CheckpointDir: ckDir})
	got := runSweepJob(t, s, sweepSpec(0, 0))
	if len(got.Configs) != 1 {
		t.Fatalf("merge job returned %d config aggregates, want 1", len(got.Configs))
	}
	folds := len(got.Configs[0].Designs)
	if folds != stats.Planned {
		t.Fatalf("server sweep has %d folds, CLI planned %d", folds, stats.Planned)
	}
	if n := o.Metrics().Counter("sweep.units.skipped").Value(); n != int64(folds) {
		t.Errorf("server loaded %d CLI-computed units, want all %d", n, folds)
	}
	if n := o.Metrics().Counter("sweep.units.done").Value(); n != 0 {
		t.Errorf("server computed %d units the CLI had already checkpointed", n)
	}

	want := runSweepJob(t, newTestServer(t, Options{Pool: 1}), sweepSpec(0, 0)).Configs[0]
	for i, d := range want.Designs {
		if g := got.Configs[0].Designs[i]; g.EvalDigest != d.EvalDigest {
			t.Errorf("design %s: digest %s from CLI units, %s computed by the server", d.Design, g.EvalDigest, d.EvalDigest)
		}
	}
}

// TestServeShardSpecValidation exercises submission-time rejection of bad
// shard coordinates and checks the shard shows up in job statuses.
func TestServeShardSpecValidation(t *testing.T) {
	noCk := newTestServer(t, Options{Pool: 1, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed})
	if _, err := noCk.Submit(sweepSpec(1, 3)); err == nil {
		t.Error("sharded sweep accepted by a server without a checkpoint directory")
	}

	s := newTestServer(t, Options{Pool: 1, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed, CheckpointDir: t.TempDir()})
	bad := []struct {
		name string
		spec JobSpec
	}{
		{"shard on attack", func() JobSpec {
			spec := attackSpec("sb1")
			spec.Shard, spec.Of = 1, 3
			return spec
		}()},
		{"index out of range", sweepSpec(4, 3)},
		{"index without count", sweepSpec(2, 0)},
		{"count without index", sweepSpec(0, 3)},
		{"negative index", sweepSpec(-1, 3)},
	}
	for _, tc := range bad {
		if _, err := s.Submit(tc.spec); err == nil {
			t.Errorf("%s: submission unexpectedly accepted", tc.name)
		}
	}

	job, err := s.Submit(sweepSpec(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Status(job).Shard; got != "2/3" {
		t.Errorf("status shard = %q, want \"2/3\"", got)
	}
	waitTerminal(t, job, 30*time.Second)
	plain, err := s.Submit(sweepSpec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Status(plain).Shard; got != "" {
		t.Errorf("unsharded job status shard = %q, want empty", got)
	}
	waitTerminal(t, plain, 30*time.Second)
}

// TestServeListStateFilter exercises GET /jobs?state=: a matching filter
// keeps only jobs in that state, an empty match serves [] (not null), and
// an unknown state is a 400.
func TestServeListStateFilter(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1, Queue: 4, runner: stubRunner})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for i := 0; i < 2; i++ {
		job, err := s.Submit(attackSpec("sb1"))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job, 30*time.Second)
	}

	list := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	resp, body := list("?state=done")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?state=done status %d: %s", resp.StatusCode, body)
	}
	var statuses []JobStatus
	if err := json.Unmarshal(body, &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Errorf("?state=done listed %d jobs, want 2", len(statuses))
	}
	for _, st := range statuses {
		if st.State != StateDone {
			t.Errorf("job %s state %s leaked through the done filter", st.ID, st.State)
		}
	}

	resp, body = list("?state=pending")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?state=pending status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 0 {
		t.Errorf("?state=pending listed %d jobs, want 0", len(statuses))
	}
	if string(body) != "[]\n" && string(body) != "[]" {
		t.Errorf("empty filter result body %q, want a JSON array, not null", body)
	}

	resp, body = list("?state=enlightened")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown state status %d: %s", resp.StatusCode, body)
	}
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Error.Code != "invalid_spec" {
		t.Errorf("unknown state error code %q, want invalid_spec", apiErr.Error.Code)
	}
}
