package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

const (
	// serveScale sizes the serve-mix workload: one pass of 150 jobs takes
	// about 8 s on a 2-core machine.
	serveScale = 0.18
	// serveClients is the number of closed-loop clients; it equals the
	// server's default pool, so jobs rarely wait in the queue.
	serveClients = serve.DefaultPool
	// servePoll is the status-poll interval, well below the median job.
	servePoll = 2 * time.Millisecond
	// serveJobSeed is the seed of every job. The job API takes one seed for
	// the layouts and the attack alike, and the median job's latency
	// follows the layouts' sizes, so the jobs stay fixed — as repro's and
	// industrial-score's designs do — and the run's seed shuffles their
	// order, which decides what runs next to what and which submission of
	// a spec trains.
	serveJobSeed = 1
)

// serveJob is one distinct attack job of the mix.
type serveJob struct {
	design   string
	layer    int
	preset   string
	twoLevel bool
}

func (j serveJob) key() string {
	k := fmt.Sprintf("%s/L%d/%s", j.design, j.layer, j.preset)
	if j.twoLevel {
		k += "-2L"
	}
	return k
}

// serveSubmissions is how often the sequence submits each distinct job: the
// first submission misses the model store (train, then score), the others
// hit it (score only). With two, the median job would sit on the boundary
// between the two latency modes and move with any shift between them; with
// three, job_latency_p50_s falls inside the store-hit mode and
// job_latency_p90_s inside the training mode.
const serveSubmissions = 3

// serveSequence is the job sequence of a seed: every distinct job
// serveSubmissions times, in a seeded shuffle.
func serveSequence(seed int64) []serveJob {
	var distinct []serveJob
	for _, d := range []string{"sb1", "sb5", "sb10", "sb12", "sb18"} {
		for _, layer := range []int{6, 8} {
			for _, c := range []serveJob{{preset: "ML-9"}, {preset: "Imp-9"}, {preset: "Imp-7"}, {preset: "Imp-11"}, {preset: "Imp-11", twoLevel: true}} {
				c.design, c.layer = d, layer
				distinct = append(distinct, c)
			}
		}
	}
	var seq []serveJob
	for range serveSubmissions {
		seq = append(seq, distinct...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	return seq
}

// body is the POST /jobs document of the job.
func (j serveJob) body(p params) ([]byte, error) {
	seed := int64(serveJobSeed)
	cs := &serve.ConfigSpec{Preset: j.preset}
	if j.twoLevel {
		on := true
		cs.TwoLevel = &on
	}
	return json.Marshal(serve.JobSpec{Kind: serve.KindAttack, Design: j.design, Layer: j.layer,
		Scale: p.scale, Seed: &seed, Config: cs})
}

// jobRecord is what a client saw of one job.
type jobRecord struct {
	refused  bool
	state    serve.JobState
	latency  time.Duration // POST sent to result body read
	status   serve.JobStatus
	digest   string
	trainNS  int64
	testNS   int64
	pairs    int64
	errorMsg string
}

// client is a closed-loop job client of one server.
type client struct {
	http *http.Client
	base string
}

// run submits one job, polls its status until it is terminal and reads
// its result.
func (c client) run(body []byte) (jobRecord, error) {
	var rec jobRecord
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rec, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		rec.refused = true
		return rec, nil
	default:
		return rec, fmt.Errorf("POST /jobs: %s: %s", resp.Status, raw)
	}
	if err := json.Unmarshal(raw, &rec.status); err != nil {
		return rec, fmt.Errorf("POST /jobs: %w", err)
	}
	for !rec.status.State.Terminal() {
		time.Sleep(servePoll)
		if err := c.get("/jobs/"+rec.status.ID, &rec.status); err != nil {
			return rec, err
		}
	}
	rec.state = rec.status.State
	if rec.state != serve.StateDone {
		rec.errorMsg = rec.status.Error
		rec.latency = time.Since(t0)
		return rec, nil
	}
	resp, err = c.http.Get(c.base + "/jobs/" + rec.status.ID + "/result")
	if err != nil {
		return rec, err
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(t0)
	if err != nil {
		return rec, err
	}
	if resp.StatusCode != http.StatusOK {
		return rec, fmt.Errorf("GET result: %s: %s", resp.Status, raw)
	}
	var res struct {
		Attack struct {
			EvalDigest  string `json:"eval_digest"`
			TrainNS     int64  `json:"train_ns"`
			TestNS      int64  `json:"test_ns"`
			PairsScored int64  `json:"pairs_scored"`
		} `json:"attack"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return rec, fmt.Errorf("GET result: %w", err)
	}
	rec.digest, rec.trainNS, rec.testNS, rec.pairs = res.Attack.EvalDigest, res.Attack.TrainNS, res.Attack.TestNS, res.Attack.PairsScored
	return rec, nil
}

// get decodes one JSON GET response.
func (c client) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // best effort, for the error message
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, raw)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// loop runs the bodies on serveClients closed-loop clients, each taking the
// next unsent job when its previous one is done.
func (c client) loop(bodies [][]byte) ([]jobRecord, error) {
	recs := make([]jobRecord, len(bodies))
	errs := make([]error, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				recs[i], errs[i] = c.run(bodies[i])
			}
		}()
	}
	wg.Wait()
	return recs, errors.Join(errs...)
}

// servePass is one pass of the mix against a fresh server: start the
// server and warm its instance cache (set-up), then run the sequence.
type servePass struct {
	setup, wall time.Duration
	recs        []jobRecord
	spans       spanTotals
	hits        int64
	misses      int64
}

func runServePass(p params, bodies [][]byte, traced bool) (*servePass, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	defer tr.CloseIdleConnections()
	defer func() {
		hs.Shutdown(context.Background()) //nolint:errcheck // the pass is over; Serve's result is awaited below
		<-served
	}()
	c := client{http: &http.Client{Transport: tr}, base: "http://" + ln.Addr().String()}

	// Warm-up: one cheap train job per split layer (a one-tree ML-9, a
	// spec the sequence never submits) makes the server build the shared
	// instances of both layers.
	var warm [][]byte
	for _, layer := range []int{6, 8} {
		seed := int64(serveJobSeed)
		b, err := json.Marshal(serve.JobSpec{Kind: serve.KindTrain, Design: "sb1", Layer: layer,
			Scale: p.scale, Seed: &seed, Config: &serve.ConfigSpec{Preset: "ML-9", NumTrees: 1}})
		if err != nil {
			return nil, err
		}
		warm = append(warm, b)
	}
	recs, err := c.loop(warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, r := range recs {
		if r.state != serve.StateDone {
			return nil, fmt.Errorf("warm-up job %s: %s", r.state, r.errorMsg)
		}
	}
	store := srv.Obs().Metrics().Cache("model.artifacts")
	hits0, misses0 := store.Hits(), store.Misses()
	pass := &servePass{setup: time.Since(t0)}

	t1 := time.Now()
	pass.recs, err = c.loop(bodies)
	pass.wall = time.Since(t1)
	if err != nil {
		return nil, err
	}
	pass.hits, pass.misses = store.Hits()-hits0, store.Misses()-misses0
	if traced {
		pass.spans = sumSpans(srv.Obs().SpansReport())
	}
	return pass, nil
}

// runServeMix is the job service reached the way users reach it: an
// in-process serve.Server behind its Handler on loopback HTTP, driven by
// serveClients closed-loop clients that POST an attack job, poll its
// status and read its result. Each pass starts a fresh server, so the
// model store is cold and the first submission of every spec trains.
func runServeMix(p params) (*outcome, map[string]string, error) {
	out := &outcome{workload: "serve-mix", seed: p.seed}
	seq := serveSequence(p.seed)
	bodies := make([][]byte, len(seq))
	for i, j := range seq {
		b, err := j.body(p)
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	var wall, traced, setup, latency []float64
	var first map[string]string
	l := layers{}
	err := passes(p, func(i int) error {
		isTraced := tracedPass(p, i)
		settle()
		pass, err := runServePass(p, bodies, isTraced)
		if err != nil {
			return err
		}
		setup = append(setup, seconds(pass.setup))
		if isTraced {
			traced = append(traced, seconds(pass.wall))
		} else {
			wall = append(wall, seconds(pass.wall))
		}
		checks := serveChecks(out, seq, pass)
		if first == nil {
			first = checks
		} else if diff := diffChecks(checks, first); diff != "" {
			out.fail("pass %d differs from pass 0: %s", i, diff)
		}
		for _, r := range pass.recs {
			if !r.refused {
				latency = append(latency, seconds(r.latency))
			}
		}
		if isTraced {
			serveLayersOf(l, seq, pass)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out.verify(first, p.expect)
	out.endToEnd = endToEnd(wall, setup, latency)
	out.perLayer = l.metrics(overheadFrac(wall, traced))
	return out, first, nil
}

// serveChecks counts the pass's jobs as operations, fails refused and
// failed jobs and any job whose digest differs from another submission of
// its spec, and returns the pass's check values: a digest over every
// spec's evaluation digest, the scored pairs and the store's hits and
// misses.
func serveChecks(out *outcome, seq []serveJob, pass *servePass) map[string]string {
	digests := map[string]string{}
	var pairs int64
	for i, r := range pass.recs {
		out.attempted++
		k := seq[i].key()
		switch {
		case r.refused:
			out.fail("job %d (%s) refused with 429", i, k)
			continue
		case r.state != serve.StateDone:
			out.fail("job %d (%s) %s: %s", i, k, r.state, r.errorMsg)
			continue
		}
		pairs += r.pairs
		if d, ok := digests[k]; ok && d != r.digest {
			out.fail("job %d (%s) digest %.12s differs from another submission's %.12s", i, k, r.digest, d)
		}
		digests[k] = r.digest
	}
	h := sha256.New()
	for _, k := range sortedKeys(digests) {
		fmt.Fprintf(h, "%s %s\n", k, digests[k])
	}
	return map[string]string{
		"jobs.digest":          hex.EncodeToString(h.Sum(nil)),
		"pairs.scored":         itoa(pairs),
		"model.artifacts.hit":  itoa(pass.hits),
		"model.artifacts.miss": itoa(pass.misses),
	}
}

// serveLayersOf records one traced pass's per-layer figures.
func serveLayersOf(l layers, seq []serveJob, pass *servePass) {
	var wait, run, overhead, firstLat, repeatLat []float64
	var trainNS, testNS, pairs int64
	var done, failed, refused int
	seen := map[string]bool{}
	for i, r := range pass.recs {
		switch {
		case r.refused:
			refused++
			continue
		case r.state != serve.StateDone:
			failed++
			continue
		}
		done++
		st := r.status
		if st.Started == nil || st.Finished == nil {
			continue
		}
		created, started, finished := st.Created, *st.Started, *st.Finished
		wait = append(wait, seconds(started.Sub(created)))
		run = append(run, seconds(finished.Sub(started)))
		overhead = append(overhead, seconds(r.latency-finished.Sub(created)))
		k := seq[i].key()
		if seen[k] {
			repeatLat = append(repeatLat, seconds(r.latency))
		} else {
			firstLat = append(firstLat, seconds(r.latency))
		}
		seen[k] = true
		trainNS += r.trainNS
		testNS += r.testNS
		pairs += r.pairs
	}
	l.add("layout.generate_s", seconds(pass.spans.dur["layout.suite"]))
	l.add("split.challenge_s", seconds(pass.spans.dur["split.challenge"]))
	l.add("pairs.scored", float64(pairs))
	l.add("model.store_hits", float64(pass.hits))
	l.add("model.store_misses", float64(pass.misses))
	if pass.hits+pass.misses > 0 {
		l.add("model.store_hit_frac", float64(pass.hits)/float64(pass.hits+pass.misses))
	}
	l.add("attack.job_train_s", seconds(time.Duration(trainNS)))
	l.add("attack.job_score_s", seconds(time.Duration(testNS)))
	for name, xs := range map[string][]float64{
		"serve.queue_wait_p50_s":     wait,
		"serve.run_p50_s":            run,
		"serve.overhead_p50_s":       overhead,
		"serve.first_latency_p50_s":  firstLat,
		"serve.repeat_latency_p50_s": repeatLat,
	} {
		if len(xs) > 0 {
			l.add(name, quantile(xs, 0.5))
		}
	}
	l.add("serve.jobs_done", float64(done))
	l.add("serve.jobs_failed", float64(failed))
	l.add("serve.refused", float64(refused))
}
