// Command splitserved is the attack-as-a-service server: a long-running
// JSON-over-HTTP job service exposing the engine's train / attack /
// proximity / sweep stages as asynchronous jobs over a shared warm model
// cache. See API.md for the endpoint reference; the short version:
//
//	splitserved -addr :8080 -state /var/lib/splitserved &
//	curl -s -X POST localhost:8080/jobs \
//	  -d '{"kind":"attack","design":"sb1","layer":8,"config":{"preset":"Imp-11"}}'
//	curl -s localhost:8080/jobs/j-000001
//	curl -s localhost:8080/jobs/j-000001/result
//
// Jobs run on a bounded pool (-pool) behind a bounded queue (-queue;
// overflow is rejected with 429), cancel via DELETE /jobs/{id}, and — with
// -state — survive restarts: finished jobs keep serving their results,
// pending jobs resume, and jobs that died mid-run come back as
// "interrupted". The obs telemetry endpoints (/metrics, /progress, /spans,
// /healthz, /debug/pprof) are mounted on the same address.
//
// An Evaluation fetched through the job API is bit-identical to the same
// configuration run via cmd/splitattack: serving changes scheduling, never
// results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("splitserved", flag.ExitOnError)
	app := cli.New("splitserved", fs)
	addr := fs.String("addr", ":8080", "HTTP listen address (host:port; :0 for an ephemeral port)")
	pool := fs.Int("pool", serve.DefaultPool, "concurrently running jobs")
	queue := fs.Int("queue", serve.DefaultQueue, "pending-job queue bound; overflow is rejected with 429")
	state := fs.String("state", "", "state directory for job/result persistence across restarts (empty = memory only)")
	checkpoint := fs.String("checkpoint", "",
		"sweep checkpoint directory for per-fold partials (sharded sweep jobs; default <state>/checkpoints when -state is set)")
	o := app.Parse(os.Args[1:])
	if o == nil {
		// The server always carries an obs context: /metrics and /progress
		// are part of the API, not an opt-in extra.
		o = obs.New(obs.Options{Command: "splitserved"})
	}

	srv, err := serve.New(serve.Options{
		Obs:           o,
		Store:         app.ModelStore(),
		Workers:       app.Workers(),
		Pool:          *pool,
		Queue:         *queue,
		StateDir:      *state,
		CheckpointDir: *checkpoint,
		DefaultTier:   app.Tier,
		DefaultScale:  app.Scale,
		DefaultSeed:   app.Seed,
	})
	if err != nil {
		cli.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatal(err)
	}
	httpSrv := obs.NewHTTPServer(srv.Handler())
	fmt.Printf("splitserved listening on http://%s (pool %d, queue %d)\n",
		ln.Addr(), *pool, *queue)
	if *state != "" {
		fmt.Printf("state dir %s\n", *state)
	}

	// Serve until SIGINT/SIGTERM, then shut down gracefully: stop
	// accepting, cancel running jobs (persisted as interrupted), leave
	// pending jobs on disk for the next start.
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("received %v, shutting down\n", sig)
		if err := httpSrv.Close(); err != nil {
			o.Log().Warn("http close", "err", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			cli.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		cli.Fatal(err)
	}

	jobs := srv.Jobs()
	byState := map[string]int{}
	for _, j := range jobs {
		byState[string(srv.Status(j).State)]++
	}
	app.Finish(o, map[string]any{
		"addr": ln.Addr().String(), "pool": *pool, "queue": *queue, "state": *state,
	}, map[string]any{
		"jobs": len(jobs), "by_state": byState,
	})
}
