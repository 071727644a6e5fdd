package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

func TestServerEndpoints(t *testing.T) {
	o := New(Options{Command: "test"})
	o.Metrics().Counter("attack.targets").Add(5)
	sp := o.Begin("run", F("cfg", "Imp-11"))
	prog := o.NewProgress("work", 4)
	prog.Add(1)

	srv, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	code, ctype, body := get(t, base+"/healthz")
	if code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, ctype, body = get(t, base+"/metrics")
	if code != 200 {
		t.Errorf("/metrics = %d", code)
	}
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content-type = %q", ctype)
	}
	if !strings.Contains(body, "# TYPE attack_targets counter\nattack_targets 5\n") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "progress_work_done 1") {
		t.Errorf("/metrics missing progress gauge:\n%s", body)
	}

	code, ctype, body = get(t, base+"/progress")
	if code != 200 || ctype != "application/json" {
		t.Errorf("/progress = %d %q", code, ctype)
	}
	var sts []ProgressStatus
	if err := json.Unmarshal([]byte(body), &sts); err != nil {
		t.Fatalf("/progress invalid JSON: %v", err)
	}
	if len(sts) != 1 || sts[0].Name != "work" || sts[0].Done != 1 {
		t.Errorf("/progress = %+v", sts)
	}

	code, _, body = get(t, base+"/spans")
	if code != 200 {
		t.Errorf("/spans = %d", code)
	}
	var spans []*SpanReport
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/spans invalid JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "run" || !spans[0].Running {
		t.Errorf("/spans = %+v", spans)
	}
	sp.End()
	_, _, body = get(t, base+"/spans")
	spans = nil // Running is omitempty: don't merge into the old snapshot
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if spans[0].Running {
		t.Error("/spans still reports the ended span as running")
	}

	code, _, body = get(t, base+"/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	code, _, _ = get(t, base+"/nosuch")
	if code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
	code, _, body = get(t, base+"/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}

	if srv.Addr() == "" {
		t.Error("Addr empty on a listening server")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestServeNilContext(t *testing.T) {
	var o *Context
	if _, err := o.Serve("127.0.0.1:0"); err == nil {
		t.Error("nil context Serve must fail")
	}
	var s *Server
	if s.Addr() != "" {
		t.Error("nil server has an address")
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil server Close: %v", err)
	}
}

func TestServeBadAddress(t *testing.T) {
	o := New(Options{Command: "test"})
	if _, err := o.Serve("definitely:not:an:addr"); err == nil {
		t.Error("bad address accepted")
	}
}

// TestServeConnectionTimeouts: the telemetry server drops clients that
// never finish their headers or idle on keep-alive connections, so a slow
// client cannot pin a connection and its goroutine forever. splitserved
// builds its server through the same NewHTTPServer.
func TestServeConnectionTimeouts(t *testing.T) {
	o := New(Options{Command: "test"})
	s, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.srv.ReadHeaderTimeout; got != readHeaderTimeout || got <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, readHeaderTimeout)
	}
	if got := s.srv.IdleTimeout; got != idleTimeout || got <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", got, idleTimeout)
	}
	if code, _, _ := get(t, "http://"+s.Addr()+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz status %d with timeouts set", code)
	}
}

// TestServerConcurrentWithRun hammers the registry, span tree, trace
// recorder, and progress trackers from worker goroutines while others
// scrape every live endpoint — the -race CI job turns any unsynchronized
// access into a failure. It also re-checks the serving-doesn't-perturb
// claim: the counters must come out exact.
func TestServerConcurrentWithRun(t *testing.T) {
	o := New(Options{Command: "race"})
	o.EnableTrace(1 << 10)
	srv, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const workers, iters = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prog := o.NewProgress(fmt.Sprintf("hammer.%d", w), iters)
			root := o.Begin("hammer", F("worker", w))
			for i := 0; i < iters; i++ {
				sp := root.Begin("unit", F("i", i))
				sp.Count("n", 1)
				o.Metrics().Counter("hits").Inc()
				o.Metrics().Histogram("lat").Observe(float64(i))
				o.Metrics().Gauge("last").Set(float64(i))
				sp.End()
				prog.Add(1)
			}
			root.End()
			prog.Finish()
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, ep := range []string{"/metrics", "/spans", "/progress", "/healthz"} {
					resp, err := http.Get(base + ep)
					if err != nil {
						t.Errorf("GET %s: %v", ep, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	if v := o.Metrics().Counter("hits").Value(); v != workers*iters {
		t.Errorf("hits = %d, want %d — serving perturbed the run", v, workers*iters)
	}
	snap := o.Metrics().Snapshot()
	if snap.Histograms["lat"].Count != workers*iters {
		t.Errorf("histogram count = %d, want %d", snap.Histograms["lat"].Count, workers*iters)
	}
	for _, st := range o.ProgressStatuses() {
		if st.Done != iters || !st.Finished {
			t.Errorf("tracker %s = %+v", st.Name, st)
		}
	}
}
