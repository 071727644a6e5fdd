package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Mount registers the live telemetry endpoints on a caller-provided mux
// and returns their paths (for index pages):
//
//	/healthz     liveness probe ("ok")
//	/metrics     the metrics registry in Prometheus text exposition format
//	/progress    JSON snapshots of every Progress tracker
//	/spans       the live span tree as JSON (running spans included)
//	/debug/pprof the standard runtime profiles
//
// Every endpoint reads point-in-time snapshots of state the run maintains
// anyway, so serving never perturbs results: no randomness is consumed and
// no run data is mutated. Mount is how a service (the splitserved job
// server) grafts telemetry onto its own mux; Handler wraps it with an
// index for standalone -serve-obs use. A nil context serves 503 on
// everything but /healthz.
func (o *Context) Mount(mux *http.ServeMux) []string {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if o == nil {
			http.Error(w, "observability disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Metrics().Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		ServeJSON(w, o.ProgressStatuses())
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		ServeJSON(w, o.SpansReport())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return []string{"/healthz", "/metrics", "/progress", "/spans", "/debug/pprof/"}
}

// Handler returns the standalone live telemetry HTTP handler of the
// context: every Mount endpoint plus a plain-text index at "/".
func (o *Context) Handler() http.Handler {
	mux := http.NewServeMux()
	endpoints := o.Mount(mux)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "live telemetry endpoints:")
		for _, ep := range endpoints {
			fmt.Fprintf(w, "  %s\n", ep)
		}
	})
	return mux
}

// ServeJSON writes v as indented JSON with the right content type; it is
// the one JSON response path shared by the telemetry endpoints and the job
// server's API handlers.
func ServeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Connection limits of the telemetry and splitserved HTTP servers: a client
// that never finishes its headers, or idles on keep-alive, is dropped
// instead of pinning a connection and its goroutine forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for h with those limits.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Server is a running live telemetry HTTP server.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the telemetry server on addr (e.g. ":9090", or
// "127.0.0.1:0" for an ephemeral port) and returns once it is listening.
// Requests are handled on background goroutines for the life of the run;
// call Close to stop. Serving requires an enabled context.
func (o *Context) Serve(addr string) (*Server, error) {
	if o == nil {
		return nil, errors.New("obs: serve: observability context is disabled")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve: %w", err)
	}
	s := &Server{srv: NewHTTPServer(o.Handler()), ln: ln}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the server's bound address ("127.0.0.1:37213").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close gracefully shuts the server down, waiting briefly for in-flight
// requests.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
