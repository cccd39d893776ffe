package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server publishes a campaign record over HTTP: /metrics (Prometheus
// text), /healthz (liveness), /campaign (live campaign status) and
// /debug/pprof (runtime profiles, with simulations labelled by cell and
// experiment). It is the opt-in side channel behind `portbench -listen`;
// nothing in the simulator ever talks to it — scrapes only read the
// record under its lock and the running cells' stack atomics.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	camp  *Campaign
	start time.Time
}

// Serve binds addr (host:port; :0 picks a free port) and serves camp
// until Close or Shutdown. It returns once the listener is bound, so the
// caller can report the concrete address before the campaign starts.
func Serve(addr string, camp *Campaign) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, camp: camp, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/campaign", s.handleCampaign)
	// pprof does not register itself here: the package-level handlers go to
	// http.DefaultServeMux, which this server never uses, so they are wired
	// explicitly. Profiles of a live campaign carry the runner's pprof
	// labels (cell, experiment, workload, machine).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound listen address (concrete even for :0 requests).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately and releases the port.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown gracefully stops the server: the listener closes at once (the
// port is released), then in-flight scrapes run to completion within the
// context's deadline.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// handleCampaign serves the live campaign status document.
func (s *Server) handleCampaign(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.camp.Status())
}

// handleMetrics renders the whole exposition before answering, so a
// malformed metric name fails the scrape instead of truncating its body.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var body bytes.Buffer
	if err := WritePrometheus(&body, s.camp.Metrics()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(body.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}
