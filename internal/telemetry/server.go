package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Server publishes a registry over HTTP: /metrics (Prometheus text),
// /healthz (liveness), /campaign (live campaign status) and /debug/pprof
// (runtime profiles, with simulations labelled by cell and experiment).
// It is the opt-in side channel behind `portbench -listen`; nothing in
// the simulator ever talks to it — scrapes only read registry snapshots
// and campaign atomics.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	reg      *Registry
	start    time.Time
	campaign atomic.Pointer[Campaign]
}

// Serve binds addr (host:port; :0 picks a free port) and serves the
// registry until Close or Shutdown. It returns once the listener is
// bound, so the caller can report the concrete address before the
// campaign starts.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, reg: reg, start: time.Now()}
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

// SetCampaign attaches the campaign /campaign reports on. Safe to call at
// any time, including never (the endpoint then reports no campaign).
func (s *Server) SetCampaign(c *Campaign) { s.campaign.Store(c) }

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
	c := s.campaign.Load()
	if c == nil {
		http.Error(w, `{"error":"no campaign attached"}`, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, s.reg.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}
