package main

// The daemon's introspection server (-debug ADDR): live metrics,
// health, recent query traces, and the standard pprof handlers — on a
// separate listener so operator traffic never competes with the
// overlay's TCP transport.
//
//	GET /metrics        Prometheus text: the node's unified registry
//	GET /healthz        JSON liveness (200 / 503): routes + WAL state
//	GET /trace/recent   JSON array of the last-N query trace trees
//	GET /debug/pprof/   CPU/heap/goroutine profiles

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"unistore/internal/core"
	"unistore/internal/trace"
)

// startDebug binds the debug listener and serves it in the background,
// returning the resolved address.
func startDebug(c *core.Cluster, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := c.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/trace/recent", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		recent := c.TraceLog().Recent()
		if recent == nil {
			recent = []*trace.QueryTrace{}
		}
		_ = json.NewEncoder(w).Encode(recent)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
