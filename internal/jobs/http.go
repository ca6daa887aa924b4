package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"

	"deep500/internal/obs/trace"
)

// maxSpecBytes bounds a submitted job spec's body.
const maxSpecBytes = 1 << 20

// Handler builds the trainer-service HTTP API over a Manager:
//
//	POST   /v1/jobs                 submit a Spec, returns the Job
//	GET    /v1/jobs                 list jobs
//	GET    /v1/jobs/{id}            one job's full status
//	DELETE /v1/jobs/{id}            cancel
//	GET    /v1/jobs/{id}/peers      rank → transport address table
//	POST   /v1/jobs/{id}/register   rank callback: transport address + pid
//	POST   /v1/jobs/{id}/heartbeat  rank callback: liveness + progress
//	POST   /v1/jobs/{id}/done       rank callback: clean completion
//	POST   /v1/jobs/{id}/spans      rank callback: trace-span upload
//	GET    /metrics                 Prometheus text exposition
//	GET    /healthz
//
// A submitted spec is decoded strictly: an unknown field (a misspelt
// "worker") is a 400, not a silent default.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
			return
		}
		// An inbound d500-trace header grafts the job onto the caller's
		// trace (same contract as the serve endpoints).
		if spec.Trace == "" {
			if rm, ok := trace.Parse(r.Header.Get(trace.HeaderName)); ok {
				spec.Trace = trace.Format(rm.Trace, rm.Span)
			}
		}
		job, err := m.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if job.Spec.Trace != "" {
			w.Header().Set(trace.HeaderName, job.Spec.Trace)
		}
		writeJSON(w, http.StatusAccepted, job)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": m.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Get(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/peers", func(w http.ResponseWriter, r *http.Request) {
		addrs, err := m.PeerAddrs(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"addrs": addrs})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/register", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Rank int    `json:"rank"`
			Addr string `json:"addr"`
			PID  int    `json:"pid"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := m.Register(r.PathValue("id"), body.Rank, body.Addr, body.PID); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Rank int     `json:"rank"`
			Step int     `json:"step"`
			Loss float64 `json:"loss"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := m.Heartbeat(r.PathValue("id"), body.Rank, body.Step, body.Loss); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/done", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Rank int     `json:"rank"`
			Step int     `json:"step"`
			Loss float64 `json:"loss"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := m.Done(r.PathValue("id"), body.Rank, body.Step, body.Loss); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/spans", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Spans []trace.SpanData `json:"spans"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding spans: %w", err))
			return
		}
		if err := m.IngestSpans(r.PathValue("id"), body.Spans); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "spans": len(body.Spans)})
	})
	mux.Handle("GET /metrics", m.Metrics().Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
