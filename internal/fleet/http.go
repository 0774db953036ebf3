package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"farm/internal/tasks"
)

// The HTTP operator API (the monitoring-server role of a production
// collector):
//
//	GET    /healthz        readiness: leader present, not draining
//	GET    /metrics        MetricsSnapshot (the fabric's meter set: totals and per-switch meters; wire, placement)
//	GET    /tasks          StatusSnapshot (deployed tasks + placements)
//	POST   /tasks          {"name": "<catalogue task>"} → submit
//	DELETE /tasks/{name}   retire
//	POST   /failover       kill the active replica (failover drill)
//	POST   /drain          stop admitting new tasks
//
// Reads are snapshots taken on the engine goroutine; mutations go
// through the same single-writer path as the RPC ops.
//
// What a client may make the server hold is bounded: request headers
// must arrive within httpReadHeaderTimeout or the connection is closed,
// and a request body is read up to httpMaxBodyBytes (a submit is a task
// name) and refused with 413 beyond that.

const httpMaxBodyBytes = 64 << 10

// A variable only so that a test need not wait it out.
var httpReadHeaderTimeout = 5 * time.Second

type httpState struct {
	srv *http.Server
	ln  net.Listener
}

func (s *Service) startHTTP() error {
	if s.cfg.HTTPAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /tasks", s.handleTasksGet)
	mux.HandleFunc("POST /tasks", s.handleTaskSubmit)
	mux.HandleFunc("DELETE /tasks/{name}", s.handleTaskRetire)
	mux.HandleFunc("POST /failover", s.handleFailover)
	mux.HandleFunc("POST /drain", s.handleDrain)
	s.httpState.ln = ln
	s.httpState.srv = &http.Server{Handler: mux, ReadHeaderTimeout: httpReadHeaderTimeout}
	go func() {
		if err := s.httpState.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logf("fleet: http server: %v", err)
		}
	}()
	return nil
}

func (s *Service) stopHTTP() {
	if s.httpState.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.httpState.srv.Shutdown(ctx); err != nil {
		s.stopErr = errors.Join(s.stopErr, err)
	}
}

// HTTPAddr returns the HTTP listen address ("" when disabled).
func (s *Service) HTTPAddr() string {
	if s.httpState.ln == nil {
		return ""
	}
	return s.httpState.ln.Addr().String()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNoLeader):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrDraining):
		code = http.StatusConflict
	case errors.Is(err, ErrStopped):
		code = http.StatusServiceUnavailable
	case errors.Is(err, tasks.ErrUnknownTask):
		code = http.StatusNotFound
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// healthzPayload is the /healthz body.
type healthzPayload struct {
	Ready    bool   `json:"ready"`
	Leader   string `json:"leader,omitempty"`
	Term     uint64 `json:"term"`
	Draining bool   `json:"draining"`
}

// handleHealthz answers from lock-free state only — it must stay
// responsive while the engine goroutine is busy, and it must go
// not-ready the instant the leader dies and ready again the instant
// the standby finishes its takeover replan.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	name, term, ok := s.Leader()
	p := healthzPayload{Ready: ok && !s.draining.Load(), Leader: name, Term: term, Draining: s.draining.Load()}
	code := http.StatusOK
	if !p.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, p)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m, err := s.Metrics()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Service) handleTasksGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleTaskSubmit(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Name string `json:"name"`
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, httpMaxBodyBytes)).Decode(&body)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": fmt.Sprintf("body exceeds %d bytes", httpMaxBodyBytes)})
		return
	}
	if err != nil || body.Name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": `body must be {"name": "<task>"}`})
		return
	}
	if err := s.Submit(body.Name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"submitted": body.Name})
}

func (s *Service) handleTaskRetire(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.Retire(name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"retired": name})
}

func (s *Service) handleFailover(w http.ResponseWriter, r *http.Request) {
	if err := s.KillLeader(); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": fmt.Sprintf("leader killed; standby takes over within %v", s.cfg.HeartbeatTimeout+2*s.cfg.HeartbeatInterval)})
}

func (s *Service) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
}
