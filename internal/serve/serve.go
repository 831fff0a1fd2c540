// Package serve exposes the session runtime over HTTP/JSON — the
// many-tenant serving surface of the simulator. The paper's machine is an
// always-on appliance: models stream spikes in and out while operators
// watch rate, power, and efficiency. tnserved reproduces that shape in
// software: each session is one chip running one model at its own tick
// rate, and the service hosts many concurrently (sessions are fully
// isolated — separate engines, separate spike streams — so each stream is
// exactly what a single-tenant run would produce). Sessions share a
// runtime.Scheduler: a fixed worker pool stepping batches of due sessions
// off a timing wheel, which is what lets one host carry thousands of
// paced sessions.
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/sessions                 create (netgen params or model file)
//	GET    /v1/sessions                 list; ?limit= &page_token= &state=running|paused
//	GET    /v1/sessions/{id}            stats snapshot
//	PATCH  /v1/sessions/{id}            reconfigure: tick_rate_hz, name, checkpoint_every
//	DELETE /v1/sessions/{id}            close and remove
//	POST   /v1/sessions/{id}/run        {"ticks":N}|{"until":T}, "wait":bool
//	POST   /v1/sessions/{id}/pause      → {"tick":T}
//	POST   /v1/sessions/{id}/resume     continue a paused run
//	POST   /v1/sessions/{id}/inject     absolute-tick events or delayed spikes
//	GET    /v1/sessions/{id}/outputs    drain; ?format=aer for spikeio text
//	GET    /v1/sessions/{id}/stream     live AER stream until disconnect
//	GET    /v1/sessions/{id}/checkpoint binary checkpoint download
//	POST   /v1/sessions/{id}/restore    binary checkpoint upload
//	GET    /metrics                     Prometheus-style text (incl. scheduler)
//	GET    /healthz                     liveness
//
// Errors. Every endpoint fails with one envelope:
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
//
// with stable codes: invalid_request (400), not_found (404), busy (409),
// session_closed (410), body_too_large (413), saturated (429, with
// Retry-After), shutting_down (503, with Retry-After), internal (500).
// "saturated" is the admission-control signal: the server is at its
// session cap or aggregate ticks/sec budget, or a session's queue of
// future injections is full; shed load or retry later.
//
// Model admission is gated exactly like tnsim: loaded model files and
// output-tapped generated networks verify under
// modelcheck.Options{AssumeExternalInput: true}; closed generated networks
// get the full static analysis; "force" skips verification explicitly.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"truenorth/internal/core"
	"truenorth/internal/model"
	"truenorth/internal/modelcheck"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/runtime"
	"truenorth/internal/sim"
)

// Stable machine-readable error codes (the "code" field of the error
// envelope). These are API: clients dispatch on them, so changing one is
// a breaking change.
const (
	codeInvalidRequest = "invalid_request" // 400: malformed body, bad field, bad model
	codeNotFound       = "not_found"       // 404: unknown session id
	codeBusy           = "busy"            // 409: operation conflicts with an in-flight run
	codeSessionClosed  = "session_closed"  // 410: session was closed
	codeBodyTooLarge   = "body_too_large"  // 413: request exceeded the size limit
	codeSaturated      = "saturated"       // 429: admission control refused the load
	codeShuttingDown   = "shutting_down"   // 503: server is draining
	codeInternal       = "internal"        // 500: unexpected server-side failure
)

// codeStatus is the single source of truth for the code↔status mapping:
// one code, one status, everywhere. The apienvelope analyzer checks every
// writeError call site and status-mapper return against this table, the
// apisurface golden pins it, and the README error table is generated from
// it, so the mapping cannot fork per call site or drift out of the docs.
var codeStatus = map[string]int{
	codeInvalidRequest: http.StatusBadRequest,
	codeNotFound:       http.StatusNotFound,
	codeBusy:           http.StatusConflict,
	codeSessionClosed:  http.StatusGone,
	codeBodyTooLarge:   http.StatusRequestEntityTooLarge,
	codeSaturated:      http.StatusTooManyRequests,
	codeShuttingDown:   http.StatusServiceUnavailable,
	codeInternal:       http.StatusInternalServerError,
}

// Config tunes a Server.
type Config struct {
	// MaxSessions caps concurrently live sessions (0 = scheduler default,
	// 4096). The cap is enforced by scheduler admission control and
	// refused with the saturated error code.
	MaxSessions int
	// MaxTicksPerSec caps the admitted aggregate paced rate across all
	// sessions (0 = unlimited) — the knob that keeps one host's real-time
	// promises honest. Exceeding it is refused with saturated.
	MaxTicksPerSec float64
	// Workers sizes the scheduler's service pool (0 = GOMAXPROCS).
	Workers int
	// DefaultEngine names the engine used when a create request does not
	// pick one ("compass" when empty).
	DefaultEngine string
	// MaxBodyBytes caps JSON request bodies (default 1 MiB) and
	// MaxRestoreBytes caps checkpoint uploads (default 1 GiB); both map
	// to 413 body_too_large.
	MaxBodyBytes    int64
	MaxRestoreBytes int64
}

// Server manages a set of live simulation sessions.
type Server struct {
	cfg   Config
	sched *runtime.Scheduler

	draining  chan struct{} // closed by BeginShutdown
	drainOnce sync.Once

	mu       sync.Mutex
	seq      int
	sessions map[string]*session
	order    []*session // ascending seq — the pagination index
	closed   bool
}

// session is one hosted model.
type session struct {
	id       string
	seq      int
	engine   string
	sess     *runtime.Session
	ckptSink bool // created with a checkpoint destination

	mu   sync.Mutex // guards name (mutable via PATCH)
	name string
}

func (se *session) getName() string {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.name
}

func (se *session) setName(name string) {
	se.mu.Lock()
	se.name = name
	se.mu.Unlock()
}

// NewServer returns an empty server and starts its session scheduler.
// The caller owns the server and must Close it.
func NewServer(cfg Config) *Server {
	if cfg.DefaultEngine == "" {
		cfg.DefaultEngine = "compass"
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxRestoreBytes <= 0 {
		cfg.MaxRestoreBytes = 1 << 30
	}
	return &Server{
		cfg: cfg,
		sched: runtime.NewScheduler(runtime.SchedulerConfig{
			Workers:        cfg.Workers,
			MaxSessions:    cfg.MaxSessions,
			MaxTicksPerSec: cfg.MaxTicksPerSec,
		}),
		sessions: map[string]*session{},
		draining: make(chan struct{}),
	}
}

// BeginShutdown marks the server as draining: new creates are refused with
// shutting_down and every live /stream response terminates, so slow stream
// readers cannot pin a graceful http.Server.Shutdown past its deadline.
// Existing sessions keep running until Close.
func (s *Server) BeginShutdown() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Close shuts down every session and the scheduler.
func (s *Server) Close() {
	s.BeginShutdown()
	s.mu.Lock()
	s.closed = true
	all := make([]*session, 0, len(s.sessions))
	for _, se := range s.sessions {
		all = append(all, se)
	}
	s.sessions = map[string]*session{}
	s.order = nil
	s.mu.Unlock()
	for _, se := range all {
		se.sess.Close() //nolint:errcheck
	}
	s.sched.Close()
}

// Handler returns the routed HTTP handler. Every route runs behind the
// request-size limit: MaxRestoreBytes for checkpoint uploads,
// MaxBodyBytes for everything else.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.withSession(s.handleStats))
	mux.HandleFunc("PATCH /v1/sessions/{id}", s.withSession(s.handlePatch))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/run", s.withSession(s.handleRun))
	mux.HandleFunc("POST /v1/sessions/{id}/pause", s.withSession(s.handlePause))
	mux.HandleFunc("POST /v1/sessions/{id}/resume", s.withSession(s.handleResume))
	mux.HandleFunc("POST /v1/sessions/{id}/inject", s.withSession(s.handleInject))
	mux.HandleFunc("GET /v1/sessions/{id}/outputs", s.withSession(s.handleOutputs))
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.withSession(s.handleStream))
	mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", s.withSession(s.handleCheckpoint))
	mux.HandleFunc("POST /v1/sessions/{id}/restore", s.withSession(s.handleRestore))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.limitBody(mux)
}

// limitBody wraps every request body in http.MaxBytesReader so an
// oversized or unbounded upload fails with 413 instead of exhausting the
// host. Checkpoint restores get the larger binary budget.
func (s *Server) limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limit := s.cfg.MaxBodyBytes
		if strings.HasSuffix(r.URL.Path, "/restore") {
			limit = s.cfg.MaxRestoreBytes
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}

// withSession resolves {id} and 404s unknown sessions.
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		se := s.sessions[id]
		s.mu.Unlock()
		if se == nil {
			writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no session %q", id))
			return
		}
		h(w, r, se)
	}
}

// NetgenSpec mirrors netgen.Params for JSON creation requests.
type NetgenSpec struct {
	// Grid is the square core-mesh edge (64 = a full TrueNorth chip).
	Grid int `json:"grid"`
	// RateHz and SynPerNeuron pick the operating point.
	RateHz       float64 `json:"rate_hz"`
	SynPerNeuron int     `json:"syn_per_neuron"`
	Seed         int64   `json:"seed"`
	Stochastic   bool    `json:"stochastic,omitempty"`
	Locality     float64 `json:"locality,omitempty"`
	LocalRadius  int     `json:"local_radius,omitempty"`
	// OutputEvery taps every Nth neuron per core to an output sink; a
	// session without taps is a closed network and emits nothing.
	OutputEvery int `json:"output_every,omitempty"`
}

// CreateRequest describes a new session. Exactly one of Netgen or
// ModelPath provides the model.
type CreateRequest struct {
	// Name is an optional human label echoed in listings and metrics.
	Name string `json:"name,omitempty"`
	// Engine picks the execution engine (server default when empty).
	Engine string `json:"engine,omitempty"`
	// Workers is the engine's worker count (compass; chip ignores it). 0
	// means one: the scheduler's service pool is the server's parallelism,
	// so a session gets more only on request.
	Workers int `json:"workers,omitempty"`
	// TickRateHz paces the session (1000 = real time; 0 = free-running).
	TickRateHz float64 `json:"tick_rate_hz,omitempty"`
	// Netgen generates a recurrent characterization network in-process.
	Netgen *NetgenSpec `json:"netgen,omitempty"`
	// ModelPath loads a model file from the server's filesystem.
	ModelPath string `json:"model_path,omitempty"`
	// Force admits a model despite static-verification findings.
	Force bool `json:"force,omitempty"`
	// CheckpointEvery enables periodic checkpoints to CheckpointPath
	// (rewritten in place — a rolling recovery point).
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	CheckpointPath  string `json:"checkpoint_path,omitempty"`
}

// buildEngine builds a session's engine. A request without workers gets
// one: the scheduler already steps sessions on GOMAXPROCS service workers,
// and a pool per session on top of that costs CPU without adding
// throughput.
func buildEngine(name string, workers int, mesh router.Mesh, configs []*core.Config) (sim.Engine, error) {
	return sim.NewEngine(name, mesh, configs, sim.WithWorkers(max(workers, 1)))
}

// buildModel resolves a create request to a verified mesh + configs,
// mirroring tnsim's admission logic.
func buildModel(req *CreateRequest) (router.Mesh, []*core.Config, error) {
	switch {
	case req.Netgen != nil && req.ModelPath != "":
		return router.Mesh{}, nil, fmt.Errorf("request sets both netgen and model_path")
	case req.Netgen != nil:
		g := req.Netgen
		mesh := router.Mesh{W: g.Grid, H: g.Grid}
		configs, err := netgen.Build(netgen.Params{
			Grid: mesh, RateHz: g.RateHz, SynPerNeuron: g.SynPerNeuron,
			Seed: g.Seed, Stochastic: g.Stochastic,
			Locality: g.Locality, LocalRadius: g.LocalRadius,
			OutputEvery: g.OutputEvery,
		})
		if err != nil {
			return router.Mesh{}, nil, err
		}
		if !req.Force {
			// Closed generated networks get the full analysis; tapping
			// opens the system, so tapped networks verify like loaded
			// models (the tapped neurons' former axons lose their driver).
			opts := modelcheck.Options{AssumeExternalInput: g.OutputEvery > 0}
			if err := modelcheck.Verify(mesh, configs, opts); err != nil {
				return router.Mesh{}, nil, fmt.Errorf("%w (set force to serve anyway)", err)
			}
		}
		return mesh, configs, nil
	case req.ModelPath != "":
		verify := func(mesh router.Mesh, configs []*core.Config) error {
			return modelcheck.Verify(mesh, configs, modelcheck.Options{AssumeExternalInput: true})
		}
		if req.Force {
			verify = nil
		}
		f, err := os.Open(req.ModelPath)
		if err != nil {
			return router.Mesh{}, nil, err
		}
		defer f.Close()
		return model.ReadModelVerified(f, verify)
	default:
		return router.Mesh{}, nil, fmt.Errorf("request must set netgen or model_path")
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.TickRateHz < 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, fmt.Sprintf("tick_rate_hz %g is negative", req.TickRateHz))
		return
	}
	if (req.CheckpointEvery > 0) != (req.CheckpointPath != "") {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "checkpoint_every and checkpoint_path must be set together")
		return
	}
	if req.CheckpointPath != "" {
		// Validate the destination now: a bad path would otherwise surface
		// only at the first auto-checkpoint, long after the create returned
		// 201 — by which point the session has been running without the
		// durability the client asked for.
		if err := checkCheckpointPath(req.CheckpointPath); err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
			return
		}
	}
	mesh, configs, err := buildModel(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	engine := req.Engine
	if engine == "" {
		engine = s.cfg.DefaultEngine
	}
	eng, err := buildEngine(engine, req.Workers, mesh, configs)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	opts := []runtime.Option{runtime.WithTickRate(req.TickRateHz), runtime.WithScheduler(s.sched)}
	if req.CheckpointEvery > 0 {
		path := req.CheckpointPath
		opts = append(opts, runtime.WithAutoCheckpoint(req.CheckpointEvery, rollingCheckpoint(path)))
	}
	sess, err := runtime.New(eng, opts...)
	if err != nil {
		// Admission control refused the session (or the scheduler is
		// already down because the server is closing). The engine is
		// still ours: release its workers.
		if c, ok := eng.(io.Closer); ok {
			c.Close() //nolint:errcheck
		}
		writeErr(w, err)
		return
	}
	se := &session{name: req.Name, engine: engine, sess: sess, ckptSink: req.CheckpointEvery > 0}

	s.mu.Lock()
	if s.closed {
		// A request that races server shutdown must not leave a live
		// session behind: Close has already drained the map and will never
		// see this one.
		s.mu.Unlock()
		se.sess.Close() //nolint:errcheck
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown, "server is shutting down")
		return
	}
	s.seq++
	se.seq = s.seq
	se.id = fmt.Sprintf("s-%d", se.seq)
	s.sessions[se.id] = se
	s.order = append(s.order, se)
	s.mu.Unlock()

	info, err := se.info(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// checkCheckpointPath verifies that checkpoint_path can actually receive a
// rolling checkpoint: its parent must be an existing directory (the temp
// file is created there) and the path itself must not name a directory.
func checkCheckpointPath(path string) error {
	dir := filepath.Dir(path)
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("checkpoint_path: directory %q: %w", dir, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("checkpoint_path: %q is not a directory", dir)
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("checkpoint_path: %q is a directory", path)
	}
	return nil
}

// rollingCheckpoint writes each periodic checkpoint to the same path via a
// rename, so a crash mid-write never corrupts the previous recovery point.
// The temp file lives in the destination's directory: a rename across
// filesystems (TMPDIR is often one of its own) fails with EXDEV and is not
// atomic anyway.
func rollingCheckpoint(path string) func(tick uint64) (io.WriteCloser, error) {
	return func(tick uint64) (io.WriteCloser, error) {
		tmp, err := os.CreateTemp(filepath.Dir(path), ".tnserved-ckpt-*")
		if err != nil {
			return nil, err
		}
		return &renameOnClose{File: tmp, dest: path}, nil
	}
}

type renameOnClose struct {
	*os.File
	dest string
}

func (r *renameOnClose) Close() error {
	if err := r.File.Close(); err != nil {
		os.Remove(r.Name()) //nolint:errcheck
		return err
	}
	return os.Rename(r.Name(), r.dest)
}

// maxListLimit caps one listing page. Larger requests are rejected with
// invalid_request rather than clamped.
const maxListLimit = 1000

// ListResponse is one page of sessions.
type ListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
	// NextPageToken resumes the listing after the last returned session;
	// absent on the final page.
	NextPageToken string `json:"next_page_token,omitempty"`
}

// seqOfToken parses a page token ("s-42", an id returned by a previous
// page) back to its sequence number.
func seqOfToken(tok string) (int, error) {
	rest, ok := strings.CutPrefix(tok, "s-")
	if !ok {
		return 0, fmt.Errorf("invalid page_token %q", tok)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid page_token %q", tok)
	}
	return n, nil
}

// handleList pages through sessions in creation order. The index is a
// seq-sorted slice, so an unfiltered page costs O(log n + page) under the
// lock regardless of how many sessions the server carries; the state
// filter additionally snapshots per candidate session until the page
// fills.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxListLimit {
			// Out-of-range limits are rejected, not clamped: a client that
			// asked for more than a page can hold would otherwise silently
			// miss sessions it believes it enumerated.
			writeError(w, http.StatusBadRequest, codeInvalidRequest, fmt.Sprintf("invalid limit %q (want 1..%d)", v, maxListLimit))
			return
		}
		limit = n
	}
	state := q.Get("state")
	if state != "" && state != "running" && state != "paused" {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, fmt.Sprintf("invalid state %q (want running or paused)", state))
		return
	}
	afterSeq := 0
	if tok := q.Get("page_token"); tok != "" {
		n, err := seqOfToken(tok)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
			return
		}
		afterSeq = n
	}

	s.mu.Lock()
	start := sort.Search(len(s.order), func(i int) bool { return s.order[i].seq > afterSeq })
	var candidates []*session
	if state == "" {
		end := start + limit
		if end > len(s.order) {
			end = len(s.order)
		}
		candidates = append(candidates, s.order[start:end]...)
	} else {
		// Filtered listings scan forward; the page boundary is still by
		// candidate, so a sparse filter pages through quickly.
		candidates = append(candidates, s.order[start:]...)
	}
	total := len(s.order)
	s.mu.Unlock()

	infos := make([]SessionInfo, 0, limit)
	lastSeq := afterSeq
	truncated := false
	for _, se := range candidates {
		if len(infos) >= limit {
			truncated = true
			break
		}
		lastSeq = se.seq
		info, err := se.info(r)
		if err != nil {
			continue // racing with deletion; skip
		}
		if state == "running" && !info.Running || state == "paused" && info.Running {
			continue
		}
		infos = append(infos, info)
	}
	resp := ListResponse{Sessions: infos}
	if truncated || (state == "" && start+len(candidates) < total) {
		resp.NextPageToken = fmt.Sprintf("s-%d", lastSeq)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	se := s.sessions[id]
	delete(s.sessions, id)
	if se != nil {
		i := sort.Search(len(s.order), func(i int) bool { return s.order[i].seq >= se.seq })
		if i < len(s.order) && s.order[i] == se {
			s.order = append(s.order[:i], s.order[i+1:]...)
		}
	}
	s.mu.Unlock()
	if se == nil {
		writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	se.sess.Close() //nolint:errcheck
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: id})
}

// DeleteResponse confirms a session deletion.
type DeleteResponse struct {
	Deleted string `json:"deleted"`
}

// HealthzResponse is the liveness snapshot.
type HealthzResponse struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, HealthzResponse{Status: "ok", Sessions: n})
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

// ErrorBody is the unified error envelope every endpoint emits.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo carries one error: a stable machine-readable code and a
// human-readable message.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError writes the error envelope. Backpressure statuses carry
// Retry-After so well-behaved clients pace their retries.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorBody{Error: ErrorInfo{Code: code, Message: msg}})
}

// writeErr maps an error to its status + code and writes the envelope.
func writeErr(w http.ResponseWriter, err error) {
	status, code := statusCodeOf(err)
	writeError(w, status, code, err.Error())
}

// statusCodeOf maps runtime and transport errors to HTTP status + stable
// error code.
func statusCodeOf(err error) (int, string) {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.Is(err, runtime.ErrBusy):
		return http.StatusConflict, codeBusy
	case errors.Is(err, runtime.ErrClosed):
		return http.StatusGone, codeSessionClosed
	case errors.Is(err, runtime.ErrSaturated), errors.Is(err, sim.ErrQueueFull):
		return http.StatusTooManyRequests, codeSaturated
	case errors.Is(err, runtime.ErrSchedulerClosed):
		return http.StatusServiceUnavailable, codeShuttingDown
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, codeBodyTooLarge
	default:
		return http.StatusBadRequest, codeInvalidRequest
	}
}
