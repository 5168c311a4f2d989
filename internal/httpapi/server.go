package httpapi

import (
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"topkagg/internal/circuit"
	"topkagg/internal/obs"
	"topkagg/internal/serve"
	"topkagg/internal/snapshot"
)

// Config shapes a Server. The zero value serves with no admission
// control, an 8 MiB body cap, and no default or maximum limits.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (uploads,
	// queries, batches, sweeps). 0 = unlimited.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond
	// it requests are rejected with 429. Meaningful only with
	// MaxInFlight > 0.
	MaxQueue int
	// MaxBodyBytes caps request bodies (0 selects 8 MiB). Oversized
	// uploads and queries get 413.
	MaxBodyBytes int64
	// DefaultTimeout applies to queries that name no timeout; 0 means
	// such queries run unbounded (subject to MaxTimeout).
	DefaultTimeout time.Duration
	// MaxTimeout clamps every per-request timeout, including "none":
	// with MaxTimeout set, a query cannot opt out of a deadline.
	MaxTimeout time.Duration
	// MaxWork clamps every per-request work allowance the same way.
	MaxWork int64
	// FixpointWorkers sizes each model's noise-fixpoint worker pool
	// (0 = GOMAXPROCS inside the engine).
	FixpointWorkers int
	// Obs publishes server and engine metrics to this registry and
	// mounts its debug endpoint (/debug/metrics, /debug/vars,
	// /debug/pprof) on the server mux. nil disables both.
	Obs *obs.Registry
}

// Server is the HTTP front end. Create with NewServer, mount as an
// http.Handler. All methods are safe for concurrent use.
type Server struct {
	cfg Config
	reg *registry
	adm *admission
	mux *http.ServeMux
	obs *httpObs

	// store persists model state when OpenState was called; nil = no
	// persistence (the default).
	store *snapshot.Store
	// ready gates /readyz: false from construction until the caller
	// declares boot complete (SetReady), and false again once draining
	// starts. Load balancers watch /readyz; /healthz only proves the
	// process is alive.
	ready atomic.Bool

	streams atomic.Int64 // live NDJSON sweeps, for draining visibility
}

// NewServer builds the server and its routes.
func NewServer(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	s := &Server{
		cfg: cfg,
		reg: newRegistry(cfg.FixpointWorkers, cfg.Obs),
		adm: newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		mux: http.NewServeMux(),
		obs: newHTTPObs(cfg.Obs),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/models", s.handleList)
	s.mux.HandleFunc("POST /v1/models/{name}", s.handleUpload)
	s.mux.HandleFunc("PUT /v1/models/{name}", s.handleUpload)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/models/{name}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/models/{name}/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/models/{name}/sweep", s.handleSweep)
	if cfg.Obs != nil {
		s.mux.Handle("/debug/", cfg.Obs.DebugHandler())
		s.mux.Handle("GET /debug", cfg.Obs.DebugHandler())
	}
	return s
}

// ServeHTTP routes the request through the metrics wrapper.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	s.obs.requests.Inc()
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	s.obs.done(rec.status, start)
}

// Drain flips the server into shutdown mode: /readyz answers 503
// immediately (so load balancers stop routing here) and
// admission-controlled endpoints answer 503 from now on while
// in-flight requests finish. Call it before http.Server.Shutdown for
// a clean two-phase stop.
func (s *Server) Drain() {
	s.ready.Store(false)
	s.adm.drain()
}

// SetReady declares boot complete (or revokes it): /readyz flips
// between 503 and 200. The daemon calls SetReady(true) once restore
// and preloads have finished.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Preload registers an already-parsed circuit directly, bypassing
// HTTP — for in-process harnesses. Models registered this way carry no
// upload material and are therefore skipped by snapshot persistence;
// use PreloadUpload when the model should survive restarts.
func (s *Server) Preload(name, source string, c *circuit.Circuit) error {
	if aerr := validateModelName(name); aerr != nil {
		return aerr
	}
	s.reg.add(name, source, c, nil)
	return nil
}

// PreloadUpload registers a model from raw upload material exactly as
// a POST /v1/models/{name} would, bypassing HTTP — for boot-time
// -preload flags. The material is retained, so the model persists
// like any uploaded one.
func (s *Server) PreloadUpload(name string, up *UploadRequest) error {
	if aerr := validateModelName(name); aerr != nil {
		return aerr
	}
	c, source, aerr := buildCircuit(up)
	if aerr != nil {
		return aerr
	}
	s.reg.add(name, source, c, up)
	return s.SaveModel(name)
}

// policy is the limit policy every query resolves against.
func (s *Server) policy() limitPolicy {
	return limitPolicy{
		defaultTimeout: s.cfg.DefaultTimeout,
		maxTimeout:     s.cfg.MaxTimeout,
		maxWork:        s.cfg.MaxWork,
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the load-balancer readiness gate: 503 until boot-time
// restore/rebuild completes and again from the moment draining starts,
// 200 in between. Distinct from /healthz, which answers 200 whenever
// the process can serve at all.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]ModelInfo{"models": s.reg.list()})
}

// uploadResult is the wire reply to a model upload.
type uploadResult struct {
	Model    ModelInfo `json:"model"`
	Replaced bool      `json:"replaced,omitempty"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if aerr := validateModelName(name); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	up, aerr := parseUpload(w, r, s.cfg.MaxBodyBytes)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	c, source, aerr := buildCircuit(up)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	release, aerr := s.adm.acquire(r.Context())
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	defer release()
	md, replaced := s.reg.add(name, source, c, up)
	if s.obs != nil {
		s.obs.uploads.Inc()
	}
	// Persist before replying: once the client sees 200, the model
	// survives a crash. A failed save (disk full, injected fault) is
	// counted by the store and does not fail the upload — the model is
	// live in memory either way.
	_ = s.SaveModel(name)
	writeJSON(w, http.StatusOK, uploadResult{Model: md.info(), Replaced: replaced})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	md, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeAPIError(w, errNotFound(codeUnknownModel, "no model %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, md.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.remove(name) {
		writeAPIError(w, errNotFound(codeUnknownModel, "no model %q", name))
		return
	}
	if s.store != nil {
		// A deleted model must not resurrect on the next boot.
		_ = s.store.Remove(name)
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	md, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeAPIError(w, errNotFound(codeUnknownModel, "no model %q", r.PathValue("name")))
		return
	}
	qr, aerr := parseQuery(w, r, s.cfg.MaxBodyBytes)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	q, aerr := validateQuery(md.c, qr, s.policy(), true)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	release, aerr := s.adm.acquire(r.Context())
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	defer release()
	start := time.Now()
	resp := md.analyzer(qr.Exact).DoCtx(r.Context(), q)
	wireResp, err := ToWire(md.c, resp)
	if err != nil {
		writeAPIError(w, errEncode(err))
		return
	}
	w.Header().Set("X-Topkd-Elapsed-Ns", strconv.FormatInt(int64(time.Since(start)), 10))
	writeJSON(w, statusOf(resp), wireResp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	md, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeAPIError(w, errNotFound(codeUnknownModel, "no model %q", r.PathValue("name")))
		return
	}
	br, aerr := parseBatch(w, r, s.cfg.MaxBodyBytes)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	queries, aerr := validateBatch(md.c, br, s.policy())
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	release, aerr := s.adm.acquire(r.Context())
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	defer release()
	start := time.Now()
	resps := md.analyzer(br.Exact).RunBatchCtx(r.Context(), queries, br.Workers)
	out := BatchResponse{Responses: make([]*QueryResponse, len(resps))}
	for i, resp := range resps {
		wireResp, err := ToWire(md.c, resp)
		if err != nil {
			// One unencodable response degrades to its structured error
			// record; the rest of the batch is unaffected.
			wireResp = &QueryResponse{Op: resp.Query.Op.String(), Error: err.Error(), ErrorReason: codeEncode}
		}
		out.Responses[i] = wireResp
	}
	w.Header().Set("X-Topkd-Elapsed-Ns", strconv.FormatInt(int64(time.Since(start)), 10))
	writeJSON(w, http.StatusOK, out)
}

// handleSweep streams a k-sweep as NDJSON: records are computed by a
// worker pool but written strictly in request order, one line per
// target net, flushed as they complete. A failed or panicked query
// yields one error record while the rest of the stream continues; a
// client disconnect cancels the remaining queries via the request
// context.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	md, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeAPIError(w, errNotFound(codeUnknownModel, "no model %q", r.PathValue("name")))
		return
	}
	sr, aerr := parseSweep(w, r, s.cfg.MaxBodyBytes)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	queries, aerr := validateSweep(md.c, sr, s.policy())
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	release, aerr := s.adm.acquire(r.Context())
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	defer release()
	s.streams.Add(1)
	defer s.streams.Add(-1)

	workers := sr.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	ctx := r.Context()
	a := md.analyzer(sr.Exact)
	results := make([]serve.Response, len(queries))
	done := make([]chan struct{}, len(queries))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	for i := 0; i < workers; i++ {
		go func() {
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(queries) {
					return
				}
				// DoCtx confines worker panics to the Response and
				// returns promptly once ctx is canceled, so these
				// goroutines always run to pool exhaustion.
				results[idx] = a.DoCtx(ctx, queries[idx])
				close(done[idx])
			}
		}()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	for i := range queries {
		select {
		case <-done[i]:
		case <-ctx.Done():
			// Client gone: the workers drain the remaining queries
			// against the dead context (each returns at its next poll
			// point) and exit on their own.
			return
		}
		rec := SweepRecord{Index: i}
		wireResp, err := ToWire(md.c, results[i])
		if err != nil {
			wireResp = &QueryResponse{Op: results[i].Query.Op.String(), Error: err.Error(), ErrorReason: codeEncode}
		}
		rec.QueryResponse = wireResp
		line, err := marshalJSON(rec)
		if err != nil {
			// marshalJSON buffered everything, so the stream is still
			// well-formed; emit a structured error line instead.
			line, _ = marshalJSON(SweepRecord{Index: i, QueryResponse: &QueryResponse{
				Op: results[i].Query.Op.String(), Error: err.Error(), ErrorReason: codeEncode}})
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if s.obs != nil {
			s.obs.streamRecords.Inc()
		}
		_ = rc.Flush()
	}
}
