package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"grefar/internal/core"
	"grefar/internal/serve/snapshot"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
)

// ServerConfig assembles a Server around an open Session.
type ServerConfig struct {
	// Session is the control loop the server fronts. Required.
	Session *Session
	// Store, when non-nil, persists checkpoints: every SnapshotEvery ticks,
	// on POST /v1/checkpoint, and on Server.Checkpoint (the daemon's
	// graceful-shutdown hook).
	Store *snapshot.Store
	// SnapshotEvery checkpoints automatically after every n-th served tick.
	// Zero disables automatic checkpoints (explicit ones still work).
	SnapshotEvery int
	// Registry receives the serve metric families; nil builds a private one.
	Registry *telemetry.Registry
	// EnablePprof mounts /debug/pprof/ on the handler.
	EnablePprof bool
	// MaxBodyBytes bounds ingest request bodies; zero selects 8 MiB.
	MaxBodyBytes int64
	// Now supplies timestamps for the snapshot-age metric; nil selects
	// time.Now (tests inject a fake clock).
	Now func() time.Time
}

// Server exposes a Session over HTTP. Endpoints (all JSON):
//
//	POST /v1/jobs        {"type":0,"count":3} or [{"type":0},{"type":5,"count":2}]
//	POST /v1/jobs/batch  JSONL stream, one job object per line
//	POST /v1/tick        ?n=20 executes n slots (default 1)
//	GET  /v1/status      slot, backlogs, pending, lifetime totals
//	POST /v1/reconfigure {"v":7.5,"beta":100} hot-reloads knobs at the slot boundary
//	POST /v1/checkpoint  forces a durable snapshot write
//	GET  /metrics        Prometheus exposition (plus /healthz, optional pprof)
type Server struct {
	s     *Session
	store *snapshot.Store
	every int
	now   func() time.Time
	mux   *http.ServeMux

	maxBody int64

	// mu serializes ticks, checkpoints, and restore against each other, so
	// the snapshot cadence counter and last-snapshot timestamp stay
	// consistent even with concurrent HTTP tickers.
	mu             sync.Mutex
	ticksSinceSnap int
	lastSnapTime   time.Time

	reg          *telemetry.Registry
	ingested     *telemetry.Counter
	rejectedJobs *telemetry.Counter
	ticks        *telemetry.Counter
	tickErrors   *telemetry.Counter
	tickSeconds  *telemetry.Histogram
	snapshots    *telemetry.Counter
	snapErrors   *telemetry.Counter
	restores     *telemetry.Counter
	snapBytes    *telemetry.Gauge
	snapSlot     *telemetry.Gauge
	snapAge      *telemetry.Gauge
	backlog      *telemetry.Gauge
	pendingJobs  *telemetry.Gauge
	slotGauge    *telemetry.Gauge
}

// tickSecondsBounds buckets tick latency from 10us to ~10s.
var tickSecondsBounds = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// NewServer wires a Session (and optionally a snapshot store) into an HTTP
// handler with the grefar_serve_* metric families registered.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Session == nil {
		return nil, fmt.Errorf("serve: nil session")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 8 << 20
	}
	sv := &Server{
		s:       cfg.Session,
		store:   cfg.Store,
		every:   cfg.SnapshotEvery,
		now:     now,
		reg:     reg,
		maxBody: maxBody,

		ingested:     reg.Counter("grefar_serve_jobs_ingested_total", "Jobs accepted into the pending arrival buffer.").With(),
		rejectedJobs: reg.Counter("grefar_serve_submissions_rejected_total", "Submit batches rejected by validation.").With(),
		ticks:        reg.Counter("grefar_serve_ticks_total", "Slots served.").With(),
		tickErrors:   reg.Counter("grefar_serve_tick_errors_total", "Ticks that failed (scheduler, dynamics, or invariant errors).").With(),
		tickSeconds:  reg.Histogram("grefar_serve_tick_seconds", "Wall-clock latency of one served slot.", tickSecondsBounds).With(),
		snapshots:    reg.Counter("grefar_serve_snapshots_total", "Durable checkpoints written.").With(),
		snapErrors:   reg.Counter("grefar_serve_snapshot_errors_total", "Checkpoint writes that failed.").With(),
		restores:     reg.Counter("grefar_serve_restores_total", "Sessions restored from a snapshot at boot.").With(),
		snapBytes:    reg.Gauge("grefar_serve_snapshot_bytes", "Size of the last checkpoint payload.").With(),
		snapSlot:     reg.Gauge("grefar_serve_snapshot_slot", "Slot counter recorded in the last checkpoint.").With(),
		snapAge:      reg.Gauge("grefar_serve_snapshot_age_seconds", "Seconds since the last checkpoint (as of the last scrape-side update).").With(),
		backlog:      reg.Gauge("grefar_serve_backlog_jobs", "Total queue backlog after the last served slot.").With(),
		pendingJobs:  reg.Gauge("grefar_serve_pending_jobs", "Submitted jobs not yet admitted into the central queues.").With(),
		slotGauge:    reg.Gauge("grefar_serve_slot", "Next slot index to execute.").With(),
	}
	sv.slotGauge.Set(float64(cfg.Session.Slot()))

	mux := telemetry.NewMux(reg, telemetry.MuxOptions{EnablePprof: cfg.EnablePprof})
	mux.HandleFunc("POST /v1/jobs", sv.handleJobs)
	mux.HandleFunc("POST /v1/jobs/batch", sv.handleJobsBatch)
	mux.HandleFunc("POST /v1/tick", sv.handleTick)
	mux.HandleFunc("GET /v1/status", sv.handleStatus)
	mux.HandleFunc("POST /v1/reconfigure", sv.handleReconfigure)
	mux.HandleFunc("POST /v1/checkpoint", sv.handleCheckpoint)
	sv.mux = mux
	return sv, nil
}

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { sv.mux.ServeHTTP(w, r) }

// Session returns the fronted session.
func (sv *Server) Session() *Session { return sv.s }

// RestoreOnBoot loads the newest restorable snapshot from the store and
// rewinds the session onto it. A store with no snapshot (first boot) is not
// an error and leaves the session at slot 0; everything else — including a
// corrupt current.snap with a good fallback — is reported via the returned
// LoadResult. Returns nil, nil when there was nothing to restore.
func (sv *Server) RestoreOnBoot() (*snapshot.LoadResult, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.store == nil {
		return nil, nil
	}
	res, err := sv.store.Load()
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			return nil, nil
		}
		return nil, err
	}
	if err := sv.s.RestoreState(res.Payload); err != nil {
		return nil, fmt.Errorf("restore %s: %w", res.Path, err)
	}
	sv.restores.Inc()
	sv.lastSnapTime = sv.now()
	sv.snapSlot.Set(float64(sv.s.Slot()))
	sv.snapBytes.Set(float64(len(res.Payload)))
	sv.slotGauge.Set(float64(sv.s.Slot()))
	sv.updateGauges()
	return res, nil
}

// Checkpoint writes a durable snapshot now (the daemon calls this on
// graceful shutdown; /v1/checkpoint calls it on demand).
func (sv *Server) Checkpoint() error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.checkpointLocked()
}

func (sv *Server) checkpointLocked() error {
	if sv.store == nil {
		return fmt.Errorf("serve: no snapshot store configured")
	}
	payload, err := sv.s.EncodeState()
	if err != nil {
		sv.snapErrors.Inc()
		return err
	}
	if err := sv.store.Write(payload); err != nil {
		sv.snapErrors.Inc()
		return err
	}
	sv.snapshots.Inc()
	sv.snapBytes.Set(float64(len(payload)))
	sv.snapSlot.Set(float64(sv.s.Slot()))
	sv.lastSnapTime = sv.now()
	sv.snapAge.Set(0)
	sv.ticksSinceSnap = 0
	return nil
}

// Tick serves one slot, recording latency and maintaining the automatic
// checkpoint cadence. The daemon's wall-clock loop and POST /v1/tick both
// funnel through here.
func (sv *Server) Tick(ctx context.Context) (*TickReport, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	start := sv.now()
	rep, err := sv.s.Tick(ctx)
	sv.tickSeconds.Observe(sv.now().Sub(start).Seconds())
	if err != nil {
		sv.tickErrors.Inc()
		return nil, err
	}
	sv.ticks.Inc()
	sv.updateGauges()
	sv.ticksSinceSnap++
	if sv.store != nil && sv.every > 0 && sv.ticksSinceSnap >= sv.every {
		if err := sv.checkpointLocked(); err != nil {
			return rep, fmt.Errorf("slot %d served, but checkpoint failed: %w", rep.Slot, err)
		}
	}
	return rep, nil
}

func (sv *Server) updateGauges() {
	sv.slotGauge.Set(float64(sv.s.Slot()))
	sv.backlog.Set(sv.s.backlog())
	sv.pendingJobs.Set(float64(sv.s.totalPending()))
	if !sv.lastSnapTime.IsZero() {
		sv.snapAge.Set(sv.now().Sub(sv.lastSnapTime).Seconds())
	}
}

// --- HTTP handlers ---

type errorBody struct {
	Error string `json:"error"`
}

// jsonContentType is the Content-Type of every JSON reply, shared so setting
// it allocates nothing. Header values are replaced, never appended to.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadJob), errors.Is(err, core.ErrBadConfig):
		code = http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// handleJobs ingests one job object or a JSON array of them.
func (sv *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, sv.maxBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	var jobs []Job
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(data, &jobs)
	} else {
		var one Job
		err = json.Unmarshal(data, &one)
		jobs = []Job{one}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body is neither a job object nor an array of jobs"})
		return
	}
	sv.ingest(w, jobs)
}

// handleJobsBatch ingests a JSONL stream, one job object per line. The whole
// stream is validated and applied as one atomic batch.
func (sv *Server) handleJobsBatch(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, sv.maxBody)
	var jobs []Job
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var job Job
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&job); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("line %d: %v", line, err)})
			return
		}
		// One object a line: a second value, or a stray bracket (which
		// dec.More does not see), would otherwise be dropped silently.
		if rest := bytes.TrimSpace(raw[dec.InputOffset():]); len(rest) > 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("line %d: trailing data after the job object", line)})
			return
		}
		jobs = append(jobs, job)
	}
	if err := sc.Err(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	sv.ingest(w, jobs)
}

func (sv *Server) ingest(w http.ResponseWriter, jobs []Job) {
	accepted, err := sv.s.Submit(jobs)
	if err != nil {
		sv.rejectedJobs.Inc()
		writeError(w, err)
		return
	}
	sv.ingested.Add(float64(accepted))
	sv.pendingJobs.Set(float64(sv.s.totalPending()))
	writeAccepted(w, accepted)
}

// writeAccepted writes an ingest's ack, byte for byte what writeJSON writes
// for {"accepted": n}, without the reflection: an ack is on every submission.
func writeAccepted(w http.ResponseWriter, n int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusAccepted)
	var buf [32]byte
	b := append(buf[:0], `{"accepted":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	_, _ = w.Write(append(b, '}', '\n'))
}

// handleTick executes n slots (?n=, default 1) and returns the last slot's
// report.
func (sv *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	n := 1
	if q := r.URL.Query().Get("n"); q != "" {
		var err error
		if n, err = strconv.Atoi(q); err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad n %q", q)})
			return
		}
	}
	var rep *TickReport
	for k := 0; k < n; k++ {
		var err error
		rep, err = sv.Tick(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

// statusBody is the GET /v1/status response.
type statusBody struct {
	Slot           int       `json:"slot"`
	Backlog        float64   `json:"backlog"`
	CentralBacklog []float64 `json:"central_backlog"`
	LocalBacklog   []float64 `json:"local_backlog"`
	Pending        []int     `json:"pending"`
	Submitted      float64   `json:"submitted"`
	V              float64   `json:"v"`
	Beta           float64   `json:"beta"`
	SnapshotSlot   int       `json:"snapshot_slot"`
}

func (sv *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	lengths := sv.s.Lengths()
	cfg := sv.s.Config()
	body := statusBody{
		Slot:           sv.s.Slot(),
		Backlog:        lengths.Sum(),
		CentralBacklog: lengths.Central,
		Pending:        sv.s.Pending(),
		Submitted:      sv.s.Submitted(),
		V:              cfg.V,
		Beta:           cfg.Beta,
		SnapshotSlot:   int(sv.snapSlot.Value()),
	}
	body.LocalBacklog = make([]float64, len(lengths.Local))
	for i := range lengths.Local {
		for _, v := range lengths.Local[i] {
			body.LocalBacklog[i] += v
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// reconfigureBody is the POST /v1/reconfigure request: pointer fields
// distinguish "leave unchanged" from explicit zeros. Tariff selects "linear"
// (the baseline), "quadratic" (with scale), or "tiered" (with limits and
// multipliers).
type reconfigureBody struct {
	V      *float64    `json:"v,omitempty"`
	Beta   *float64    `json:"beta,omitempty"`
	Tariff *tariffBody `json:"tariff,omitempty"`
}

type tariffBody struct {
	Kind        string    `json:"kind"`
	Scale       float64   `json:"scale,omitempty"`
	Limits      []float64 `json:"limits,omitempty"`
	Multipliers []float64 `json:"multipliers,omitempty"`
}

func (sv *Server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, sv.maxBody))
	dec.DisallowUnknownFields()
	var body reconfigureBody
	if err := dec.Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	cfg := sv.s.Config()
	if body.V != nil {
		cfg.V = *body.V
	}
	if body.Beta != nil {
		cfg.Beta = *body.Beta
	}
	if body.Tariff != nil {
		trf, err := buildTariff(*body.Tariff)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		cfg.Tariff = trf
	}
	if err := sv.s.Reconfigure(cfg); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"slot": sv.s.Slot(), "v": cfg.V, "beta": cfg.Beta})
}

// buildTariff maps the wire form onto the tariff implementations.
func buildTariff(b tariffBody) (tariff.Tariff, error) {
	switch b.Kind {
	case "linear", "":
		return nil, nil
	case "quadratic":
		return tariff.NewQuadratic(b.Scale)
	case "tiered":
		return tariff.NewTiered(b.Limits, b.Multipliers)
	default:
		return nil, fmt.Errorf("unknown tariff kind %q (want linear, quadratic, or tiered)", b.Kind)
	}
}

func (sv *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if err := sv.Checkpoint(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"slot":  int(sv.snapSlot.Value()),
		"bytes": int(sv.snapBytes.Value()),
	})
}
