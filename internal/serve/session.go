// Package serve implements the long-running service mode of GreFar: a
// stateful Session that runs its slots on the simulator's resumable Engine or
// on real site agents through the distributed control loop, fed by a live
// arrival stream instead of a workload generator, ticking slots on demand,
// and surviving restarts through durable checkpoints (internal/serve/snapshot).
// Server exposes a Session over HTTP — see server.go for the endpoints and
// cmd/grefar-serve for the daemon.
package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/serve/snapshot"
	"grefar/internal/sim"
)

// Sentinel errors of the serving mode. ErrCorruptSnapshot, ErrNoSnapshot,
// and ErrSnapshotVersion alias the snapshot package's sentinels so callers
// need only this package.
var (
	// ErrCorruptSnapshot marks checkpoint bytes that are not a valid
	// snapshot: a damaged frame, a failed checksum, or an undecodable
	// payload.
	ErrCorruptSnapshot = snapshot.ErrCorrupt
	// ErrNoSnapshot marks a snapshot store with nothing to restore.
	ErrNoSnapshot = snapshot.ErrNotFound
	// ErrSnapshotVersion marks a snapshot written by a newer format version.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotMismatch marks a valid snapshot taken on a different
	// system: the cluster shape it records does not match the session's.
	ErrSnapshotMismatch = errors.New("serve: snapshot from a different cluster")
	// ErrBadJob marks a rejected job submission (unknown type, bad count).
	ErrBadJob = errors.New("serve: bad job")
	// ErrClosed marks use of a closed session.
	ErrClosed = errors.New("serve: session closed")
)

// Job is one unit of the arrival stream: count jobs of one of the cluster's
// job types. A job type maps to the paper's (organization, characteristics)
// pair — the account is implied by the type (rho_j).
type Job struct {
	// Type is the job type index into Cluster.JobTypes.
	Type int `json:"type"`
	// Count is how many such jobs arrive; zero means one.
	Count int `json:"count,omitempty"`
}

// SessionConfig assembles a Session. The facade (grefar.Open) builds it from
// functional options; tests and cmd/grefar-serve may fill it directly.
type SessionConfig struct {
	// Inputs carries the cluster and its per-slot environment (prices,
	// availability, optional base load and tariff). Workload is optional in
	// a session — arrivals normally come from Submit — and when present its
	// output is added on top of the submitted stream.
	Inputs sim.Inputs
	// Scheduler configures the GreFar scheduler driving the session.
	Scheduler core.Config
	// Sim carries the per-slot options (action validation, invariant
	// checking, observers). Slots is ignored: a session has no horizon.
	// Context, when set, bounds the agent calls of every slot (cancelling it
	// aborts a slot's reconnect backoff); Tick's own context is checked
	// between slots.
	Sim sim.Options
	// Agents, when non-empty, runs the slots on remote site agents, Agents[i]
	// serving data center i, through the distributed control loop instead of
	// the in-process engine. The agents reveal prices and availability, so
	// Inputs then supplies only the cluster, the optional workload and the
	// fairness function; a tariff, a base load and an admission policy are
	// refused. Agents that ran past a restored checkpoint are rewound onto it
	// by the first slot after the restore.
	Agents []controller.AgentConn
	// Controller tunes the control loop over Agents: failure policy, health
	// thresholds, health metrics.
	Controller []controller.Option
}

// Session is a long-lived GreFar control loop: jobs arrive via Submit, slots
// execute via Tick, and the whole durable state round-trips through
// Checkpoint/Restore. All methods are safe for concurrent use; slots always
// execute one at a time, so checkpoints and reconfigurations land exactly on
// slot boundaries.
type Session struct {
	mu     sync.Mutex
	cfg    SessionConfig
	c      *model.Cluster
	g      *core.GreFar
	exec   executor
	closed bool

	// pending accumulates submitted jobs per type until Tick admits them.
	// Each Tick drains at most a_max_j per type (paper eq. 1); the rest
	// carries over to later slots. pendingTotal is their sum, which Submit
	// keeps within an int.
	pending      []int
	pendingTotal int
	// submitted counts lifetime accepted jobs; rejected counts rejected
	// Submit batches (a batch is rejected atomically).
	submitted, rejected float64
}

// NewSession validates the configuration and opens a session at slot 0.
func NewSession(cfg SessionConfig) (*Session, error) {
	cfg.Sim.Slots = 0
	g, err := core.New(cfg.Inputs.Cluster, cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	var exec executor
	if len(cfg.Agents) > 0 {
		exec, err = newAgentLoop(cfg, g)
	} else {
		exec, err = sim.NewEngine(cfg.Inputs, g, cfg.Sim)
	}
	if err != nil {
		return nil, err
	}
	return &Session{
		cfg:     cfg,
		c:       cfg.Inputs.Cluster,
		g:       g,
		exec:    exec,
		pending: make([]int, cfg.Inputs.Cluster.J()),
	}, nil
}

// Submit queues jobs for admission at the next Ticks and returns how many
// jobs were accepted. The batch is validated first and rejected atomically:
// either every job is queued or none is, so a half-applied batch can never
// be checkpointed. A batch whose total, or whose total added to every job
// already pending, would overflow an int is refused: a wrapped count would go
// negative, and no snapshot of it would restore.
func (s *Session) Submit(jobs []Job) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	total := 0
	for k, job := range jobs {
		if job.Type < 0 || job.Type >= s.c.J() {
			s.rejected++
			return 0, fmt.Errorf("%w: job %d: type %d out of range [0,%d)", ErrBadJob, k, job.Type, s.c.J())
		}
		if job.Count < 0 {
			s.rejected++
			return 0, fmt.Errorf("%w: job %d: negative count %d", ErrBadJob, k, job.Count)
		}
		n := max(job.Count, 1)
		if n > math.MaxInt-total {
			s.rejected++
			return 0, fmt.Errorf("%w: job %d: count %d overflows the batch total", ErrBadJob, k, job.Count)
		}
		total += n
	}
	if total > math.MaxInt-s.pendingTotal {
		s.rejected++
		return 0, fmt.Errorf("%w: %d jobs overflow the %d already pending", ErrBadJob, total, s.pendingTotal)
	}
	for _, job := range jobs {
		s.pending[job.Type] += max(job.Count, 1)
	}
	s.pendingTotal += total
	s.submitted += float64(total)
	return total, nil
}

// TickReport summarizes one executed slot.
type TickReport struct {
	// Slot is the slot that was executed.
	Slot int `json:"slot"`
	// Admitted is how many submitted jobs entered the central queues this
	// slot (the a_max_j caps can hold some back).
	Admitted int `json:"admitted"`
	// Pending is how many submitted jobs still await admission.
	Pending int `json:"pending"`
	// Backlog is the total queue backlog after the slot.
	Backlog float64 `json:"backlog"`
}

// Tick executes exactly one slot: it drains the pending arrival buffer (at
// most a_max_j jobs per type, paper eq. 1 — the remainder stays pending),
// runs the scheduler, applies the queue dynamics, and re-verifies the slot
// when invariant checking is on. Reconfigurations and checkpoints
// interleave only between Ticks, so every externally observable state is a
// slot boundary.
func (s *Session) Tick(ctx context.Context) (*TickReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	t := s.exec.Slot()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("slot %d: tick canceled: %w", t, err)
	}
	extra := make([]int, s.c.J())
	admitted := 0
	for j := range extra {
		n := s.pending[j]
		if amax := s.c.JobTypes[j].MaxArrival; amax > 0 && n > amax {
			n = amax
		}
		extra[j] = n
		admitted += n
	}
	if err := s.exec.Step(extra); err != nil {
		return nil, err
	}
	// The slot committed; only now do the admitted jobs leave the buffer.
	// A Step refused before it applied its action left the executor as it
	// was, so the jobs wait for the next Tick. One that failed after (the
	// invariant checker's verdict) keeps them buffered too, but the executor
	// then refuses every later Step with that error until a Restore.
	for j := range extra {
		s.pending[j] -= extra[j]
	}
	s.pendingTotal -= admitted
	return &TickReport{
		Slot:     t,
		Admitted: admitted,
		Pending:  s.pendingTotal,
		Backlog:  s.exec.Backlog(),
	}, nil
}

// Slot returns the next slot index Tick will execute.
func (s *Session) Slot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec.Slot()
}

// Lengths returns a snapshot of the current queue backlogs.
func (s *Session) Lengths() queue.Lengths {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec.Lengths()
}

// backlog returns the total queue backlog, as Lengths().Sum() would.
func (s *Session) backlog() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec.Backlog()
}

// Pending returns a copy of the per-type pending arrival buffer.
func (s *Session) Pending() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.pending...)
}

// totalPending returns how many submitted jobs await admission.
func (s *Session) totalPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingTotal
}

// Submitted returns the lifetime count of accepted jobs.
func (s *Session) Submitted() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitted
}

// Result aggregates the metrics of the slots executed since this process
// opened or restored the session (aggregates are derived state and restart
// on restore; see DESIGN.md §12).
func (s *Session) Result() *sim.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec.Result()
}

// Cluster returns the session's system description.
func (s *Session) Cluster() *model.Cluster { return s.c }

// Config returns the scheduler configuration currently in effect.
func (s *Session) Config() core.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Scheduler
}

// Reconfigure swaps the scheduler configuration at the current slot
// boundary — the serving mode's hot reload of V, beta, or the tariff. The
// queues are untouched. Warm-start state carries over when the new
// configuration solves the same convex problem shape; otherwise the new
// scheduler cold-starts (its first convex slot falls back to the zero
// iterate, exactly like a fresh process).
func (s *Session) Reconfigure(cfg core.Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	ng, err := core.New(s.c, cfg)
	if err != nil {
		return err
	}
	st := s.g.ExportState()
	// The new options block should reach telemetry once, so never carry the
	// reporting latch across a reconfiguration.
	st.OptsReported = false
	if err := ng.RestoreState(st); err != nil {
		// Incompatible solver layout (e.g. beta crossed zero): keep only the
		// cumulative counters and cold-start the iterate.
		_ = ng.RestoreState(&core.SchedulerState{
			WarmHits:      st.WarmHits,
			WarmRepairs:   st.WarmRepairs,
			WarmFallbacks: st.WarmFallbacks,
		})
	}
	s.g = ng
	s.cfg.Scheduler = cfg
	s.exec.SetScheduler(ng)
	return nil
}

// Close marks the session closed; subsequent calls fail with ErrClosed.
// Closing does not checkpoint — callers decide whether the final state is
// worth persisting.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// checkpointPayload is the gob wire form of a session's durable state.
// Everything else a session holds (metric aggregates, histograms, the
// invariant checker's ledger, telemetry gauges) is derived from this
// trajectory and deliberately restarts on restore.
type checkpointPayload struct {
	// N, J, M guard against restoring onto a different cluster shape.
	N, J, M int
	// Engine is the queue trajectory state: slot counter, FIFO cohorts of the
	// central and the local queues (the agents' shadows when the session runs
	// on agents), lifetime totals.
	Engine sim.EngineState
	// Scheduler is the cross-slot scheduler memory: warm iterate and
	// cumulative solver counters.
	Scheduler core.SchedulerState
	// Pending is the not-yet-admitted arrival buffer.
	Pending []int
	// Submitted counts lifetime accepted jobs; Rejected counts rejected
	// Submit batches.
	Submitted, Rejected float64
}

// EncodeState serializes the session's durable state as an unframed
// payload — what Store.Write persists. Checkpoint adds the snapshot frame
// for self-contained files.
func (s *Session) EncodeState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	eng, err := s.exec.ExportState()
	if err != nil {
		return nil, err
	}
	p := checkpointPayload{
		N:         s.c.N(),
		J:         s.c.J(),
		M:         s.c.M(),
		Engine:    *eng,
		Scheduler: *s.g.ExportState(),
		Pending:   append([]int(nil), s.pending...),
		Submitted: s.submitted,
		Rejected:  s.rejected,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("serve: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState rewinds the session onto a previously encoded payload. The
// session must have been opened with the same cluster and scheduler
// configuration for the continuation to be byte-identical to the
// uninterrupted run. Undecodable payloads return ErrCorruptSnapshot;
// payloads from a different cluster shape return ErrSnapshotMismatch.
func (s *Session) RestoreState(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	var p checkpointPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return fmt.Errorf("%w: undecodable payload: %v", ErrCorruptSnapshot, err)
	}
	if p.N != s.c.N() || p.J != s.c.J() || p.M != s.c.M() {
		return fmt.Errorf("%w: snapshot is %d sites x %d job types x %d accounts, session is %dx%dx%d",
			ErrSnapshotMismatch, p.N, p.J, p.M, s.c.N(), s.c.J(), s.c.M())
	}
	if len(p.Pending) != s.c.J() {
		return fmt.Errorf("%w: pending buffer has %d types, cluster has %d", ErrCorruptSnapshot, len(p.Pending), s.c.J())
	}
	pendingTotal := 0
	for j, n := range p.Pending {
		if n < 0 {
			return fmt.Errorf("%w: pending buffer type %d is negative", ErrCorruptSnapshot, j)
		}
		if n > math.MaxInt-pendingTotal {
			return fmt.Errorf("%w: pending buffers sum past the int range at type %d", ErrCorruptSnapshot, j)
		}
		pendingTotal += n
	}
	// The scheduler and the engine each check their state in full before they
	// take any of it. The scheduler goes first and is put back if the engine
	// refuses, so a rejected payload leaves the session as it was.
	prev := s.g.ExportState()
	if err := s.g.RestoreState(&p.Scheduler); err != nil {
		return fmt.Errorf("%w: scheduler state: %v", ErrCorruptSnapshot, err)
	}
	if err := s.exec.RestoreState(&p.Engine); err != nil {
		_ = s.g.RestoreState(prev) // its own export: accepted by construction
		return fmt.Errorf("%w: engine state: %v", ErrCorruptSnapshot, err)
	}
	copy(s.pending, p.Pending)
	s.pendingTotal = pendingTotal
	s.submitted = p.Submitted
	s.rejected = p.Rejected
	return nil
}

// Checkpoint writes the session's durable state to w as a self-contained
// snapshot frame, restorable with Restore.
func (s *Session) Checkpoint(w io.Writer) error {
	payload, err := s.EncodeState()
	if err != nil {
		return err
	}
	if _, err := w.Write(snapshot.Encode(payload)); err != nil {
		return fmt.Errorf("serve: write checkpoint: %w", err)
	}
	return nil
}

// Restore reads a Checkpoint frame from r and rewinds the session onto it.
func (s *Session) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("serve: read checkpoint: %w", err)
	}
	payload, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	return s.RestoreState(payload)
}
