package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"grefar/internal/core"
	"grefar/internal/queue"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
)

// testConfig builds a serving-mode session config: the reference environment
// with the workload generator removed, so every arrival comes from Submit.
func testConfig(t *testing.T, sched core.Config) SessionConfig {
	t.Helper()
	in, err := sim.NewReferenceInputs(2012, 256)
	if err != nil {
		t.Fatal(err)
	}
	in.Workload = nil
	return SessionConfig{
		Inputs:    in,
		Scheduler: sched,
		Sim:       sim.Options{ValidateActions: true, Check: true},
	}
}

// arrivalSchedule is a deterministic ingest stream: the jobs submitted
// before each slot's tick. Replaying it drives identical sessions.
func arrivalSchedule(slots, j int) [][]Job {
	out := make([][]Job, slots)
	for s := range out {
		var jobs []Job
		for typ := 0; typ < j; typ++ {
			if n := (s + 3*typ) % 7; n > 0 {
				jobs = append(jobs, Job{Type: typ, Count: n})
			}
		}
		out[s] = jobs
	}
	return out
}

func TestSessionSubmitValidation(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit([]Job{{Type: -1}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("negative type: got %v, want ErrBadJob", err)
	}
	if _, err := s.Submit([]Job{{Type: s.Cluster().J()}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("out-of-range type: got %v, want ErrBadJob", err)
	}
	// Batches are atomic: a bad tail must not apply the good head.
	if _, err := s.Submit([]Job{{Type: 0, Count: 5}, {Type: 1, Count: -2}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("negative count: got %v, want ErrBadJob", err)
	}
	for _, n := range s.Pending() {
		if n != 0 {
			t.Fatalf("rejected batch leaked into pending: %v", s.Pending())
		}
	}
	// Zero count means one job; valid batches accumulate.
	accepted, err := s.Submit([]Job{{Type: 0}, {Type: 0, Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 5 || s.Pending()[0] != 5 || s.Submitted() != 5 {
		t.Fatalf("accepted=%d pending=%v submitted=%v", accepted, s.Pending(), s.Submitted())
	}
}

// TestSessionSubmitRefusesOverflow pins that a count which would wrap the
// batch total or the pending buffer is refused before anything moves: a
// wrapped buffer goes negative, and Restore rejects a checkpoint of it as
// corrupt, so the session could never come back.
func TestSessionSubmitRefusesOverflow(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit([]Job{{Type: 0, Count: math.MaxInt}}); err != nil {
		t.Fatalf("first math.MaxInt job refused: %v", err)
	}
	pending, submitted := s.Pending(), s.Submitted()
	for _, batch := range [][]Job{
		{{Type: 0, Count: math.MaxInt}},            // wraps pending[0]
		{{Type: 1, Count: math.MaxInt}, {Type: 1}}, // wraps the batch total
		{{Type: 1, Count: 3}, {Type: 0, Count: 1}}, // wraps pending[0] in its tail
	} {
		rejected := s.rejected
		if _, err := s.Submit(batch); !errors.Is(err, ErrBadJob) {
			t.Fatalf("batch %v: got %v, want ErrBadJob", batch, err)
		}
		if s.rejected != rejected+1 {
			t.Errorf("batch %v: rejected counter %v -> %v, want one more", batch, rejected, s.rejected)
		}
	}
	if !reflect.DeepEqual(s.Pending(), pending) || s.Submitted() != submitted {
		t.Fatalf("refused batches moved the session: pending %v -> %v, submitted %v -> %v",
			pending, s.Pending(), submitted, s.Submitted())
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(&buf); err != nil {
		t.Fatalf("checkpoint after refused overflow does not restore: %v", err)
	}
	if !reflect.DeepEqual(restored.Pending(), pending) {
		t.Errorf("restored pending %v, want %v", restored.Pending(), pending)
	}
}

// TestSessionSubmitRefusesPendingTotalOverflow pins the cross-type half of
// the overflow rule: two submissions that each fit their own type's buffer
// but together overflow the pending total. The second must be refused with
// the session's snapshot unchanged but for the rejected counter, and a
// corrected resend must then apply exactly once, as on a session that never
// saw the refusal. Without the rule the next tick reports a negative
// pending count, and so does grefar_serve_pending_jobs. A snapshot whose
// buffers sum past the int range is refused as corrupt.
func TestSessionSubmitRefusesPendingTotalOverflow(t *testing.T) {
	big := math.MaxInt/2 + 1<<20
	open := func() *Session {
		s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit([]Job{{Type: 0, Count: big}}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	payload := func(s *Session) checkpointPayload {
		data, err := s.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		var p checkpointPayload
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	s, twin := open(), open()
	before := payload(s)
	if _, err := s.Submit([]Job{{Type: 1, Count: big}}); !errors.Is(err, ErrBadJob) {
		rep, tickErr := s.Tick(context.Background())
		t.Fatalf("second submission: got %v, want ErrBadJob; the next tick reports %+v (%v)", err, rep, tickErr)
	}
	after := payload(s)
	if after.Rejected != before.Rejected+1 {
		t.Errorf("rejected counter %v -> %v, want one more", before.Rejected, after.Rejected)
	}
	after.Rejected = before.Rejected
	if !reflect.DeepEqual(after, before) {
		t.Fatal("refused batch moved the session")
	}

	var reps [2]*TickReport
	for k, x := range []*Session{s, twin} {
		if _, err := x.Submit([]Job{{Type: 1, Count: 3}}); err != nil {
			t.Fatal(err)
		}
		rep, err := x.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reps[k] = rep
	}
	if *reps[0] != *reps[1] || reps[0].Pending != big+3-reps[0].Admitted {
		t.Fatalf("corrected resend: tick %+v, on a session without the refusal %+v", *reps[0], *reps[1])
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got := restored.totalPending(); got != reps[0].Pending {
		t.Errorf("restored pending total %d, want %d", got, reps[0].Pending)
	}

	forged := payload(s)
	forged.Pending[0], forged.Pending[1] = math.MaxInt, 1
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(forged); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(enc.Bytes()); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("snapshot with pending buffers summing past MaxInt: got %v, want ErrCorruptSnapshot", err)
	}
}

func TestSessionTickAdmitsWithArrivalCap(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cluster()
	amax := c.JobTypes[0].MaxArrival
	if amax <= 0 {
		t.Skip("reference job type 0 has no arrival bound")
	}
	if _, err := s.Submit([]Job{{Type: 0, Count: 2*amax + 3}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slot != 0 || rep.Admitted != amax || rep.Pending != amax+3 {
		t.Fatalf("first tick: %+v, want slot 0 admitting a_max=%d", rep, amax)
	}
	rep, err = s.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != amax || rep.Pending != 3 {
		t.Fatalf("second tick: %+v", rep)
	}
	if s.Slot() != 2 {
		t.Fatalf("slot counter %d after two ticks", s.Slot())
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Tick(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled tick: got %v", err)
	}
}

// driveSession submits schedule[slot] and ticks once for each slot in
// [from, to), returning the tick reports and the backlog after each tick.
func driveSession(t *testing.T, s *Session, schedule [][]Job, from, to int) ([]TickReport, []queue.Lengths) {
	t.Helper()
	var reps []TickReport
	var traj []queue.Lengths
	for slot := from; slot < to; slot++ {
		if _, err := s.Submit(schedule[slot]); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, *rep)
		traj = append(traj, s.Lengths())
	}
	return reps, traj
}

// TestSessionCheckpointRestore runs 20 slots, checkpoints, restores into a
// fresh session, runs 20 more, and requires the queue trajectory and tick
// reports to match the uninterrupted 40-slot run exactly.
func TestSessionCheckpointRestore(t *testing.T) {
	const slots, split = 40, 20
	cfg := core.Config{V: 7.5, Beta: 100}
	schedule := arrivalSchedule(slots, 8)

	drive := func(s *Session, from, to int) ([]TickReport, []queue.Lengths) {
		t.Helper()
		return driveSession(t, s, schedule, from, to)
	}

	full, err := NewSession(testConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantReps, wantTraj := drive(full, 0, slots)

	first, err := NewSession(testConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	drive(first, 0, split)
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Keep driving the original past the checkpoint to prove the snapshot
	// is detached from the live session.
	drive(first, split, split+3)

	second, err := NewSession(testConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if second.Slot() != split {
		t.Fatalf("restored at slot %d, want %d", second.Slot(), split)
	}
	gotReps, gotTraj := drive(second, split, slots)
	if !reflect.DeepEqual(gotTraj, wantTraj[split:]) {
		t.Fatal("restored session's queue trajectory diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(gotReps, wantReps[split:]) {
		t.Fatalf("restored session's tick reports diverged:\n got %+v\nwant %+v", gotReps, wantReps[split:])
	}
	if got, want := second.Submitted(), full.Submitted(); got != want {
		t.Fatalf("lifetime submitted %v, want %v", got, want)
	}
}

// TestSessionRestoreRewindsRunningSession restores a checkpoint into the very
// session that wrote it, after that session has ticked past it: the engine
// holds a backlog snapshot from the later slot, and the replay must not
// decide against it.
func TestSessionRestoreRewindsRunningSession(t *testing.T) {
	const split, more = 12, 8
	cfg := core.Config{V: 7.5, Beta: 100}
	schedule := arrivalSchedule(split+more, 8)
	sc := testConfig(t, cfg)
	sc.Sim.Check = false // the checker's slot-continuity rule rightly objects to a rewind
	s, err := NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(from, to int) ([]TickReport, []queue.Lengths) {
		t.Helper()
		return driveSession(t, s, schedule, from, to)
	}
	drive(0, split)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	wantReps, wantTraj := drive(split, split+more)
	if err := s.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if s.Slot() != split {
		t.Fatalf("restored at slot %d, want %d", s.Slot(), split)
	}
	gotReps, gotTraj := drive(split, split+more)
	if !reflect.DeepEqual(gotTraj, wantTraj) || !reflect.DeepEqual(gotReps, wantReps) {
		t.Fatal("replay after restoring into the running session diverged from the first pass")
	}
}

// TestSessionRestoresColdCheckpoint restores testdata/beta100-cold-vanilla.snap,
// a beta = 100 session checkpointed after six slots by a build whose convex
// solve started cold from zero every slot (vanilla Frank-Wolfe, no warm
// start), so it carries no valid warm iterate. The continuation must start
// cold once, fall back on its first tick, warm-start every tick after it, and
// keep the invariant checker (on in testConfig) clean.
func TestSessionRestoresColdCheckpoint(t *testing.T) {
	const from, to = 6, 18
	data, err := os.ReadFile("testdata/beta100-cold-vanilla.snap")
	if err != nil {
		t.Fatal(err)
	}
	var stats []telemetry.SolveStats
	cfg := core.Config{V: 7.5, Beta: 100, Observer: telemetry.ObserverFunc(func(ev telemetry.SlotEvent) {
		if ev.Solve != nil {
			stats = append(stats, *ev.Solve)
		}
	})}
	s, err := NewSession(testConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if s.Slot() != from {
		t.Fatalf("restored at slot %d, want %d", s.Slot(), from)
	}
	driveSession(t, s, arrivalSchedule(to, 8), from, to)
	if len(stats) != to-from {
		t.Fatalf("got %d solve stats, want %d", len(stats), to-from)
	}
	for k, st := range stats {
		want := st.Warm == telemetry.WarmHit || st.Warm == telemetry.WarmRepaired
		if k == 0 {
			want = st.Warm == telemetry.WarmFallback
		}
		if !want {
			t.Errorf("slot %d: warm outcome %q", from+k, st.Warm)
		}
	}
	if last := stats[len(stats)-1]; last.WarmFallbacks != 1 {
		t.Errorf("%d fallbacks after the restore, want 1", last.WarmFallbacks)
	}
}

func TestSessionRestoreRejections(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader([]byte("junk"))); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("framing junk: got %v, want ErrCorruptSnapshot", err)
	}
	if err := s.RestoreState([]byte("not gob")); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("payload junk: got %v, want ErrCorruptSnapshot", err)
	}

	// A structurally valid payload from a different cluster shape.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpointPayload{N: 99, J: 1, M: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreState(buf.Bytes()); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("wrong shape: got %v, want ErrSnapshotMismatch", err)
	}

	// A rejected restore must leave the session usable at its old state.
	if _, err := s.Tick(context.Background()); err != nil {
		t.Fatalf("session unusable after rejected restore: %v", err)
	}
}

func TestSessionReconfigure(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5, Beta: 100}))
	if err != nil {
		t.Fatal(err)
	}
	schedule := arrivalSchedule(12, 8)
	ctx := context.Background()
	for slot := 0; slot < 6; slot++ {
		if _, err := s.Submit(schedule[slot]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Same convex shape: warm state carries across the V change.
	cfg := s.Config()
	cfg.V = 20
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if got := s.Config(); got.V != 20 || got.Beta != 100 {
		t.Fatalf("config after reconfigure: %+v", got)
	}
	// Crossing beta to zero drops the convex path entirely; the session
	// must keep ticking on the linear solver.
	cfg.Beta = 0
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	for slot := 6; slot < 12; slot++ {
		if _, err := s.Submit(schedule[slot]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if s.Slot() != 12 {
		t.Fatalf("slot %d after reconfigured run", s.Slot())
	}

	if err := s.Reconfigure(core.Config{V: -1}); err == nil {
		t.Fatal("invalid reconfigure accepted")
	}
	if got := s.Config(); got.V != 20 || got.Beta != 0 {
		t.Fatalf("failed reconfigure mutated config: %+v", got)
	}
}

func TestSessionClose(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("tick after close: %v", err)
	}
	if _, err := s.Submit([]Job{{Type: 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, err := s.EncodeState(); !errors.Is(err, ErrClosed) {
		t.Fatalf("encode after close: %v", err)
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to the full restore path (frame
// decode + gob decode + state validation): it must never panic and must fail
// only with the typed sentinels, leaving the session usable.
func FuzzRestoreSnapshot(f *testing.F) {
	seedCfg := func() SessionConfig {
		in, err := sim.NewReferenceInputs(2012, 64)
		if err != nil {
			f.Fatal(err)
		}
		in.Workload = nil
		return SessionConfig{Inputs: in, Scheduler: core.Config{V: 7.5, Beta: 100},
			Sim: sim.Options{ValidateActions: true}}
	}

	// Seed with a real checkpoint and mutations of it.
	seed, err := NewSession(seedCfg())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seed.Submit([]Job{{Type: 0, Count: 5}, {Type: 3, Count: 2}}); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := seed.Tick(context.Background()); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := seed.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("GFSNAP\r\n"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)

	s, err := NewSession(seedCfg())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := s.Restore(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotVersion) &&
				!errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("untyped restore error: %v", err)
			}
		}
		// Whatever happened, the session must still tick.
		if _, err := s.Tick(context.Background()); err != nil {
			t.Fatalf("session broken after restore attempt: %v", err)
		}
	})
}
