package grefar_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"grefar"
)

// sessionInputs builds the reference environment in serving mode: the
// workload generator removed, so arrivals come exclusively from Submit.
func sessionInputs(t testing.TB, slots int) grefar.SimInputs {
	t.Helper()
	in, err := grefar.ReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	in.Workload = nil
	return in
}

// sessionSchedule is the deterministic ingest stream for golden tests: the
// jobs submitted before each slot's tick.
func sessionSchedule(slots, types int) [][]grefar.Job {
	out := make([][]grefar.Job, slots)
	for s := range out {
		var jobs []grefar.Job
		for typ := 0; typ < types; typ++ {
			if n := (s + 3*typ) % 7; n > 0 {
				jobs = append(jobs, grefar.Job{Type: typ, Count: n})
			}
		}
		out[s] = jobs
	}
	return out
}

func TestOpenRequiresInputs(t *testing.T) {
	if _, err := grefar.Open(grefar.WithV(7.5)); !errors.Is(err, grefar.ErrBadInputs) {
		t.Fatalf("Open without inputs: got %v, want ErrBadInputs", err)
	}
}

func TestSessionOpenSubmitTick(t *testing.T) {
	s, err := grefar.Open(
		grefar.WithInputs(sessionInputs(t, 64)),
		grefar.WithV(7.5), grefar.WithBeta(100),
		grefar.WithActionValidation(true), grefar.WithCheck(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit([]grefar.Job{{Type: 0, Count: 3}, {Type: 2, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slot != 0 || rep.Admitted <= 0 {
		t.Fatalf("first tick: %+v", rep)
	}
	if _, err := s.Submit([]grefar.Job{{Type: -1}}); !errors.Is(err, grefar.ErrBadJob) {
		t.Fatalf("bad submit: got %v, want ErrBadJob", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(context.Background()); !errors.Is(err, grefar.ErrSessionClosed) {
		t.Fatalf("tick after close: got %v, want ErrSessionClosed", err)
	}
}

func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	opts := []grefar.SessionOption{grefar.WithInputs(sessionInputs(t, 16)), grefar.WithV(7.5)}
	if _, err := grefar.Restore(bytes.NewReader([]byte("junk")), opts...); !errors.Is(err, grefar.ErrCorruptSnapshot) {
		t.Fatalf("junk restore: got %v, want ErrCorruptSnapshot", err)
	}
}

// TestSessionGoldenRoundTrip is the serving-mode golden guarantee: running N
// slots, checkpointing, restoring into a fresh session, and running M more
// produces the byte-identical slot-event stream and queue trajectory of the
// uninterrupted N+M run — for the linear slot (beta=0) and the
// warm-started convex one (beta>0), checkpointed mid-run with a warm iterate
// in hand and, cold, before the first slot.
func TestSessionGoldenRoundTrip(t *testing.T) {
	const slots = 40
	schedule := sessionSchedule(slots, 8)

	cases := []struct {
		name  string
		split int
		opts  []grefar.SessionOption
	}{
		{"beta0", 20, []grefar.SessionOption{grefar.WithV(7.5), grefar.WithBeta(0)}},
		{"beta100_cold", 0, []grefar.SessionOption{grefar.WithV(7.5), grefar.WithBeta(100)}},
		{"beta100_warm", 20, []grefar.SessionOption{grefar.WithV(7.5), grefar.WithBeta(100)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			split := tc.split
			open := func(events *bytes.Buffer) (*grefar.Session, *bytes.Buffer) {
				obs := grefar.NewJSONLObserver(events)
				opts := append([]grefar.SessionOption{
					grefar.WithInputs(sessionInputs(t, slots)),
					grefar.WithActionValidation(true), grefar.WithCheck(true),
					grefar.WithObserver(obs),
				}, tc.opts...)
				s, err := grefar.Open(opts...)
				if err != nil {
					t.Fatal(err)
				}
				return s, events
			}
			drive := func(s *grefar.Session, from, to int) []grefar.QueueLengths {
				t.Helper()
				var traj []grefar.QueueLengths
				for slot := from; slot < to; slot++ {
					if _, err := s.Submit(schedule[slot]); err != nil {
						t.Fatal(err)
					}
					if _, err := s.Tick(context.Background()); err != nil {
						t.Fatal(err)
					}
					traj = append(traj, s.Lengths())
				}
				return traj
			}

			full, fullEvents := open(new(bytes.Buffer))
			wantTraj := drive(full, 0, slots)

			first, firstEvents := open(new(bytes.Buffer))
			drive(first, 0, split)
			var snap bytes.Buffer
			if err := first.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}

			second, secondEvents := open(new(bytes.Buffer))
			if err := second.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			if second.Slot() != split {
				t.Fatalf("restored at slot %d, want %d", second.Slot(), split)
			}
			gotTraj := drive(second, split, slots)

			if !reflect.DeepEqual(gotTraj, wantTraj[split:]) {
				t.Fatal("restored queue trajectory diverged from the uninterrupted run")
			}
			resumed := append(append([]byte(nil), firstEvents.Bytes()...), secondEvents.Bytes()...)
			if !bytes.Equal(resumed, fullEvents.Bytes()) {
				t.Fatalf("slot-event stream not byte-identical across checkpoint/restore:\nuninterrupted %d bytes, resumed %d bytes",
					fullEvents.Len(), len(resumed))
			}
		})
	}
}

func TestSimulateContext(t *testing.T) {
	in, err := grefar.ReferenceInputs(2012, 48)
	if err != nil {
		t.Fatal(err)
	}
	s, err := grefar.New(in.Cluster, grefar.WithV(7.5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := grefar.Simulate(in, s, grefar.WithSlots(48))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := grefar.New(in.Cluster, grefar.WithV(7.5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := grefar.SimulateContext(context.Background(), in, s2, grefar.WithSlots(48))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("SimulateContext diverged from Simulate")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s3, err := grefar.New(in.Cluster, grefar.WithV(7.5))
	if err != nil {
		t.Fatal(err)
	}
	// The context parameter wins over a conflicting Context carried in by a
	// legacy options literal.
	_, err = grefar.SimulateContext(canceled, in, s3,
		grefar.SimOptions{Slots: 48, Context: context.Background()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled SimulateContext: got %v, want context.Canceled", err)
	}
}

func ExampleOpen() {
	in, err := grefar.ReferenceInputs(2012, 8)
	if err != nil {
		fmt.Println(err)
		return
	}
	in.Workload = nil // arrivals come from Submit
	s, err := grefar.Open(grefar.WithInputs(in), grefar.WithV(7.5), grefar.WithBeta(100))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	if _, err := s.Submit([]grefar.Job{{Type: 0, Count: 2}}); err != nil {
		fmt.Println(err)
		return
	}
	rep, err := s.Tick(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("slot %d admitted %d\n", rep.Slot, rep.Admitted)
	// Output: slot 0 admitted 2
}
