package sim

import (
	"reflect"
	"testing"

	"grefar/internal/core"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/telemetry"
)

// TestEngineMatchesRun checks that stepping an Engine manually produces the
// exact Result Run does — Run is a thin wrapper and must stay one.
func TestEngineMatchesRun(t *testing.T) {
	const slots = 48
	opt := Options{Slots: slots, RecordSeries: true, ValidateActions: true, Check: true}

	in1 := refInputs(t, slots)
	g1, err := core.New(in1.Cluster, core.Config{V: 7.5, Beta: 100})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(in1, g1, opt)
	if err != nil {
		t.Fatal(err)
	}

	in2 := refInputs(t, slots)
	g2, err := core.New(in2.Cluster, core.Config{V: 7.5, Beta: 100})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(in2, g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < slots; s++ {
		if got := e.Slot(); got != s {
			t.Fatalf("Slot() = %d before step %d", got, s)
		}
		if err := e.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckerErr(); err != nil {
		t.Fatal(err)
	}
	if got := e.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine result diverged from Run:\n got %+v\nwant %+v", got, want)
	}
}

// steppedArrivals is a deterministic generator for splitting arrivals between
// the workload path and the extra path.
type steppedArrivals struct {
	counts [][]int
}

func (g *steppedArrivals) Arrivals(t int) []int { return g.counts[t%len(g.counts)] }

// TestEngineExtraArrivals checks that arrivals injected through Step's extra
// parameter land in the queues exactly like generator arrivals: a run whose
// generator emits a+b matches a run whose generator emits a with b injected.
func TestEngineExtraArrivals(t *testing.T) {
	const slots = 24
	base := refInputs(t, slots)
	c := base.Cluster
	full := make([][]int, slots)
	half := make([][]int, slots)
	extra := make([][]int, slots)
	for s := 0; s < slots; s++ {
		full[s] = make([]int, c.J())
		half[s] = make([]int, c.J())
		extra[s] = make([]int, c.J())
		for j := 0; j < c.J(); j++ {
			full[s][j] = (s + 2*j) % 5
			half[s][j] = full[s][j] / 2
			extra[s][j] = full[s][j] - half[s][j]
		}
	}

	run := func(gen *steppedArrivals, extras [][]int) *Result {
		t.Helper()
		in := refInputs(t, slots)
		in.Workload = gen
		g, err := core.New(in.Cluster, core.Config{V: 7.5})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(in, g, Options{ValidateActions: true, Check: true})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			var ex []int
			if extras != nil {
				ex = extras[s]
			}
			if err := e.Step(ex); err != nil {
				t.Fatal(err)
			}
		}
		return e.Result()
	}

	want := run(&steppedArrivals{counts: full}, nil)
	got := run(&steppedArrivals{counts: half}, extra)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extra-arrival run diverged from combined-generator run:\n got %+v\nwant %+v", got, want)
	}

	// No generator at all: the extra stream is the only arrival source.
	in := refInputs(t, slots)
	in.Workload = nil
	g, err := core.New(in.Cluster, core.Config{V: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(in, g, Options{ValidateActions: true, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < slots; s++ {
		if err := e.Step(full[s]); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Result(); got.TotalArrived != want.TotalArrived {
		t.Fatalf("generator-less run arrived %v jobs, want %v", got.TotalArrived, want.TotalArrived)
	}

	// Malformed extras are rejected with slot context.
	if err := e.Step(make([]int, c.J()+1)); err == nil {
		t.Fatal("wrong-length extra arrivals accepted")
	}
	neg := make([]int, c.J())
	neg[0] = -1
	if err := e.Step(neg); err == nil {
		t.Fatal("negative extra arrivals accepted")
	}
}

// TestEngineStateRoundTrip runs N slots, exports engine + scheduler state
// into fresh instances, runs M more, and requires the continued queue
// trajectory and totals to match the uninterrupted run exactly.
func TestEngineStateRoundTrip(t *testing.T) {
	const slots, split = 40, 20
	cfg := core.Config{V: 7.5, Beta: 100}
	opt := Options{ValidateActions: true, Check: true}

	trajectory := func(e *Engine, from, to int) []queue.Lengths {
		t.Helper()
		var traj []queue.Lengths
		for s := from; s < to; s++ {
			if err := e.Step(nil); err != nil {
				t.Fatal(err)
			}
			traj = append(traj, e.Lengths())
		}
		return traj
	}

	inFull := refInputs(t, slots)
	gFull, err := core.New(inFull.Cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eFull, err := NewEngine(inFull, gFull, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantTraj := trajectory(eFull, 0, slots)
	want := eFull.Result()

	inA := refInputs(t, slots)
	gA, err := core.New(inA.Cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eA, err := NewEngine(inA, gA, opt)
	if err != nil {
		t.Fatal(err)
	}
	trajectory(eA, 0, split)
	engSt, err := eA.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	schedSt := gA.ExportState()

	inB := refInputs(t, slots)
	gB, err := core.New(inB.Cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := gB.RestoreState(schedSt); err != nil {
		t.Fatal(err)
	}
	eB, err := NewEngine(inB, gB, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := eB.RestoreState(engSt); err != nil {
		t.Fatal(err)
	}
	if got := eB.Slot(); got != split {
		t.Fatalf("restored engine at slot %d, want %d", got, split)
	}
	gotTraj := trajectory(eB, split, slots)
	if !reflect.DeepEqual(gotTraj, wantTraj[split:]) {
		t.Fatal("restored engine's queue trajectory diverged from the uninterrupted run")
	}
	got := eB.Result()
	if got.TotalArrived != want.TotalArrived || got.TotalProcessed != want.TotalProcessed ||
		got.FinalBacklog != want.FinalBacklog || got.TotalDropped != want.TotalDropped {
		t.Fatalf("restored engine totals diverged: got arrived=%v processed=%v backlog=%v dropped=%v, want %v/%v/%v/%v",
			got.TotalArrived, got.TotalProcessed, got.FinalBacklog, got.TotalDropped,
			want.TotalArrived, want.TotalProcessed, want.FinalBacklog, want.TotalDropped)
	}
	if err := eB.CheckerErr(); err != nil {
		t.Fatal(err)
	}

	// Restores reject garbage but a nil state is a no-op.
	if err := eB.RestoreState(nil); err != nil {
		t.Fatal(err)
	}
	if err := eB.RestoreState(&EngineState{Slot: -1}); err == nil {
		t.Fatal("negative slot counter accepted")
	}
	if err := eB.RestoreState(&EngineState{Slot: 1, Queues: []byte("junk")}); err == nil {
		t.Fatal("corrupt queue snapshot accepted")
	}
}

// detailKeeper retains every applied slot's queue snapshots as delivered,
// next to a deep copy taken at delivery time.
type detailKeeper struct {
	pre, post, preCopy, postCopy []queue.Lengths
}

func (k *detailKeeper) WantsSlotDetail() bool { return true }

func (k *detailKeeper) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin != telemetry.OriginSim || ev.Detail == nil {
		return
	}
	k.pre = append(k.pre, ev.Detail.Pre)
	k.post = append(k.post, ev.Detail.Post)
	k.preCopy = append(k.preCopy, ev.Detail.Pre.Clone())
	k.postCopy = append(k.postCopy, ev.Detail.Post.Clone())
}

// flowKeeper retains every applied slot's Detail as delivered, next to deep
// copies of its flow matrices and queue snapshots taken at delivery time.
type flowKeeper struct {
	details           []*telemetry.SlotDetail
	routed, processed [][][]float64
	pre, post         []queue.Lengths
}

func (k *flowKeeper) WantsSlotDetail() bool { return true }

func (k *flowKeeper) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin != telemetry.OriginSim || ev.Detail == nil {
		return
	}
	k.details = append(k.details, ev.Detail)
	k.routed = append(k.routed, cloneRows(ev.Detail.Routed))
	k.processed = append(k.processed, cloneRows(ev.Detail.Processed))
	k.pre = append(k.pre, ev.Detail.Pre.Clone())
	k.post = append(k.post, ev.Detail.Post.Clone())
}

// TestEngineDetailOwnsFlows holds the engine to SlotDetail's ownership rule
// now that queue.Set.Apply reuses its flow storage: an observer that keeps
// slot t's Detail finds Routed, Processed, Pre and Post unchanged after slots
// t+1 ... t+5 have been applied.
func TestEngineDetailOwnsFlows(t *testing.T) {
	const slots, later = 60, 5
	in := refInputs(t, slots)
	g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
	if err != nil {
		t.Fatal(err)
	}
	keep := &flowKeeper{}
	e, err := NewEngine(in, g, Options{Observer: keep})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < slots; s++ {
		if err := e.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(keep.details) != slots {
		t.Fatalf("observed %d applied slots, want %d", len(keep.details), slots)
	}
	var moved float64
	for s := 0; s+later < slots; s++ {
		d := keep.details[s]
		if !reflect.DeepEqual(d.Routed, keep.routed[s]) {
			t.Fatalf("slot %d: retained Routed was modified by a later slot", s)
		}
		if !reflect.DeepEqual(d.Processed, keep.processed[s]) {
			t.Fatalf("slot %d: retained Processed was modified by a later slot", s)
		}
		if !reflect.DeepEqual(d.Pre, keep.pre[s]) || !reflect.DeepEqual(d.Post, keep.post[s]) {
			t.Fatalf("slot %d: retained Pre/Post was modified by a later slot", s)
		}
		for i := range d.Routed {
			for j := range d.Routed[i] {
				moved += d.Routed[i][j] + d.Processed[i][j]
			}
		}
	}
	if moved == 0 {
		t.Fatal("nothing was routed or processed; the comparison proved nothing")
	}
}

// TestEngineSnapshotReuse pins the engine's one-snapshot-per-slot rule from
// the outside: the post-slot snapshot of slot t is what slot t+1 decides on,
// retained snapshots are never written again, a rewind drops the kept
// snapshot, and Lengths() hands out a snapshot of the caller's own.
func TestEngineSnapshotReuse(t *testing.T) {
	cfg := core.Config{V: 7.5, Beta: 100}
	build := func(t *testing.T, slots int, opt Options) (*Engine, *core.GreFar) {
		t.Helper()
		in := refInputs(t, slots)
		g, err := core.New(in.Cluster, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt.ValidateActions = true
		e, err := NewEngine(in, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return e, g
	}
	steps := func(t *testing.T, e *Engine, n int) []queue.Lengths {
		t.Helper()
		var traj []queue.Lengths
		for s := 0; s < n; s++ {
			if err := e.Step(nil); err != nil {
				t.Fatal(err)
			}
			traj = append(traj, e.Lengths())
		}
		return traj
	}

	t.Run("retained-details", func(t *testing.T) {
		const slots = 200
		keep := &detailKeeper{}
		e, _ := build(t, slots, Options{Check: true, Observer: keep})
		steps(t, e, slots)
		if len(keep.pre) != slots {
			t.Fatalf("observed %d applied slots, want %d", len(keep.pre), slots)
		}
		for s := 0; s < slots; s++ {
			if !reflect.DeepEqual(keep.pre[s], keep.preCopy[s]) {
				t.Fatalf("slot %d: retained Pre was modified after delivery", s)
			}
			if !reflect.DeepEqual(keep.post[s], keep.postCopy[s]) {
				t.Fatalf("slot %d: retained Post was modified after delivery", s)
			}
			if s+1 < slots && !reflect.DeepEqual(keep.post[s], keep.pre[s+1]) {
				t.Fatalf("Post(%d) differs from Pre(%d)", s, s+1)
			}
		}
		if keep.post[slots-1].Sum() == 0 {
			t.Fatal("run ended with empty queues; the comparison proved nothing")
		}
	})

	t.Run("rewind", func(t *testing.T) {
		const split, more = 10, 10
		// No invariant checker here: its slot-continuity rule rightly objects
		// to time running backwards.
		e, g := build(t, split+more, Options{})
		steps(t, e, split)
		engSt, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		schedSt := g.ExportState()
		want := steps(t, e, more)
		// The engine now holds the snapshot slot split+more ended on; the
		// rewind must not decide slot split against it.
		if err := e.RestoreState(engSt); err != nil {
			t.Fatal(err)
		}
		if err := g.RestoreState(schedSt); err != nil {
			t.Fatal(err)
		}
		if got := steps(t, e, more); !reflect.DeepEqual(got, want) {
			t.Fatal("replay after rewinding a running engine diverged from the first pass")
		}
	})

	t.Run("failed-step", func(t *testing.T) {
		// A Step that fails after applying its action leaves the queues moved;
		// the next Step must decide on what is there, not on the snapshot the
		// last good slot ended on.
		keep := &detailKeeper{}
		e, _ := build(t, 8, Options{Observer: keep})
		steps(t, e, 4)
		if err := e.Step([]int{1}); err == nil {
			t.Fatal("wrong-length extra arrivals accepted")
		}
		want := e.Lengths()
		steps(t, e, 1)
		if got := keep.pre[len(keep.pre)-1]; !reflect.DeepEqual(got, want) {
			t.Fatal("the slot after a failed Step decided on a stale snapshot")
		}
		if reflect.DeepEqual(want, keep.post[len(keep.post)-2]) {
			t.Fatal("the failed Step moved nothing; the comparison proved nothing")
		}
	})

	t.Run("lengths-owned-by-caller", func(t *testing.T) {
		const slots = 12
		e, _ := build(t, slots, Options{Check: true})
		twin, _ := build(t, slots, Options{Check: true})
		for s := 0; s < slots; s++ {
			l := e.Lengths()
			for j := range l.Central {
				l.Central[j] = -1
			}
			for i := range l.Local {
				for j := range l.Local[i] {
					l.Local[i][j] = -1
				}
			}
			if err := e.Step(nil); err != nil {
				t.Fatal(err)
			}
			if err := twin.Step(nil); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.Lengths(), twin.Lengths()) {
				t.Fatalf("slot %d: scribbling on a Lengths() result changed the trajectory", s)
			}
		}
	})
}

// TestEngineSetScheduler checks hot-swapping the policy at a slot boundary.
func TestEngineSetScheduler(t *testing.T) {
	const slots = 8
	in := refInputs(t, slots)
	g, err := core.New(in.Cluster, core.Config{V: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(in, g, Options{ValidateActions: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < slots/2; s++ {
		if err := e.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	a, err := sched.NewAlways(in.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	e.SetScheduler(a)
	if e.Scheduler() != a {
		t.Fatal("Scheduler() does not report the swapped policy")
	}
	for s := slots / 2; s < slots; s++ {
		if err := e.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	if res := e.Result(); res.SchedulerName != a.Name() || res.Slots != slots {
		t.Fatalf("post-swap result: scheduler %q slots %d", res.SchedulerName, res.Slots)
	}
}
