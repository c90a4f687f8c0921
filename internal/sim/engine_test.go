package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"grefar/internal/core"
	"grefar/internal/model"
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

// cloneRows deep-copies a matrix row by row.
func cloneRows(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = slices.Clone(m[i])
	}
	return out
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

// TestEngineSnapshotReuse pins, from the outside, how the engine hands out
// backlogs while its scheduler decides on the queue set's live view: the
// post-slot snapshot of slot t is what slot t+1 decides on, retained
// snapshots are never written again, a rewind decides on the restored queues,
// a slot that failed after it moved the queues is never run again on them,
// and Lengths() hands out a snapshot of the caller's own.
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
		// A Step that fails after applying its action leaves the queues moved.
		// The engine must refuse to run that slot again on them; once rewound,
		// it decides on what the restored queues hold.
		const at = 4
		keep := &detailKeeper{}
		e, g := build(t, 8, Options{Observer: keep, Admission: failingAdmission{at: at}})
		steps(t, e, at)
		engSt, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		schedSt := g.ExportState()
		before := e.Lengths()
		first := e.Step(nil)
		if first == nil {
			t.Fatal("misbehaving admission policy accepted")
		}
		if reflect.DeepEqual(e.Lengths(), before) {
			t.Fatal("the failed Step moved nothing; the test proves nothing")
		}
		moved := e.Lengths()
		for k := 0; k < 2; k++ {
			if err := e.Step(nil); err != first {
				t.Fatalf("Step after a failed slot returned %v, want the first error %v", err, first)
			}
		}
		if e.Slot() != at || !reflect.DeepEqual(e.Lengths(), moved) {
			t.Fatal("a refused Step changed the engine")
		}
		if err := e.RestoreState(engSt); err != nil {
			t.Fatal(err)
		}
		if err := g.RestoreState(schedSt); err != nil {
			t.Fatal(err)
		}
		e.opt.Admission = nil
		steps(t, e, 1)
		if got := keep.pre[len(keep.pre)-1]; !reflect.DeepEqual(got, before) {
			t.Fatal("the slot after the rewind did not decide on the restored queues")
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

// failingAdmission admits everything except at slot at, where it returns a
// vector of the wrong length: a failure the engine can only see after the
// slot's action has moved the queues.
type failingAdmission struct{ at int }

func (p failingAdmission) Admit(t int, arrivals []int, _ []float64) []int {
	if t == p.at {
		return arrivals[:0]
	}
	return arrivals
}

func (failingAdmission) Name() string { return "fails-once" }

// TestRejectedStepLeavesNoTrace: a Step whose extra arrivals are malformed is
// refused before the slot's state is revealed or its action applied. The
// engine's durable state and slot counter are unchanged, and the corrected
// call then applies the slot once: the run continues exactly like one that
// never saw the bad call.
func TestRejectedStepLeavesNoTrace(t *testing.T) {
	const slots, at = 10, 5
	build := func() *Engine {
		in := refInputs(t, slots)
		g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(in, g, Options{ValidateActions: true, Check: true})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	export := func(e *Engine) *EngineState {
		t.Helper()
		st, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	extra := func(c int) []int {
		out := make([]int, c)
		for j := range out {
			out[j] = 1 + j%3
		}
		return out
	}
	e, twin := build(), build()
	nJ := e.c.J()
	for s := 0; s < slots; s++ {
		if s == at {
			negative := extra(nJ)
			negative[nJ-1] = -1
			for _, bad := range [][]int{negative, extra(nJ - 1), extra(nJ + 1)} {
				before := export(e)
				if err := e.Step(bad); err == nil {
					t.Fatalf("extra %v accepted", bad)
				}
				if e.Slot() != at {
					t.Fatalf("rejected Step moved the slot counter to %d", e.Slot())
				}
				if !reflect.DeepEqual(export(e), before) {
					t.Fatalf("rejected Step with extra %v changed the engine's state", bad)
				}
			}
		}
		if err := e.Step(extra(nJ)); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if err := twin.Step(extra(nJ)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckerErr(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(export(e), export(twin)) || !reflect.DeepEqual(e.Result(), twin.Result()) {
		t.Fatal("the run that saw rejected calls diverged from the one that did not")
	}
}

// strayRouter is Always until slot at; from then on it also routes one job
// of type 0 to site 1.
type strayRouter struct {
	sched.Scheduler
	at int
}

func (s strayRouter) Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error) {
	act, err := s.Scheduler.Decide(t, st, q)
	if err != nil || t < s.at {
		return act, err
	}
	act = act.Clone()
	act.Route[1][0]++
	return act, nil
}

// TestStepRefusesIneligibleRoute: with action validation off, a scheduler
// that routes jobs to a site their type may not use is refused by the queue
// set, and the Step fails with the engine's durable state and slot counter
// as they were, instead of moving jobs into a queue eqs. (12)-(13) do not
// have.
func TestStepRefusesIneligibleRoute(t *testing.T) {
	const at = 4
	in := refInputs(t, 10)
	in.Cluster.JobTypes[0].Eligible = []int{0}
	always, err := sched.NewAlways(in.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(in, strayRouter{Scheduler: always, at: at}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < at; s++ {
		if err := e.Step(nil); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	before, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(nil); err == nil || !strings.Contains(err.Error(), "not eligible") {
		t.Fatalf("Step with an ineligible route: err = %v", err)
	}
	after, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) || e.Slot() != at {
		t.Fatal("the refused Step changed the engine's state")
	}
}
