package queue

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"grefar/internal/model"
)

func testCluster(t *testing.T) *model.Cluster {
	t.Helper()
	c := model.NewReferenceCluster()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSetArriveAndLengths(t *testing.T) {
	c := testCluster(t)
	s := NewSet(c)
	arr := make([]int, c.J())
	arr[0], arr[3] = 5, 2
	if err := s.Arrive(0, arr); err != nil {
		t.Fatal(err)
	}
	if got := s.CentralLen(0); got != 5 {
		t.Errorf("CentralLen(0) = %v, want 5", got)
	}
	if got := s.CentralLen(3); got != 2 {
		t.Errorf("CentralLen(3) = %v, want 2", got)
	}
	l := s.Lengths()
	if got := l.Sum(); got != 7 {
		t.Errorf("Lengths().Sum() = %v, want 7", got)
	}
}

func TestSetArriveRejectsBadInput(t *testing.T) {
	c := testCluster(t)
	s := NewSet(c)
	if err := s.Arrive(0, []int{1, 2}); err == nil {
		t.Error("short arrival slice not rejected")
	}
	arr := make([]int, c.J())
	arr[1] = -1
	if err := s.Arrive(0, arr); err == nil {
		t.Error("negative arrivals not rejected")
	}
}

func TestSetRouteThenProcessDelays(t *testing.T) {
	c := testCluster(t)
	s := NewSet(c)

	// Slot 0: 4 jobs of type 0 arrive.
	arr := make([]int, c.J())
	arr[0] = 4
	if err := s.Arrive(0, arr); err != nil {
		t.Fatal(err)
	}

	// Slot 1: route all 4 to data center 1. Central delay should be 1 slot
	// per job.
	act := model.NewAction(c)
	act.Route[1][0] = 4
	fs, err := s.Apply(1, act)
	if err != nil {
		t.Fatal(err)
	}
	if fs.CentralRouted[0] != 4 {
		t.Fatalf("routed %v, want 4", fs.CentralRouted[0])
	}
	if fs.CentralDelaySum[0] != 4 {
		t.Errorf("central delay sum = %v, want 4 (1 slot each)", fs.CentralDelaySum[0])
	}
	if got := s.LocalLen(1, 0); got != 4 {
		t.Errorf("LocalLen(1,0) = %v, want 4", got)
	}

	// Slot 2: process 3 of them. Local delay should be 1 slot per job.
	act = model.NewAction(c)
	act.Process[1][0] = 3
	fs, err = s.Apply(2, act)
	if err != nil {
		t.Fatal(err)
	}
	if f := cellAt(fs, 1, 0); f.Processed != 3 {
		t.Errorf("processed %v, want 3", f.Processed)
	}
	if f := cellAt(fs, 1, 0); f.DelaySum != 3 {
		t.Errorf("local delay sum = %v, want 3", f.DelaySum)
	}

	// Slot 5: process the last one; it waited 4 slots in the data center.
	act = model.NewAction(c)
	act.Process[1][0] = 1
	fs, err = s.Apply(5, act)
	if err != nil {
		t.Fatal(err)
	}
	if f := cellAt(fs, 1, 0); f.DelaySum != 4 {
		t.Errorf("local delay sum = %v, want 4", f.DelaySum)
	}
	if got := s.LocalLen(1, 0); got != 0 {
		t.Errorf("LocalLen(1,0) = %v, want 0", got)
	}
}

func TestSetRoutingCappedAtQueueContent(t *testing.T) {
	c := testCluster(t)
	s := NewSet(c)
	arr := make([]int, c.J())
	arr[0] = 3
	if err := s.Arrive(0, arr); err != nil {
		t.Fatal(err)
	}

	// Ask for 5 to dc0 and 5 to dc1: only 3 exist.
	act := model.NewAction(c)
	act.Route[0][0] = 5
	act.Route[1][0] = 5
	fs, err := s.Apply(1, act)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.TotalRouted(); got != 3 {
		t.Errorf("TotalRouted = %v, want 3", got)
	}
	if s.CentralLen(0) != 0 {
		t.Errorf("CentralLen = %v, want 0", s.CentralLen(0))
	}
	if got := s.LocalLen(0, 0) + s.LocalLen(1, 0); got != 3 {
		t.Errorf("local total = %v, want 3", got)
	}
}

func TestSetProcessingCappedAtQueueContent(t *testing.T) {
	c := testCluster(t)
	s := NewSet(c)
	arr := make([]int, c.J())
	arr[0] = 2
	if err := s.Arrive(0, arr); err != nil {
		t.Fatal(err)
	}
	act := model.NewAction(c)
	act.Route[0][0] = 2
	if _, err := s.Apply(1, act); err != nil {
		t.Fatal(err)
	}

	act = model.NewAction(c)
	act.Process[0][0] = 99
	fs, err := s.Apply(2, act)
	if err != nil {
		t.Fatal(err)
	}
	if f := cellAt(fs, 0, 0); f.Processed != 2 {
		t.Errorf("Processed = %v, want 2", f.Processed)
	}
}

func TestSetSameSlotRoutedJobsNotProcessable(t *testing.T) {
	c := testCluster(t)
	s := NewSet(c)
	arr := make([]int, c.J())
	arr[0] = 1
	if err := s.Arrive(0, arr); err != nil {
		t.Fatal(err)
	}
	// Route and process in the same slot: processing happens first (paper
	// dynamics), so the routed job must remain in the local queue.
	act := model.NewAction(c)
	act.Route[0][0] = 1
	act.Process[0][0] = 1
	fs, err := s.Apply(1, act)
	if err != nil {
		t.Fatal(err)
	}
	if f := cellAt(fs, 0, 0); f.Processed != 0 {
		t.Errorf("processed a job the same slot it was routed: %v", f.Processed)
	}
	if got := s.LocalLen(0, 0); got != 1 {
		t.Errorf("LocalLen = %v, want 1", got)
	}
}

func TestSetApplyRejectsMalformed(t *testing.T) {
	c := testCluster(t)
	s := NewSet(c)
	act := model.NewAction(c)
	act.Route = act.Route[:1]
	if _, err := s.Apply(0, act); err == nil {
		t.Error("malformed action not rejected")
	}
	act = model.NewAction(c)
	act.Process[0][0] = -1
	if _, err := s.Apply(0, act); err == nil {
		t.Error("negative process not rejected")
	}
	act = model.NewAction(c)
	act.Route[0][0] = -1
	if _, err := s.Apply(0, act); err == nil {
		t.Error("negative route not rejected")
	}
}

// loadedSet builds a set with backlog in every central queue and every
// eligible local queue, spread over two arrival slots.
func loadedSet(t *testing.T, c *model.Cluster) *Set {
	t.Helper()
	s := NewSet(c)
	arr := make([]int, c.J())
	for slot := 0; slot < 2; slot++ {
		for j := range arr {
			arr[j] = 6 + j + slot
		}
		if err := s.Arrive(slot, arr); err != nil {
			t.Fatal(err)
		}
		act := model.NewAction(c)
		for j, jt := range c.JobTypes {
			for _, i := range jt.Eligible {
				act.Route[i][j] = 2
			}
		}
		if _, err := s.Apply(slot, act); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// cellAt returns what fs moved at (i, j): the zero Flow where it moved
// nothing.
func cellAt(fs *FlowStats, i, j int) Flow {
	for _, f := range fs.At(i) {
		if f.Type == j {
			return f
		}
	}
	return Flow{}
}

// walkLengths builds a Lengths snapshot by walking the ledgers, the reference
// for the mirror Lengths copies: zero at every ineligible pair.
func walkLengths(s *Set) Lengths {
	n, nJ := len(s.view.Local), len(s.central)
	out := Lengths{Central: make([]float64, nJ), Local: make([][]float64, n)}
	for j := range s.central {
		out.Central[j] = s.central[j].Len()
	}
	for i := range out.Local {
		out.Local[i] = make([]float64, nJ)
		for k, j := range s.pairs.At(i) {
			out.Local[i][j] = s.local[s.pairs.Off[i]+k].Len()
		}
	}
	return out
}

// TestRejectedApplyLeavesNoTrace pins validate-before-mutate: an action that
// asks for real processing and routing everywhere but carries one bad entry
// at the very end must be refused with the set's snapshot bytes, its lengths
// and the previous call's FlowStats (Cells included) unchanged, and the
// corrected action must then apply exactly once — the same flows and the
// same final state as on a set that never saw the rejection.
func TestRejectedApplyLeavesNoTrace(t *testing.T) {
	c := testCluster(t)
	n, nJ := c.N(), c.J()
	good := func() *model.Action {
		act := model.NewAction(c)
		for j, jt := range c.JobTypes {
			for _, i := range jt.Eligible {
				act.Route[i][j] = 1
				act.Process[i][j] = 1.5
			}
		}
		return act
	}
	cases := []struct {
		name    string
		corrupt func(act *model.Action)
	}{
		{"negative-route-last-pair", func(act *model.Action) { act.Route[n-1][nJ-1] = -1 }},
		{"negative-process-last-pair", func(act *model.Action) { act.Process[n-1][nJ-1] = -0.5 }},
		{"short-last-row", func(act *model.Action) { act.Process[n-1] = act.Process[n-1][:nJ-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, twin := loadedSet(t, c), loadedSet(t, c)
			// A previous result that processed something, for the refusal
			// to leave alone.
			for _, set := range []*Set{s, twin} {
				if _, err := set.Apply(2, good()); err != nil {
					t.Fatal(err)
				}
			}
			if len(s.flows.Cells) == 0 {
				t.Fatal("the previous slot processed nothing; the comparison proves nothing")
			}
			before, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			bad := good()
			tc.corrupt(bad)
			if _, err := s.Apply(3, bad); err == nil {
				t.Fatal("malformed action accepted")
			}
			after, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("rejected action changed the set")
			}
			if !reflect.DeepEqual(s.Lengths(), walkLengths(s)) {
				t.Fatal("after the refusal Lengths() differs from the ledgers")
			}
			if !reflect.DeepEqual(s.flows, twin.flows) {
				t.Fatal("rejected action changed the previous FlowStats")
			}

			got, err := s.Apply(3, good())
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Apply(3, good())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("corrected resend moved different jobs than on a set that saw no rejection")
			}
			if got.TotalRouted() == 0 {
				t.Fatal("test action routed nothing")
			}
			var cells, wantCells [][2]int
			for i := 0; i < n; i++ {
				for _, f := range got.At(i) {
					cells = append(cells, [2]int{i, f.Type})
				}
			}
			for i, row := range good().Process {
				for j, h := range row {
					if h != 0 || good().Route[i][j] != 0 {
						wantCells = append(wantCells, [2]int{i, j})
					}
				}
			}
			if !reflect.DeepEqual(cells, wantCells) {
				t.Errorf("Cells at %v, want the moving pairs %v", cells, wantCells)
			}
			if !reflect.DeepEqual(s.Lengths(), walkLengths(s)) {
				t.Error("Lengths() after the corrected resend differs from the ledgers")
			}
			gs, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ws, err := twin.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gs, ws) {
				t.Error("final state differs from a set that saw no rejection")
			}
		})
	}
}

// TestSnapshotsOwnTheirRows checks that the single backing array behind a
// Lengths snapshot or a FlowStats is invisible: growing one row or vector
// never writes into its neighbour, and a snapshot taken earlier is not
// touched by later queue movement.
func TestSnapshotsOwnTheirRows(t *testing.T) {
	c := testCluster(t)
	s := loadedSet(t, c)
	l := s.Lengths()
	want := l.Clone()
	_ = append(l.Central, -1)
	for i := range l.Local {
		_ = append(l.Local[i], -1)
	}
	act := model.NewAction(c)
	for j, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			act.Route[i][j] = 1
			act.Process[i][j] = 1
		}
	}
	fs, err := s.Apply(2, act)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, want) {
		t.Error("a Lengths snapshot changed after it was taken")
	}
	wantRouted := append([]float64(nil), fs.CentralRouted...)
	wantSite1 := append([]Flow(nil), fs.At(1)...)
	_ = append(fs.CentralDelaySum, -1)
	_ = append(fs.At(0), Flow{Type: -1})
	if !reflect.DeepEqual(fs.CentralRouted, wantRouted) || !reflect.DeepEqual(fs.At(1), wantSite1) {
		t.Error("growing one FlowStats row wrote into another")
	}
}

func TestVirtualDynamicsMatchPaperEquations(t *testing.T) {
	c := testCluster(t)
	v := NewVirtual(c)
	arr := make([]int, c.J())
	arr[0] = 3

	// Q starts 0; route 5 (over-asks): max[0-5,0] + 3 = 3.
	act := model.NewAction(c)
	act.Route[0][0] = 5
	v.Step(act, arr)
	if v.Central[0] != 3 {
		t.Errorf("Central = %v, want 3", v.Central[0])
	}
	// Local: max[0 - 0, 0] + 5 = 5. Virtual queues really receive the
	// nominal (uncapped) routing.
	if v.Local[0][0] != 5 {
		t.Errorf("Local = %v, want 5", v.Local[0][0])
	}

	// Next slot: process 2, route 1 more.
	act = model.NewAction(c)
	act.Route[0][0] = 1
	act.Process[0][0] = 2
	v.Step(act, make([]int, c.J()))
	if v.Central[0] != 2 {
		t.Errorf("Central = %v, want 2", v.Central[0])
	}
	if v.Local[0][0] != 4 { // max[5-2,0] + 1
		t.Errorf("Local = %v, want 4", v.Local[0][0])
	}
}

// TestCappedNeverExceedsVirtual property: under an arbitrary action stream,
// the physical (capped) backlog never exceeds the virtual backlog of the
// analysis, so Theorem 1's O(V) bound transfers to the real system.
func TestCappedNeverExceedsVirtual(t *testing.T) {
	c := testCluster(t)
	f := func(seed []uint8) bool {
		s := NewSet(c)
		v := NewVirtual(c)
		for slot, b := range seed {
			act := model.NewAction(c)
			for i := 0; i < c.N(); i++ {
				for j := 0; j < c.J(); j++ {
					act.Route[i][j] = int(b+uint8(3*i+5*j)) % 4
					act.Process[i][j] = float64((b+uint8(7*i+j))%5) / 2
				}
			}
			if _, err := s.Apply(slot, act); err != nil {
				return false
			}
			arr := make([]int, c.J())
			for j := range arr {
				arr[j] = int(b+uint8(j)) % 3
			}
			if err := s.Arrive(slot, arr); err != nil {
				return false
			}
			v.Step(act, arr)

			sl, vl := s.Lengths(), v.Lengths()
			for j := range sl.Central {
				if sl.Central[j] > vl.Central[j]+1e-9 {
					return false
				}
			}
			// Total physical backlog never exceeds total virtual backlog.
			if sl.Sum() > vl.Sum()+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSetConservation property: jobs arrived = jobs processed + jobs still
// queued (centrally or locally).
func TestSetConservation(t *testing.T) {
	c := testCluster(t)
	f := func(seed []uint8) bool {
		s := NewSet(c)
		var arrived, processed float64
		for slot, b := range seed {
			act := model.NewAction(c)
			for i := 0; i < c.N(); i++ {
				for j := 0; j < c.J(); j++ {
					act.Route[i][j] = int(b+uint8(i+j)) % 3
					act.Process[i][j] = float64((b+uint8(2*i+3*j))%4) / 2
				}
			}
			fs, err := s.Apply(slot, act)
			if err != nil {
				return false
			}
			for _, f := range fs.Cells {
				processed += f.Processed
			}
			arr := make([]int, c.J())
			for j := range arr {
				arr[j] = int(b+uint8(5*j)) % 2
				arrived += float64(arr[j])
			}
			if err := s.Arrive(slot, arr); err != nil {
				return false
			}
		}
		return math.Abs(arrived-processed-s.Lengths().Sum()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestViewTracksTheSet: the view taken once at construction is the set's
// live backlog. At every slot boundary — after Apply, after Arrive, after a
// Restore onto an earlier snapshot — it equals a fresh Lengths() snapshot,
// while the snapshots taken along the way keep their own values. Taking the
// view allocates nothing.
func TestViewTracksTheSet(t *testing.T) {
	c := testCluster(t)
	s := NewSet(c)
	view := s.View()
	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(view, s.Lengths()) || !reflect.DeepEqual(s.View(), view) {
			t.Fatalf("%s: view %v, Lengths() %v", when, view, s.Lengths())
		}
	}
	check("empty")
	var snaps [][]byte
	var kept []Lengths
	arr := make([]int, c.J())
	for slot := 0; slot < 8; slot++ {
		act := model.NewAction(c)
		for j, jt := range c.JobTypes {
			for _, i := range jt.Eligible {
				act.Route[i][j] = 1 + (i+j+slot)%3
				act.Process[i][j] = float64((i*j+slot)%4) / 2
			}
		}
		if _, err := s.Apply(slot, act); err != nil {
			t.Fatal(err)
		}
		check("after Apply")
		for j := range arr {
			arr[j] = (j + 2*slot) % 7
		}
		if err := s.Arrive(slot, arr); err != nil {
			t.Fatal(err)
		}
		check("after Arrive")
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		kept = append(kept, s.Lengths())
	}
	if view.Sum() == 0 {
		t.Fatal("the queues ended empty; the comparison proved nothing")
	}
	if err := s.Restore(snaps[2]); err != nil {
		t.Fatal(err)
	}
	check("after Restore")
	if !reflect.DeepEqual(view, kept[2]) {
		t.Fatal("the view after a Restore does not read the restored queues")
	}
	seed := make([]float64, c.J())
	for j := range seed {
		seed[j] = float64(2*j + 1)
	}
	if err := s.SeedRow(1, 9, seed); err != nil {
		t.Fatal(err)
	}
	check("after SeedRow")
	if !reflect.DeepEqual(view.Local[1], seed) {
		t.Fatalf("seeded row reads %v, want %v", view.Local[1], seed)
	}
	row, err := s.SnapshotRow(1)
	if err != nil {
		t.Fatal(err)
	}
	restored := make([]Ledger, c.J())
	if err := RestoreLedgers(restored, row); err != nil {
		t.Fatal(err)
	}
	for j := range restored {
		if got := restored[j].Len(); got != seed[j] {
			t.Fatalf("row snapshot ledger %d restores to %v, want %v", j, got, seed[j])
		}
	}
	other := NewSet(c)
	if err := other.Restore(snaps[6]); err != nil {
		t.Fatal(err)
	}
	s.CopyFrom(other)
	check("after CopyFrom")
	if !reflect.DeepEqual(view, kept[6]) {
		t.Fatal("the view after a CopyFrom does not read the copied queues")
	}
	for k := 1; k < len(kept); k++ {
		if reflect.DeepEqual(kept[k], kept[k-1]) {
			t.Fatalf("snapshots %d and %d are equal; the slots moved nothing", k-1, k)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.View() }); n != 0 {
		t.Errorf("View allocates %v times", n)
	}
}

// TestSetCopyFromIsDeepAndReusesArrays pins CopyFrom to the source's state
// without sharing it: every ledger gets the source's cohorts, head and total,
// and the copy snapshots to the same bytes; moving either set afterwards
// leaves the other as it was; and a second copy into the same set allocates
// nothing.
func TestSetCopyFromIsDeepAndReusesArrays(t *testing.T) {
	c := testCluster(t)
	src := NewSet(c)
	act := model.NewAction(c)
	arr := make([]int, c.J())
	for slot := 0; slot < 5; slot++ {
		for j, jt := range c.JobTypes {
			arr[j] = 3 + j
			for _, i := range jt.Eligible {
				act.Route[i][j] = 1
				act.Process[i][j] = 0.5
			}
		}
		if _, err := src.Apply(slot, act); err != nil {
			t.Fatal(err)
		}
		if err := src.Arrive(slot, arr); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b *Ledger) bool {
		return a.head == b.head && a.total == b.total && slices.Equal(a.entries, b.entries)
	}
	dst := NewSet(c)
	dst.CopyFrom(src)
	live := 0
	for j := range src.central {
		if !same(&dst.central[j], &src.central[j]) {
			t.Fatalf("central %d: copy %+v, want %+v", j, dst.central[j], src.central[j])
		}
	}
	for k := range src.local {
		if !same(&dst.local[k], &src.local[k]) {
			t.Fatalf("local pair %d: copy %+v, want %+v", k, dst.local[k], src.local[k])
		}
		if src.local[k].head > 0 {
			live++
		}
	}
	if live == 0 {
		t.Fatal("no ledger has a live head past its first cohort; the copy proved little")
	}
	want, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := dst.Snapshot(); !bytes.Equal(got, want) {
		t.Fatal("the copy snapshots to other bytes than its source")
	}
	if !reflect.DeepEqual(dst.View(), src.View()) {
		t.Fatalf("copy view %v, source view %v", dst.View(), src.View())
	}

	if _, err := src.Apply(5, act); err != nil {
		t.Fatal(err)
	}
	if got, _ := dst.Snapshot(); !bytes.Equal(got, want) {
		t.Fatal("moving the source changed the copy")
	}
	srcSnap, _ := src.Snapshot()
	if _, err := dst.Apply(6, act); err != nil {
		t.Fatal(err)
	}
	if got, _ := src.Snapshot(); !bytes.Equal(got, srcSnap) {
		t.Fatal("moving the copy changed the source")
	}
	dst.CopyFrom(src)
	if allocs := testing.AllocsPerRun(10, func() { dst.CopyFrom(src) }); allocs != 0 {
		t.Errorf("a copy into a grown set allocates %v times, want 0", allocs)
	}
}

// TestEmptiedLedgerRewinds: a ledger whose last cohort is popped returns to
// the start of its slice, so a queue that drains every slot keeps one entry
// of storage, and its snapshot bytes are those of a ledger that never held
// anything.
func TestEmptiedLedgerRewinds(t *testing.T) {
	var l, never Ledger
	for slot := 0; slot < 200; slot++ {
		l.Push(slot, 3)
		if slot%2 == 1 {
			l.Push(slot, 1)
		}
		if got, _ := l.Pop(slot, 10); got == 0 {
			t.Fatalf("slot %d: nothing popped", slot)
		}
		if l.head != 0 || len(l.entries) != 0 {
			t.Fatalf("slot %d: emptied ledger kept head %d, %d entries", slot, l.head, len(l.entries))
		}
	}
	if cap(l.entries) > 1 {
		t.Errorf("a ledger that drains every slot grew to %d entries", cap(l.entries))
	}
	got, err := SnapshotLedgers([]Ledger{l})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SnapshotLedgers([]Ledger{never})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("an emptied ledger's snapshot differs from a never-used one's")
	}
	// A partial pop keeps the live cohort where it is.
	l.Push(300, 5)
	l.Push(301, 5)
	l.Pop(302, 6)
	if l.head != 1 || l.Len() != 4 {
		t.Errorf("partial pop: head %d, length %v", l.head, l.Len())
	}
}
