package queue_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"grefar/internal/model"
	"grefar/internal/queue"
)

// fuzzCluster is a small two-site, two-type system; every type runs anywhere
// so no decode can trip an eligibility error instead of a queue invariant.
func fuzzCluster() *model.Cluster {
	all := []int{0, 1}
	return &model.Cluster{
		DataCenters: []model.DataCenter{
			{Name: "w", Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}}},
			{Name: "e", Servers: []model.ServerType{{Name: "s", Speed: 1.2, Power: 0.9}}},
		},
		JobTypes: []model.JobType{
			{Name: "a", Demand: 1, Eligible: all, Account: 0, MaxArrival: 50, MaxProcess: 100},
			{Name: "b", Demand: 2, Eligible: all, Account: 0, MaxArrival: 50, MaxProcess: 100},
		},
		Accounts: []model.Account{{Name: "acct", Weight: 1}},
	}
}

// partialFuzzCluster is fuzzCluster with a third site and holes in the
// eligibility: type a runs at sites 1 and 0, type b at site 1 only, and site
// 2 runs nothing.
func partialFuzzCluster() *model.Cluster {
	c := fuzzCluster()
	c.DataCenters = append(c.DataCenters, model.DataCenter{Name: "n", Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}}})
	c.JobTypes[0].Eligible = []int{1, 0}
	c.JobTypes[1].Eligible = []int{1}
	return c
}

// FuzzApply drives a queue.Set with arbitrary non-negative arrivals and
// scheduler actions — including wildly infeasible ones that demand more work
// than exists — and checks the ledger invariants the rest of the system
// relies on: lengths never go negative, Apply only moves or removes jobs
// (routing conserves, processing removes at most the commanded amount),
// Arrive adds exactly the arrivals, routed flow never exceeds either the
// command or the central backlog, and the physical Set is dominated
// componentwise by the Virtual dynamics of eqs. (12)-(13).
//
// It is also the stale-cell detector for the flow storage Apply reuses: every
// call's FlowStats must equal, field for field, what a second Set — restored
// from the first's Snapshot just before the call, so with untouched scratch —
// returns for the same action, and its Cells must list exactly the pairs
// with h != 0 or r != 0 in row-major order. After every Apply, Arrive and
// Restore the length mirror must match the ledgers. Each slot also offers
// the set its action with one entry made negative (the pair chosen by the
// slot index): the refusal must leave the lengths and the slot's FlowStats,
// Cells included, as they were.
//
// An input whose first byte has its high bit set runs on
// partialFuzzCluster instead: the actions move only eligible pairs, and each
// slot also offers one that moves jobs at an ineligible pair, which must be
// refused in the same way.
func FuzzApply(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 255, 254, 253, 0, 1, 2, 128, 127, 126, 64, 63, 62, 31, 200, 100})
	f.Add([]byte{12, 7, 0, 31, 0, 7, 31, 0, 0, 31, 7, 7, 0, 0, 0, 31, 31, 31})
	// Twelve slots alternating an action that moves every pair with an empty
	// one (a slot reads 8 action bytes and 2 arrival bytes, and the 20 bytes
	// repeat): whatever the wide slot wrote must be gone from the empty one.
	f.Add([]byte{11, 7, 31, 7, 31, 7, 31, 7, 31, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{128 + 9, 7, 31, 3, 9, 200, 17, 5, 0, 31, 7, 1, 2, 64, 8, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		c := fuzzCluster()
		if data[0] >= 128 {
			c = partialFuzzCluster()
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		slots := 1 + int(data[0]%12)
		pos := 1
		next := func() byte {
			b := data[pos%len(data)]
			pos++
			return b
		}

		set := queue.NewSet(c)
		virt := queue.NewVirtual(c)
		const tol = 1e-9
		var totalArrived float64
		for slot := 0; slot < slots; slot++ {
			act := model.NewAction(c)
			var commandRoute, commandProcess float64
			var ineligible [][2]int
			for i := 0; i < c.N(); i++ {
				for j := 0; j < c.J(); j++ {
					r, h := int(next()%8), float64(next()%32)/4
					if !c.JobTypes[j].EligibleSet(i) {
						ineligible = append(ineligible, [2]int{i, j})
						continue
					}
					act.Route[i][j], act.Process[i][j] = r, h
					commandRoute += float64(r)
					commandProcess += h
				}
			}
			arrivals := make([]int, c.J())
			for j := range arrivals {
				arrivals[j] = int(next() % 8)
				totalArrived += float64(arrivals[j])
			}

			pre := set.Lengths()
			preCentral := 0.0
			for _, q := range pre.Central {
				preCentral += q
			}
			snap, err := set.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			flow, err := set.Apply(slot, act)
			if err != nil {
				t.Fatalf("slot %d: Apply on non-negative action: %v", slot, err)
			}
			fresh := queue.NewSet(c)
			if err := fresh.Restore(snap); err != nil {
				t.Fatal(err)
			}
			assertMirror(t, slot, fresh)
			if !reflect.DeepEqual(fresh.Lengths(), pre) {
				t.Fatalf("slot %d: restored set has lengths %v, want %v", slot, fresh.Lengths(), pre)
			}
			want, err := fresh.Apply(slot, act)
			if err != nil {
				t.Fatal(err)
			}
			assertSameFlows(t, slot, cloneFlows(flow), cloneFlows(want))
			var cells, wantCells [][2]int
			for i := 0; i < c.N(); i++ {
				for _, f := range flow.At(i) {
					cells = append(cells, [2]int{i, f.Type})
				}
			}
			for i := range act.Process {
				for j, h := range act.Process[i] {
					if h != 0 || act.Route[i][j] != 0 {
						wantCells = append(wantCells, [2]int{i, j})
					}
				}
			}
			if !slices.Equal(cells, wantCells) {
				t.Fatalf("slot %d: Cells at %v, want the moving pairs %v", slot, cells, wantCells)
			}
			assertMirror(t, slot, set)
			post := set.Lengths()
			assertNonNegative(t, slot, post)

			kept := cloneFlows(flow)
			bad := act.Clone()
			if cell := slot % (c.N() * c.J()); slot%2 == 0 {
				bad.Process[cell/c.J()][cell%c.J()] = -1
			} else {
				bad.Route[cell/c.J()][cell%c.J()] = -1
			}
			bads := []*model.Action{bad}
			if len(ineligible) > 0 {
				bad := act.Clone()
				if p := ineligible[slot%len(ineligible)]; slot%2 == 0 {
					bad.Route[p[0]][p[1]] = 1
				} else {
					bad.Process[p[0]][p[1]] = 0.25
				}
				bads = append(bads, bad)
			}
			for _, bad := range bads {
				if _, err := set.Apply(slot, bad); err == nil {
					t.Fatalf("slot %d: Apply accepted a negative entry or an ineligible move", slot)
				}
				assertSameFlows(t, slot, cloneFlows(flow), kept)
				if !reflect.DeepEqual(set.Lengths(), post) {
					t.Fatalf("slot %d: a rejected action moved the queues", slot)
				}
			}

			// Apply routes (conserving) and processes (removing at most the
			// commanded amount): the total can only shrink, and by no more
			// than sum h.
			removed := pre.Sum() - post.Sum()
			if removed < -tol {
				t.Fatalf("slot %d: Apply created %v jobs", slot, -removed)
			}
			if removed > commandProcess+tol {
				t.Fatalf("slot %d: Apply removed %v > commanded processing %v", slot, removed, commandProcess)
			}
			if r := flow.TotalRouted(); r > commandRoute+tol || r > preCentral+tol {
				t.Fatalf("slot %d: routed %v exceeds command %v or central backlog %v", slot, r, commandRoute, preCentral)
			}

			if err := set.Arrive(slot, arrivals); err != nil {
				t.Fatalf("slot %d: Arrive: %v", slot, err)
			}
			assertMirror(t, slot, set)
			var arrived float64
			for _, a := range arrivals {
				arrived += float64(a)
			}
			final := set.Lengths()
			if math.Abs(final.Sum()-(post.Sum()+arrived)) > tol {
				t.Fatalf("slot %d: Arrive changed total by %v, want %v", slot, final.Sum()-post.Sum(), arrived)
			}
			if final.Sum() > totalArrived+tol {
				t.Fatalf("slot %d: backlog %v exceeds everything that ever arrived %v", slot, final.Sum(), totalArrived)
			}

			// The physical queues cap actions at real content, so they can
			// never exceed the clipped virtual dynamics fed the same inputs.
			virt.Step(act, arrivals)
			vl := virt.Lengths()
			for j := range final.Central {
				if final.Central[j] > vl.Central[j]+tol {
					t.Fatalf("slot %d: central[%d] set %v > virtual %v", slot, j, final.Central[j], vl.Central[j])
				}
			}
			for i := range final.Local {
				for j := range final.Local[i] {
					if final.Local[i][j] > vl.Local[i][j]+tol {
						t.Fatalf("slot %d: local[%d][%d] set %v > virtual %v", slot, i, j, final.Local[i][j], vl.Local[i][j])
					}
				}
			}
		}
	})
}

// assertMirror checks what Lengths, View and Backlog read off the set's
// mirror against the ledgers themselves, bit for bit.
func assertMirror(t *testing.T, slot int, s *queue.Set) {
	t.Helper()
	l := s.Lengths()
	if v := s.View(); !reflect.DeepEqual(v, l) {
		t.Fatalf("slot %d: View() = %v, Lengths() = %v", slot, v, l)
	}
	for j, q := range l.Central {
		if want := s.CentralLen(j); q != want {
			t.Fatalf("slot %d: Lengths().Central[%d] = %v, ledger holds %v", slot, j, q, want)
		}
	}
	for i := range l.Local {
		for j, q := range l.Local[i] {
			if want := s.LocalLen(i, j); q != want {
				t.Fatalf("slot %d: Lengths().Local[%d][%d] = %v, ledger holds %v", slot, i, j, q, want)
			}
		}
	}
	if got, want := s.Backlog(), l.Sum(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("slot %d: Backlog() = %v, Lengths().Sum() = %v", slot, got, want)
	}
}

// flowCopy is a FlowStats copied field by field, each site's run of cells
// included, so a kept copy outlives the storage Apply reuses.
type flowCopy struct {
	cells                          []queue.Flow
	sites                          [][]queue.Flow
	centralDelaySum, centralRouted []float64
	samples                        [][]queue.DelaySample
}

func cloneFlows(fs *queue.FlowStats) flowCopy {
	out := flowCopy{
		cells:           slices.Clone(fs.Cells),
		sites:           make([][]queue.Flow, len(fs.LocalDelaySamples)),
		centralDelaySum: slices.Clone(fs.CentralDelaySum),
		centralRouted:   slices.Clone(fs.CentralRouted),
		samples:         make([][]queue.DelaySample, len(fs.LocalDelaySamples)),
	}
	for i, s := range fs.LocalDelaySamples {
		out.sites[i] = slices.Clone(fs.At(i))
		out.samples[i] = slices.Clone(s)
	}
	return out
}

// assertSameFlows compares two FlowStats copies by content (an empty list
// equals a nil one).
func assertSameFlows(t *testing.T, slot int, got, want flowCopy) {
	t.Helper()
	if !slices.Equal(got.cells, want.cells) {
		t.Fatalf("slot %d: Cells = %v on the reused storage, %v on fresh", slot, got.cells, want.cells)
	}
	if len(got.sites) != len(want.sites) {
		t.Fatalf("slot %d: flows for %d sites, want %d", slot, len(got.sites), len(want.sites))
	}
	for i := range want.sites {
		if !slices.Equal(got.sites[i], want.sites[i]) {
			t.Fatalf("slot %d: At(%d) = %v on the reused storage, %v on fresh", slot, i, got.sites[i], want.sites[i])
		}
		if !slices.Equal(got.samples[i], want.samples[i]) {
			t.Fatalf("slot %d: LocalDelaySamples[%d] = %v on the reused storage, %v on fresh", slot, i, got.samples[i], want.samples[i])
		}
	}
	if !slices.Equal(got.centralDelaySum, want.centralDelaySum) {
		t.Fatalf("slot %d: CentralDelaySum = %v on the reused storage, %v on fresh", slot, got.centralDelaySum, want.centralDelaySum)
	}
	if !slices.Equal(got.centralRouted, want.centralRouted) {
		t.Fatalf("slot %d: CentralRouted = %v on the reused storage, %v on fresh", slot, got.centralRouted, want.centralRouted)
	}
}

func assertNonNegative(t *testing.T, slot int, l queue.Lengths) {
	t.Helper()
	for j, q := range l.Central {
		if q < 0 {
			t.Fatalf("slot %d: central[%d] = %v negative", slot, j, q)
		}
	}
	for i := range l.Local {
		for j, q := range l.Local[i] {
			if q < 0 {
				t.Fatalf("slot %d: local[%d][%d] = %v negative", slot, i, j, q)
			}
		}
	}
}

// TestSetMatchesVirtualOnFeasibleActions pins the two queue implementations
// together: when every action is feasible against current content — routing
// never asks for more than the central backlog, processing never more than
// the local backlog, and all quantities are integers so float arithmetic is
// exact — the capped Set and the clipped Virtual dynamics must produce
// bit-identical Lengths() trajectories.
func TestSetMatchesVirtualOnFeasibleActions(t *testing.T) {
	c := fuzzCluster()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := queue.NewSet(c)
		virt := queue.NewVirtual(c)
		for slot := 0; slot < 30; slot++ {
			cur := set.Lengths()
			act := model.NewAction(c)
			for j := 0; j < c.J(); j++ {
				remaining := int(cur.Central[j])
				for i := 0; i < c.N(); i++ {
					r := rng.Intn(remaining + 1)
					act.Route[i][j] = r
					remaining -= r
				}
			}
			for i := 0; i < c.N(); i++ {
				for j := 0; j < c.J(); j++ {
					act.Process[i][j] = float64(rng.Intn(int(cur.Local[i][j]) + 1))
				}
			}
			arrivals := make([]int, c.J())
			for j := range arrivals {
				arrivals[j] = rng.Intn(9)
			}
			if _, err := set.Apply(slot, act); err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
			if err := set.Arrive(slot, arrivals); err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
			virt.Step(act, arrivals)
			sl, vl := set.Lengths(), virt.Lengths()
			for j := range sl.Central {
				if sl.Central[j] != vl.Central[j] {
					t.Logf("slot %d: central[%d] set %v != virtual %v", slot, j, sl.Central[j], vl.Central[j])
					return false
				}
			}
			for i := range sl.Local {
				for j := range sl.Local[i] {
					if sl.Local[i][j] != vl.Local[i][j] {
						t.Logf("slot %d: local[%d][%d] set %v != virtual %v", slot, i, j, sl.Local[i][j], vl.Local[i][j])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
