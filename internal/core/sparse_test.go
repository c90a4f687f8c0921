package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/tariff"
)

// sparseTestLengths draws a backlog snapshot with roughly the given fraction
// of eligible pairs holding positive backlog.
func sparseTestLengths(rng *rand.Rand, c *model.Cluster, density float64) queue.Lengths {
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for j := range q.Central {
		q.Central[j] = float64(rng.Intn(30))
	}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
		for j := range q.Local[i] {
			if rng.Float64() < density {
				q.Local[i][j] = float64(1 + rng.Intn(25))
			}
		}
	}
	return q
}

// TestSparseCoefficientsMatchDense is the dense == sparse coefficient
// property: for random backlogs — including the all-zero and all-active
// extremes — every compact coefficient must equal its dense counterpart, and
// every eligible pair left out of the index must be one the dense build gives
// zero backlog.
func TestSparseCoefficientsMatchDense(t *testing.T) {
	c := refCluster(t)
	cfg := Config{V: 7.5, Beta: 100}
	rng := rand.New(rand.NewSource(41))
	densities := []float64{0, 0.1, 0.5, 1}
	for trial := 0; trial < 40; trial++ {
		density := densities[trial%len(densities)]
		st := stateWith(c, 50, []float64{0.3, 0.5, 0.7})
		st.Price[trial%c.N()] = 0.2 + rng.Float64()
		q := sparseTestLengths(rng, c, density)

		sp := newSparseSlot(c)
		sp.refresh(cfg, st, q, nil)
		cH, cB, hCap := SlotCoefficients(c, cfg, st, q)

		seen := make(map[int]bool)
		for i := 0; i < c.N(); i++ {
			for ct := sp.siteOff[i]; ct < sp.siteOff[i+1]; ct++ {
				j := sp.pairJ[ct]
				idx := sp.denseIdx[ct]
				seen[idx] = true
				if idx != i*c.J()+j {
					t.Fatalf("trial %d: compact %d maps to dense %d, want %d", trial, ct, idx, i*c.J()+j)
				}
				if sp.linear[ct] != cH[i][j] {
					t.Errorf("trial %d site %d job %d: compact cH %v, dense %v", trial, i, j, sp.linear[ct], cH[i][j])
				}
				if sp.hCap[ct] != hCap[i][j] {
					t.Errorf("trial %d site %d job %d: compact hCap %v, dense %v", trial, i, j, sp.hCap[ct], hCap[i][j])
				}
				if sp.account[ct] != c.JobTypes[j].Account || sp.demand[ct] != c.JobTypes[j].Demand {
					t.Errorf("trial %d site %d job %d: wrong account/demand maps", trial, i, j)
				}
			}
			for k := 0; k < c.K(i); k++ {
				if sp.linear[sp.bOffC[i]+k] != cB[i][k] {
					t.Errorf("trial %d site %d server %d: compact cB %v, dense %v", trial, i, k, sp.linear[sp.bOffC[i]+k], cB[i][k])
				}
			}
			// Pairs outside the index must carry no dense signal: zero backlog
			// (so cH = 0 and hCap = 0) or ineligibility (hCap = 0 by
			// construction).
			for j := 0; j < c.J(); j++ {
				idx := i*c.J() + j
				if seen[idx] {
					continue
				}
				if c.JobTypes[j].EligibleSet(i) && q.Local[i][j] != 0 {
					t.Errorf("trial %d site %d job %d: backlogged eligible pair missing from index", trial, i, j)
				}
				if hCap[i][j] != 0 && !c.JobTypes[j].EligibleSet(i) {
					t.Errorf("trial %d site %d job %d: ineligible pair has dense cap %v", trial, i, j, hCap[i][j])
				}
			}
		}
		wantH := 0
		for i := 0; i < c.N(); i++ {
			for j := 0; j < c.J(); j++ {
				if c.JobTypes[j].EligibleSet(i) && q.Local[i][j] > 0 {
					wantH++
				}
			}
		}
		if sp.nH != wantH {
			t.Errorf("trial %d: index has %d active pairs, want %d", trial, sp.nH, wantH)
		}
		if density == 0 && sp.nH != 0 {
			t.Errorf("trial %d: all-zero backlog produced %d active pairs", trial, sp.nH)
		}
	}
}

// decisionsEqual compares two actions exactly.
func decisionsEqual(t *testing.T, slot int, label string, a, b *model.Action) {
	t.Helper()
	for i := range a.Process {
		for j := range a.Process[i] {
			if a.Process[i][j] != b.Process[i][j] {
				t.Fatalf("slot %d %s: process[%d][%d] = %v vs %v", slot, label, i, j, a.Process[i][j], b.Process[i][j])
			}
		}
		for k := range a.Busy[i] {
			if a.Busy[i][k] != b.Busy[i][k] {
				t.Fatalf("slot %d %s: busy[%d][%d] = %v vs %v", slot, label, i, k, a.Busy[i][k], b.Busy[i][k])
			}
		}
		for j := range a.Route[i] {
			if a.Route[i][j] != b.Route[i][j] {
				t.Fatalf("slot %d %s: route[%d][%d] = %d vs %d", slot, label, i, j, a.Route[i][j], b.Route[i][j])
			}
		}
	}
}

// TestSparseDecideBitIdentical drives the monolithic and sparse schedulers
// through the same evolving slot sequence and requires byte-identical
// decisions — the bit-identity argument of the sparse representation, pinned
// for the linear path and the (warm-started) convex path. The dense arm pins
// SolverMonolithic: the default resolves to the compact representation on
// this cluster.
func TestSparseDecideBitIdentical(t *testing.T) {
	c := refCluster(t)
	states, lengths := stateTestWorld(t, c, 30)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"beta=0", Config{V: 7.5}},
		{"beta=100", Config{V: 7.5, Beta: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgDense := tc.cfg
			cfgDense.Solver = SolverMonolithic
			dense, err := New(c, cfgDense)
			if err != nil {
				t.Fatal(err)
			}
			cfgSparse := tc.cfg
			cfgSparse.Solver = SolverSparse
			sparse, err := New(c, cfgSparse)
			if err != nil {
				t.Fatal(err)
			}
			for s := range states {
				da, err := dense.Decide(s, states[s], lengths[s])
				if err != nil {
					t.Fatal(err)
				}
				sa, err := sparse.Decide(s, states[s], lengths[s])
				if err != nil {
					t.Fatal(err)
				}
				decisionsEqual(t, s, tc.name, da, sa)
			}
		})
	}
}

// TestAutoResolvesRepresentation pins what SolverAuto picks and what it
// allocates: the compact representation, and none of the dense N*J
// coefficient, gradient, or greedy scratch, whenever the cluster has no
// auxiliary resources and the tariff is linear or absent; the dense layout —
// built without error, where SolverSparse is one — on the inputs the compact
// representation does not cover. Either way the scheduler decides.
func TestAutoResolvesRepresentation(t *testing.T) {
	quadTariff, err := tariff.NewQuadratic(20)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		c       *model.Cluster
		cfg     Config
		compact bool
	}{
		{"reference-linear", refCluster(t), Config{V: 7.5}, true},
		{"reference-convex", refCluster(t), Config{V: 7.5, Beta: 100}, true},
		{"linear-tariff", refCluster(t), Config{V: 7.5, Beta: 100, Tariff: tariff.Linear{}}, true},
		{"auxiliary-resources", auxCluster(), Config{V: 1, Beta: 5}, false},
		{"quadratic-tariff", twoSiteCluster(), Config{V: 2, Tariff: quadTariff}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(tc.c, tc.cfg)
			if err != nil {
				t.Fatalf("default solver rejected the configuration: %v", err)
			}
			if g.compact != tc.compact {
				t.Fatalf("compact = %v, want %v", g.compact, tc.compact)
			}
			ws := g.ws
			if tc.compact {
				if ws.sparse == nil {
					t.Fatal("compact scheduler has no sparse slot")
				}
				if ws.cH != nil || ws.cB != nil || ws.hCap != nil || ws.lin.out.process != nil ||
					ws.linear != nil || ws.gradH != nil || ws.gradB != nil || ws.process != nil {
					t.Error("compact scheduler allocated dense scratch")
				}
			} else {
				if ws.sparse != nil {
					t.Error("dense scheduler allocated a sparse slot")
				}
				sparseCfg := tc.cfg
				sparseCfg.Solver = SolverSparse
				if _, err := New(tc.c, sparseCfg); !errors.Is(err, ErrBadConfig) {
					t.Errorf("SolverSparse on the same inputs: got %v, want ErrBadConfig", err)
				}
			}
			c := tc.c
			prices := make([]float64, c.N())
			for i := range prices {
				prices[i] = 0.3 + 0.1*float64(i)
			}
			st := stateWith(c, 50, prices)
			q := sparseTestLengths(rand.New(rand.NewSource(3)), c, 0.7)
			act, err := g.Decide(0, st, q)
			if err != nil {
				t.Fatal(err)
			}
			if err := act.Validate(c, st); err != nil {
				t.Errorf("infeasible action: %v", err)
			}
		})
	}
}

// TestSparseRefreshIncremental pins the refresh machinery: with stable active
// membership, slot-to-slot input drift lands on the in-place path (row
// refreshes, no rebuilds); a membership flip forces a rebuild.
func TestSparseRefreshIncremental(t *testing.T) {
	c := refCluster(t)
	cfg := Config{V: 7.5, Beta: 100}
	st := stateWith(c, 50, []float64{0.3, 0.5, 0.7})
	rng := rand.New(rand.NewSource(7))
	q := sparseTestLengths(rng, c, 1) // fully active: value drift cannot flip membership

	sp := newSparseSlot(c)
	sp.refresh(cfg, st, q, nil)
	if sp.rebuilds != 1 || sp.rowRefreshes != 0 {
		t.Fatalf("first refresh: rebuilds=%d rowRefreshes=%d, want 1/0", sp.rebuilds, sp.rowRefreshes)
	}
	gen := sp.gen

	// Backlog and price drift with unchanged membership: in-place refresh.
	q.Local[1][0] += 3
	st.Price[2] = 0.9
	sp.refresh(cfg, st, q, nil)
	if sp.rebuilds != 1 {
		t.Errorf("value drift triggered a rebuild (rebuilds=%d)", sp.rebuilds)
	}
	if sp.rowRefreshes == 0 {
		t.Error("value drift refreshed no rows")
	}
	if sp.gen != gen {
		t.Error("in-place refresh bumped the index generation")
	}
	if sp.linear[sp.siteOff[1]] != -q.Local[1][0] {
		t.Errorf("refreshed cH = %v, want %v", sp.linear[sp.siteOff[1]], -q.Local[1][0])
	}

	// Unchanged inputs: no work at all.
	rows := sp.rowRefreshes
	sp.refresh(cfg, st, q, nil)
	if sp.rowRefreshes != rows || sp.rebuilds != 1 {
		t.Error("no-op refresh did work")
	}

	// Draining a queue flips membership: rebuild.
	q.Local[0][1] = 0
	sp.refresh(cfg, st, q, nil)
	if sp.rebuilds != 2 {
		t.Errorf("membership flip did not rebuild (rebuilds=%d)", sp.rebuilds)
	}
	if sp.gen == gen {
		t.Error("rebuild did not bump the index generation")
	}
}

// FuzzSparseRefresh drives a sparseSlot through fuzzer-chosen backlog and
// price mutations, refreshing incrementally after each, and requires the
// refreshed representation to equal a from-scratch rebuild on the final
// inputs — the incremental path must be indistinguishable from the rebuild
// path.
func FuzzSparseRefresh(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(9))
	f.Add(int64(-7), uint8(0))
	f.Add(int64(9000), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, mutations uint8) {
		checkSparseRefresh(t, model.NewReferenceCluster(), seed, mutations)
		checkSparseRefresh(t, oddEligibilityCluster(t), seed, mutations)
	})
}

// checkSparseRefresh is FuzzSparseRefresh's property on one cluster.
func checkSparseRefresh(t *testing.T, c *model.Cluster, seed int64, mutations uint8) {
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{V: 7.5, Beta: 100}
	rng := rand.New(rand.NewSource(seed))
	prices := make([]float64, c.N())
	for i := range prices {
		prices[i] = 0.3 + 0.2*float64(i%3)
	}
	st := stateWith(c, 50, prices)
	q := sparseTestLengths(rng, c, 0.4)

	inc := newSparseSlot(c)
	inc.refresh(cfg, st, q, nil)
	for m := 0; m < int(mutations); m++ {
		switch rng.Intn(4) {
		case 0: // backlog drift on one pair
			q.Local[rng.Intn(c.N())][rng.Intn(c.J())] = float64(rng.Intn(30))
		case 1: // price drift on one site
			st.Price[rng.Intn(c.N())] = 0.1 + rng.Float64()
		case 2: // drain a whole site
			site := rng.Intn(c.N())
			for j := range q.Local[site] {
				q.Local[site][j] = 0
			}
		case 3: // no-op slot
		}
		inc.refresh(cfg, st, q, nil)
	}

	fresh := newSparseSlot(c)
	fresh.refresh(cfg, st, q, nil)

	if inc.nH != fresh.nH || inc.total != fresh.total {
		t.Fatalf("index shape diverged: nH %d/%d total %d/%d", inc.nH, fresh.nH, inc.total, fresh.total)
	}
	for ct := 0; ct < inc.nH; ct++ {
		if inc.denseIdx[ct] != fresh.denseIdx[ct] || inc.pairJ[ct] != fresh.pairJ[ct] {
			t.Fatalf("compact %d: index diverged (%d/%d vs %d/%d)",
				ct, inc.denseIdx[ct], inc.pairJ[ct], fresh.denseIdx[ct], fresh.pairJ[ct])
		}
		if inc.hCap[ct] != fresh.hCap[ct] {
			t.Fatalf("compact %d: hCap %v vs %v", ct, inc.hCap[ct], fresh.hCap[ct])
		}
	}
	for ct := range fresh.linear {
		if inc.linear[ct] != fresh.linear[ct] {
			t.Fatalf("compact %d: linear %v vs %v", ct, inc.linear[ct], fresh.linear[ct])
		}
	}
	for idx := range fresh.active {
		if inc.active[idx] != fresh.active[idx] {
			t.Fatalf("dense %d: active %v vs %v", idx, inc.active[idx], fresh.active[idx])
		}
	}
}

// oddEligibilityCluster has the placement shapes the eligibility index must
// get right: Eligible lists in no particular order, a site no job type may
// use (site 1: an empty row), and a job type that runs at one site only.
func oddEligibilityCluster(tb testing.TB) *model.Cluster {
	tb.Helper()
	c := &model.Cluster{
		Accounts: []model.Account{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}},
	}
	for i := 0; i < 5; i++ {
		c.DataCenters = append(c.DataCenters, model.DataCenter{
			Name: fmt.Sprintf("dc%d", i),
			Servers: []model.ServerType{
				{Name: "std", Speed: 1.5 + 0.1*float64(i), Power: 1},
				{Name: "eco", Speed: 1, Power: 0.5},
			},
		})
	}
	for j, eligible := range [][]int{{3, 0, 2}, {4}, {2, 0}, {4, 3, 0}, {3, 2}} {
		c.JobTypes = append(c.JobTypes, model.JobType{
			Name:       fmt.Sprintf("t%d", j),
			Demand:     1 + 0.5*float64(j%3),
			Eligible:   eligible,
			Account:    j % 2,
			MaxArrival: 40,
			MaxProcess: []float64{0, 12}[j%2],
		})
	}
	if err := c.Validate(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestEligibilityIndex pins the per-site eligibility rows: each is the
// ascending list of the job types whose D_j holds the site, whatever order
// the Eligible lists are in, and a site outside every D_j has an empty row.
func TestEligibilityIndex(t *testing.T) {
	for _, c := range []*model.Cluster{refCluster(t), oddEligibilityCluster(t)} {
		sp := newSparseSlot(c)
		for i := 0; i < c.N(); i++ {
			var want []int
			for j := range c.JobTypes {
				if c.JobTypes[j].EligibleSet(i) {
					want = append(want, j)
				}
			}
			if got := sp.eligibleAt(i); !slices.Equal(got, want) {
				t.Errorf("N=%d site %d: eligible job types %v, want %v", c.N(), i, got, want)
			}
		}
	}
	if row := newSparseSlot(oddEligibilityCluster(t)).eligibleAt(1); len(row) != 0 {
		t.Errorf("site no job type may use has row %v", row)
	}
}

// TestSparseDecideBitIdenticalOddEligibility is TestSparseDecideBitIdentical
// on oddEligibilityCluster, with backlog on ineligible pairs too (a queue
// the scheduler must ignore): decisions, warm outcomes and the exported warm
// iterate agree bit for bit between the dense layout and the compact one.
func TestSparseDecideBitIdenticalOddEligibility(t *testing.T) {
	c := oddEligibilityCluster(t)
	states, lengths := stateTestWorld(t, c, 30)
	for _, cfg := range []Config{
		{V: 7.5},
		{V: 7.5, Beta: 100},
	} {
		cfgDense, cfgSparse := cfg, cfg
		cfgDense.Solver, cfgSparse.Solver = SolverMonolithic, SolverSparse
		dense, err := New(c, cfgDense)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := New(c, cfgSparse)
		if err != nil {
			t.Fatal(err)
		}
		for s := range states {
			da, err := dense.Decide(s, states[s], lengths[s])
			if err != nil {
				t.Fatal(err)
			}
			sa, err := sparse.Decide(s, states[s], lengths[s])
			if err != nil {
				t.Fatal(err)
			}
			decisionsEqual(t, s, fmt.Sprintf("%+v", cfg), da, sa)
			if !reflect.DeepEqual(dense.ExportState(), sparse.ExportState()) {
				t.Fatalf("slot %d %+v: exported scheduler states differ", s, cfg)
			}
		}
	}
}

// stripedCluster builds n two-server sites and nJ job types, type j eligible
// at the sites i with i%stripes == j%stripes: 1/stripes of all pairs.
func stripedCluster(tb testing.TB, n, nJ, stripes int) *model.Cluster {
	tb.Helper()
	c := &model.Cluster{Accounts: make([]model.Account, 8)}
	for m := range c.Accounts {
		c.Accounts[m] = model.Account{Name: fmt.Sprintf("org%d", m), Weight: 1 + 0.5*float64(m%3)}
	}
	for i := 0; i < n; i++ {
		c.DataCenters = append(c.DataCenters, model.DataCenter{
			Name: fmt.Sprintf("dc%d", i),
			Servers: []model.ServerType{
				{Name: "std", Speed: 2 - 0.4*float64(i%3), Power: 1 + 0.1*float64(i%3)},
				{Name: "eco", Speed: 1.2 - 0.2*float64(i%3), Power: 0.5 + 0.1*float64(i%3)},
			},
		})
	}
	for j := 0; j < nJ; j++ {
		var eligible []int
		for i := j % stripes; i < n; i += stripes {
			eligible = append(eligible, i)
		}
		c.JobTypes = append(c.JobTypes, model.JobType{
			Name:       fmt.Sprintf("type%d", j),
			Demand:     1 + 0.25*float64(j%5),
			Eligible:   eligible,
			Account:    j % len(c.Accounts),
			MaxArrival: 1 << 20,
		})
	}
	if err := c.Validate(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestSparseRepairWarmMatchesDense runs sparseSlot.repairWarm against the
// dense repairWarmStart on the same iterates over a 200x100 stream with a
// tenth of the pairs eligible: the iterate a warm-started scheduler carries
// from slot to slot, sometimes perturbed on eligible pairs and busy-server
// variables (negative values, values above their cap), under backlogs that
// drain and availability that now and then collapses at one site. The two
// must classify every iterate alike and, unless both give it up, leave the
// same bytes — which a second pass of either must then accept as they are.
func TestSparseRepairWarmMatchesDense(t *testing.T) {
	c := stripedCluster(t, 200, 100, 10)
	cfg := Config{V: 7.5, Beta: 100}
	g, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newSlotLayout(c)
	rng := rand.New(rand.NewSource(2012))
	st := model.NewState(c)
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
	}
	sp := newSparseSlot(c)
	outcomes := make(map[warmOutcome]int)
	// repairBoth repairs one copy of x each way and returns the outcome and
	// the repaired iterate (nil when both fell back).
	repairBoth := func(s int, x []float64) (warmOutcome, []float64) {
		xs, xd := append([]float64(nil), x...), append([]float64(nil), x...)
		sp.refresh(cfg, st, q, xs)
		_, _, hCap := SlotCoefficients(c, cfg, st, q)
		got, want := sp.repairWarm(st, xs), repairWarmStart(c, st, hCap, l, xd)
		if got != want {
			t.Fatalf("slot %d: sparse repair says %v, dense %v", s, got, want)
		}
		outcomes[want]++
		if want == warmFallback {
			return want, nil
		}
		for idx := range xd {
			if math.Float64bits(xs[idx]) != math.Float64bits(xd[idx]) {
				t.Fatalf("slot %d: variable %d repaired to %v, dense %v", s, idx, xs[idx], xd[idx])
			}
		}
		return want, xs
	}
	for s := 0; s < 40; s++ {
		for i := 0; i < c.N(); i++ {
			st.Price[i] = 0.3 + 0.4*rng.Float64()
			st.Avail[i][0], st.Avail[i][1] = float64(2+rng.Intn(4)), float64(1+rng.Intn(4))
			for j := range q.Local[i] {
				q.Local[i][j] = 0
				if c.JobTypes[j].EligibleSet(i) && rng.Intn(4) != 0 {
					q.Local[i][j] = float64(rng.Intn(12))
				}
			}
		}
		if s%5 == 4 {
			i := rng.Intn(c.N())
			st.Avail[i][0], st.Avail[i][1] = 0.1, 0
		}
		if g.ws.warmValid {
			x := append([]float64(nil), g.ws.warm...)
			if s%2 == 0 {
				for n := 0; n < 50; n++ {
					j := rng.Intn(c.J())
					i := c.JobTypes[j].Eligible[rng.Intn(len(c.JobTypes[j].Eligible))]
					x[l.hIndex(i, j)] = 12*rng.Float64() - 2
					x[l.bOff[rng.Intn(c.N())]+rng.Intn(2)] = 6*rng.Float64() - 1
				}
			}
			if outcome, repaired := repairBoth(s, x); outcome != warmFallback {
				if again, _ := repairBoth(s, repaired); again != warmHit {
					t.Fatalf("slot %d: a repaired iterate needed repair again (%v)", s, again)
				}
			}
		}
		if _, err := g.Decide(s, st, q); err != nil {
			t.Fatal(err)
		}
	}
	if outcomes[warmHit] == 0 || outcomes[warmRepaired] == 0 || outcomes[warmFallback] == 0 {
		t.Errorf("stream did not reach every outcome: %v", outcomes)
	}
}
