package core

import (
	"fmt"
	"math/rand"
	"runtime"
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

// Digests of decisionDigest over 30 slots of stateTestWorld, recorded from
// the dense N*J slot layout — the reference the compact active-pair layout
// was held to, bit for bit, until the dense one was deleted.
const (
	pinnedRefLinear = "83fee5425d8467d0fe859004e27521814b9dbf7a1f6387c760b218501c6dcedc"
	pinnedRefConvex = "62fa4f77cd272ab60dc61744fcc77c9c2a7c1e4319761142f056bc1c6db739cc"
	pinnedOddLinear = "cb1fd5dc83ccd82928e45ad5545c676af1e432529f31c0e0c58dda511ab90cd6"
	pinnedOddConvex = "02476654032f4393bec2c9f4d2b02e4b5dc4723fbbd2216c020f6f7ae26a4fee"

	// V = 40 on auxCluster (the simplex LP and its Frank-Wolfe oracle) and on
	// twoSiteCluster, both under tariff.Quadratic(20) where named.
	pinnedAuxLinear  = "71570195eb67677cf18c0578401af974f6b8213066295c7ebdffd4a6777cb7da"
	pinnedAuxTariff  = "540dfb242d3e8fa658c58fc7618af9109312c5cf4fb7339016400cd4c874e8ed"
	pinnedTariff     = "f4e710293c83148cf72381f94a4f40cbac58af32f7b69c5a3a21fcce3a7ea118"
	pinnedTariffFair = "081183001d7a44ae67a6b0ab872214bf983c6f89099fd06615bff614b4583804"
)

// TestSparseDecideBitIdentical replays the default scheduler over an
// evolving slot sequence and requires every decision and exported state bit
// the dense layout produced — the linear path and the (warm-started) convex
// path, and both again with auxiliary resource rows and under a convex
// tariff.
func TestSparseDecideBitIdentical(t *testing.T) {
	quad, err := tariff.NewQuadratic(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		c          *model.Cluster
		cfg        Config
	}{
		{"beta=0", pinnedRefLinear, refCluster(t), Config{V: 7.5}},
		{"beta=100", pinnedRefConvex, refCluster(t), Config{V: 7.5, Beta: 100}},
		{"aux/beta=0", pinnedAuxLinear, auxCluster(), Config{V: 40}},
		{"aux/tariff", pinnedAuxTariff, auxCluster(), Config{V: 40, Tariff: quad}},
		{"tariff/beta=0", pinnedTariff, twoSiteCluster(), Config{V: 40, Tariff: quad}},
		{"tariff/beta=100", pinnedTariffFair, twoSiteCluster(), Config{V: 40, Beta: 100, Tariff: quad}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := decisionDigest(t, tc.c, tc.cfg, 30); got != tc.want {
				t.Errorf("decision digest %s, dense layout recorded %s", got, tc.want)
			}
		})
	}
}

// TestAutoResolvesRepresentation pins what every configuration runs on and
// allocates: the compact representation, auxiliary resources and non-linear
// tariffs included. Building a scheduler for a 200x100 cluster must cost
// less than its warm iterate plus one N*J float matrix, so no N*J
// coefficient, gradient or greedy matrix can hide in the workspace. Either
// way the scheduler decides feasibly on the small cluster.
func TestAutoResolvesRepresentation(t *testing.T) {
	quadTariff, err := tariff.NewQuadratic(20)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		c    *model.Cluster
		aux  bool // give the 200x100 cluster an auxiliary resource row
		cfg  Config
	}{
		{"reference-linear", refCluster(t), false, Config{V: 7.5}},
		{"reference-convex", refCluster(t), false, Config{V: 7.5, Beta: 100}},
		{"linear-tariff", refCluster(t), false, Config{V: 7.5, Beta: 100, Tariff: tariff.Linear{}}},
		{"auxiliary-resources", auxCluster(), true, Config{V: 1, Beta: 5}},
		{"quadratic-tariff", twoSiteCluster(), false, Config{V: 2, Tariff: quadTariff}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			big := stripedCluster(t, 200, 100, 10)
			if tc.aux {
				for i := range big.DataCenters {
					big.DataCenters[i].AuxCapacity = []float64{50}
				}
				for j := range big.JobTypes {
					big.JobTypes[j].AuxDemand = []float64{1 + float64(j%4)}
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			gBig, err := New(big, tc.cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			budget := 8 * (big.N()*big.J() + len(gBig.ws.warm))
			if got := int(after.TotalAlloc - before.TotalAlloc); got >= budget {
				t.Errorf("New allocated %d bytes on a 200x100 cluster, want < %d (warm iterate plus one N*J matrix)", got, budget)
			}
			if wantWarm := !gBig.linearSlot(); (gBig.ws.warm != nil) != wantWarm {
				t.Errorf("warm buffer allocated = %v, want %v", gBig.ws.warm != nil, wantWarm)
			}

			g, err := New(tc.c, tc.cfg)
			if err != nil {
				t.Fatalf("default solver rejected the configuration: %v", err)
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
			if got := sp.elig.At(i); !slices.Equal(got, want) {
				t.Errorf("N=%d site %d: eligible job types %v, want %v", c.N(), i, got, want)
			}
		}
	}
	if row := newSparseSlot(oddEligibilityCluster(t)).elig.At(1); len(row) != 0 {
		t.Errorf("site no job type may use has row %v", row)
	}
}

// TestSparseDecideBitIdenticalOddEligibility is TestSparseDecideBitIdentical
// on oddEligibilityCluster, with backlog on ineligible pairs too (a queue
// the scheduler must ignore): decisions, warm outcomes and the exported warm
// iterate replay the dense layout's bit for bit.
func TestSparseDecideBitIdenticalOddEligibility(t *testing.T) {
	c := oddEligibilityCluster(t)
	for _, tc := range []struct {
		want string
		cfg  Config
	}{
		{pinnedOddLinear, Config{V: 7.5}},
		{pinnedOddConvex, Config{V: 7.5, Beta: 100}},
	} {
		if got := decisionDigest(t, c, tc.cfg, 30); got != tc.want {
			t.Errorf("%+v: decision digest %s, dense layout recorded %s", tc.cfg, got, tc.want)
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
