package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
)

func refCluster(t *testing.T) *model.Cluster {
	t.Helper()
	c := model.NewReferenceCluster()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func stateWith(c *model.Cluster, avail float64, prices []float64) *model.State {
	st := model.NewState(c)
	for i := 0; i < c.N(); i++ {
		for k := 0; k < c.K(i); k++ {
			st.Avail[i][k] = avail
		}
		st.Price[i] = prices[i]
	}
	return st
}

func randomLengths(rng *rand.Rand, c *model.Cluster, scale float64) queue.Lengths {
	l := queue.Lengths{
		Central: make([]float64, c.J()),
		Local:   make([][]float64, c.N()),
	}
	for j := range l.Central {
		l.Central[j] = math.Floor(rng.Float64() * scale)
	}
	for i := range l.Local {
		l.Local[i] = make([]float64, c.J())
		for j := range l.Local[i] {
			l.Local[i][j] = math.Floor(rng.Float64() * scale * 10 / 10)
		}
	}
	return l
}

func TestNewValidation(t *testing.T) {
	c := refCluster(t)
	if _, err := New(c, Config{V: -1}); err == nil {
		t.Error("negative V accepted")
	}
	if _, err := New(c, Config{Beta: -1}); err == nil {
		t.Error("negative beta accepted")
	}
	bad := model.NewReferenceCluster()
	bad.JobTypes[0].Demand = 0
	if _, err := New(bad, Config{V: 1}); err == nil {
		t.Error("invalid cluster accepted")
	}
	g, err := New(c, Config{V: 7.5, Beta: 100})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() == "" {
		t.Error("empty name")
	}
}

func TestRoutingPrefersLeastBackloggedSite(t *testing.T) {
	c := refCluster(t)
	g, err := New(c, Config{V: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := stateWith(c, 100, []float64{0.4, 0.4, 0.4})
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
	}
	q.Central[0] = 10
	q.Local[0][0] = 8
	q.Local[1][0] = 2
	q.Local[2][0] = 20 // above Q_j: routing coefficient positive, must get 0

	act, err := g.Decide(0, st, q)
	if err != nil {
		t.Fatal(err)
	}
	if act.Route[2][0] != 0 {
		t.Errorf("routed %d jobs to a site with backlog above the central queue", act.Route[2][0])
	}
	// The 10 available jobs go to the least-backlogged site first (dc1 can
	// take up to MaxRoute=60, so it takes all 10).
	if act.Route[1][0] != 10 {
		t.Errorf("Route[1][0] = %d, want 10 (least-backlogged site)", act.Route[1][0])
	}
	if act.Route[0][0] != 0 {
		t.Errorf("Route[0][0] = %d, want 0", act.Route[0][0])
	}
}

func TestRoutingHonorsMaxRoute(t *testing.T) {
	c := model.NewReferenceCluster()
	c.JobTypes[0].MaxRoute = 3
	g, err := New(c, Config{V: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := stateWith(c, 100, []float64{0.4, 0.4, 0.4})
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
	}
	q.Central[0] = 10
	act, err := g.Decide(0, st, q)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := 0; i < c.N(); i++ {
		if act.Route[i][0] > 3 {
			t.Errorf("Route[%d][0] = %d exceeds MaxRoute 3", i, act.Route[i][0])
		}
		total += act.Route[i][0]
	}
	if total != 9 { // 3 sites x 3 each; 1 job stays queued
		t.Errorf("total routed = %d, want 9", total)
	}
}

func TestThresholdRule(t *testing.T) {
	// The paper's core intuition: with beta=0, jobs are processed at site i
	// only when q_{i,j}/d_j > V * phi_i * p_k/s_k.
	c := refCluster(t)
	st := stateWith(c, 100, []float64{0.5, 0.5, 0.5})
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
	}
	// dc1: speed 1, power 1, price 0.5 -> threshold backlog per unit work is
	// V*0.5. With V=10 the threshold is 5.
	q.Local[0][0] = 4 // below threshold (demand 1): must NOT process
	q.Local[0][2] = 6 // above threshold: must process

	g, err := New(c, Config{V: 10})
	if err != nil {
		t.Fatal(err)
	}
	act, err := g.Decide(0, st, q)
	if err != nil {
		t.Fatal(err)
	}
	if act.Process[0][0] != 0 {
		t.Errorf("processed a job below the price threshold: h=%v", act.Process[0][0])
	}
	if act.Process[0][2] <= 0 {
		t.Errorf("did not process a job above the price threshold")
	}
	// With V=1 the threshold is 0.5 and both types clear it.
	g, err = New(c, Config{V: 1})
	if err != nil {
		t.Fatal(err)
	}
	act, err = g.Decide(0, st, q)
	if err != nil {
		t.Fatal(err)
	}
	if act.Process[0][0] <= 0 || act.Process[0][2] <= 0 {
		t.Errorf("small V should process everything: %v, %v", act.Process[0][0], act.Process[0][2])
	}
}

func TestDecideActionsAreFeasible(t *testing.T) {
	c := refCluster(t)
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []Config{{V: 0}, {V: 2.5}, {V: 20}, {V: 7.5, Beta: 100}} {
		g, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			st := stateWith(c, 50+rng.Float64()*100, []float64{
				0.3 + rng.Float64()*0.3, 0.3 + rng.Float64()*0.3, 0.4 + rng.Float64()*0.4})
			q := randomLengths(rng, c, 40)
			act, err := g.Decide(trial, st, q)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			if err := act.Validate(c, st); err != nil {
				t.Fatalf("cfg %+v trial %d: infeasible action: %v", cfg, trial, err)
			}
			// Processing never exceeds physical queue content.
			for i := 0; i < c.N(); i++ {
				for j := 0; j < c.J(); j++ {
					if act.Process[i][j] > q.Local[i][j]+1e-9 {
						t.Fatalf("h[%d][%d]=%v exceeds queue %v", i, j, act.Process[i][j], q.Local[i][j])
					}
				}
			}
		}
	}
}

// TestGreedyMatchesLP cross-validates the closed-form greedy against the
// simplex LP on random slot problems: the drift-plus-penalty objective must
// agree to tolerance.
func TestGreedyMatchesLP(t *testing.T) {
	c := refCluster(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		cfg := Config{V: []float64{0.1, 2.5, 7.5, 20}[trial%4]}
		g, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := stateWith(c, 20+rng.Float64()*80, []float64{
			0.2 + rng.Float64()*0.5, 0.2 + rng.Float64()*0.5, 0.2 + rng.Float64()*0.5})
		q := randomLengths(rng, c, 60)

		act, err := g.Decide(0, st, q)
		if err != nil {
			t.Fatal(err)
		}
		_, _, lpObj, err := SolveSlotLP(c, cfg, st, q)
		if err != nil {
			t.Fatal(err)
		}
		// Greedy objective: recompute the processing part of the DPP.
		var greedyObj float64
		for i := 0; i < c.N(); i++ {
			greedyObj += cfg.V * act.EnergyAt(c, st, i)
			for j := 0; j < c.J(); j++ {
				greedyObj -= q.Local[i][j] * act.Process[i][j]
			}
		}
		if math.Abs(greedyObj-lpObj) > 1e-5*(1+math.Abs(lpObj)) {
			t.Errorf("trial %d: greedy objective %v != LP %v", trial, greedyObj, lpObj)
		}
	}
}

// TestFrankWolfeMatchesProjectedGradient cross-validates the beta > 0 path.
// The reference cluster has one server type per site, so given h the optimal
// b is determined and the objective is a smooth quadratic of h alone, which
// projected gradient can solve over the per-site capacity polytopes.
func TestFrankWolfeMatchesProjectedGradient(t *testing.T) {
	c := refCluster(t)
	cfg := Config{V: 7.5, Beta: 100, FW: solve.FWOptions{MaxIters: 600, Tol: 1e-10}}
	g, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		st := stateWith(c, 40+rng.Float64()*60, []float64{
			0.3 + rng.Float64()*0.3, 0.35 + rng.Float64()*0.3, 0.45 + rng.Float64()*0.3})
		q := randomLengths(rng, c, 50)
		act, err := g.Decide(0, st, q)
		if err != nil {
			t.Fatal(err)
		}
		fwObj := processingObjective(c, cfg, st, q, act.Process)

		// Projected gradient over h with b eliminated (energy is linear in
		// work at single-server-type sites).
		pgH := solveSlotByProjectedGradient(c, cfg, st, q)
		pgObj := processingObjective(c, cfg, st, q, pgH)

		if fwObj > pgObj+1e-3*(1+math.Abs(pgObj)) {
			t.Errorf("trial %d: FW objective %v worse than PG %v", trial, fwObj, pgObj)
		}
		if pgObj > fwObj+1e-3*(1+math.Abs(fwObj)) {
			t.Errorf("trial %d: PG objective %v worse than FW %v (both should agree)", trial, pgObj, fwObj)
		}
	}
}

// processingObjective evaluates V*e + V*beta*penalty - sum q*h for a given
// processing matrix with optimally provisioned servers.
func processingObjective(c *model.Cluster, cfg Config, st *model.State, q queue.Lengths, process [][]float64) float64 {
	var obj float64
	total := st.TotalResource(c)
	alloc := make([]float64, c.M())
	for i := 0; i < c.N(); i++ {
		var work float64
		for j := 0; j < c.J(); j++ {
			work += process[i][j] * c.JobTypes[j].Demand
			obj -= q.Local[i][j] * process[i][j]
			alloc[c.JobTypes[j].Account] += process[i][j] * c.JobTypes[j].Demand
		}
		_, power, err := model.Provision(c.DataCenters[i], st.Avail[i], work)
		if err != nil {
			return math.Inf(1)
		}
		obj += cfg.V * st.Price[i] * power
	}
	for m, w := range AccountWeights(c) {
		share := 0.0
		if total > 0 {
			share = alloc[m] / total
		}
		d := share - w
		obj += cfg.V * cfg.Beta * d * d
	}
	return obj
}

// solveSlotByProjectedGradient solves the beta>0 slot problem for clusters
// with one server type per site by projected gradient on h.
func solveSlotByProjectedGradient(c *model.Cluster, cfg Config, st *model.State, q queue.Lengths) [][]float64 {
	n := c.N() * c.J()
	hIndex := func(i, j int) int { return i*c.J() + j }
	total := st.TotalResource(c)

	obj := &solve.Quadratic{Linear: make([]float64, n)}
	for i := 0; i < c.N(); i++ {
		stype := c.DataCenters[i].Servers[0]
		for j := 0; j < c.J(); j++ {
			// Energy per processed job: price * p/s * d.
			obj.Linear[hIndex(i, j)] = cfg.V*st.Price[i]*stype.CostPerWork()*c.JobTypes[j].Demand - q.Local[i][j]
		}
	}
	for m, w := range AccountWeights(c) {
		var idx []int
		var coef []float64
		for i := 0; i < c.N(); i++ {
			for j := 0; j < c.J(); j++ {
				if c.JobTypes[j].Account == m {
					idx = append(idx, hIndex(i, j))
					coef = append(coef, c.JobTypes[j].Demand/total)
				}
			}
		}
		obj.Squares = append(obj.Squares, solve.AffineSquare{
			Weight: cfg.V * cfg.Beta, Index: idx, Coef: coef, Offset: -w,
		})
	}

	caps := make([][]float64, c.N())
	weights := make([][]float64, c.N())
	for i := 0; i < c.N(); i++ {
		caps[i] = make([]float64, c.J())
		weights[i] = make([]float64, c.J())
		for j := 0; j < c.J(); j++ {
			jt := c.JobTypes[j]
			if jt.EligibleSet(i) {
				caps[i][j] = processBudgetFor(&jt, q.Local[i][j])
			}
			weights[i][j] = jt.Demand
		}
	}
	project := func(x []float64) {
		for i := 0; i < c.N(); i++ {
			seg := x[i*c.J() : (i+1)*c.J()]
			solve.ProjectWeightedCapBox(seg, weights[i], caps[i], st.Capacity(c, i))
		}
	}
	res := solve.ProjectedGradient(obj, project, make([]float64, n), solve.PGOptions{MaxIters: 4000, Step: 0.5})
	out := make([][]float64, c.N())
	for i := range out {
		out[i] = append([]float64(nil), res.X[i*c.J():(i+1)*c.J()]...)
	}
	return out
}

// TestGreFarBeatsAlternativesOnDPP property: GreFar's action minimizes (14),
// so random feasible alternatives must never score better.
func TestGreFarBeatsAlternativesOnDPP(t *testing.T) {
	c := refCluster(t)
	rng := rand.New(rand.NewSource(123))
	gamma := AccountWeights(c)
	for _, cfg := range []Config{{V: 5}, {V: 7.5, Beta: 100, FW: solve.FWOptions{MaxIters: 400}}} {
		g, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := stateWith(c, 80, []float64{0.39, 0.43, 0.55})
		q := randomLengths(rng, c, 50)
		act, err := g.Decide(0, st, q)
		if err != nil {
			t.Fatal(err)
		}
		best := DriftPlusPenalty(c, cfg, st, q, act, gamma)

		for trial := 0; trial < 60; trial++ {
			alt := model.NewAction(c)
			for j := 0; j < c.J(); j++ {
				// Random routing split respecting the central queue.
				remaining := int(q.Central[j])
				for _, i := range c.JobTypes[j].Eligible {
					r := rng.Intn(remaining + 1)
					if mr := c.JobTypes[j].MaxRoute; mr > 0 && r > mr {
						r = mr
					}
					alt.Route[i][j] = r
					remaining -= r
				}
			}
			for i := 0; i < c.N(); i++ {
				var work float64
				capi := st.Capacity(c, i)
				for j := 0; j < c.J(); j++ {
					if !c.JobTypes[j].EligibleSet(i) {
						continue
					}
					h := rng.Float64() * processBudgetFor(&c.JobTypes[j], q.Local[i][j])
					if work+h*c.JobTypes[j].Demand > capi {
						continue
					}
					alt.Process[i][j] = h
					work += h * c.JobTypes[j].Demand
				}
				busy, _, err := model.Provision(c.DataCenters[i], st.Avail[i], work)
				if err != nil {
					t.Fatal(err)
				}
				alt.Busy[i] = busy
			}
			if v := DriftPlusPenalty(c, cfg, st, q, alt, gamma); v < best-1e-4*(1+math.Abs(best)) {
				t.Errorf("cfg %+v: random action scored %v, better than GreFar's %v", cfg, v, best)
			}
		}
	}
}

func TestVZeroProcessesEverythingAffordable(t *testing.T) {
	// V=0 ignores cost entirely: every queued job whose backlog is positive
	// should be processed (capacity permitting).
	c := refCluster(t)
	g, err := New(c, Config{V: 0})
	if err != nil {
		t.Fatal(err)
	}
	st := stateWith(c, 100, []float64{5, 5, 5}) // absurd prices, irrelevant at V=0
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
	}
	q.Local[0][0] = 10
	act, err := g.Decide(0, st, q)
	if err != nil {
		t.Fatal(err)
	}
	if act.Process[0][0] < 10-1e-9 {
		t.Errorf("V=0 processed only %v of 10 queued jobs", act.Process[0][0])
	}
}

func TestEnergyFairnessCost(t *testing.T) {
	c := refCluster(t)
	st := stateWith(c, 100, []float64{0.5, 0.5, 0.5})
	act := model.NewAction(c)
	act.Process[0][0] = 10
	act.Busy[0][0] = 10
	gamma := AccountWeights(c)

	e := EnergyFairnessCost(c, st, act, 0, gamma)
	if math.Abs(e-5) > 1e-12 { // 10 busy * power 1 * price 0.5
		t.Errorf("energy = %v, want 5", e)
	}
	g100 := EnergyFairnessCost(c, st, act, 100, gamma)
	if g100 <= e {
		t.Errorf("with beta=100 and an unfair allocation, cost %v should exceed energy %v", g100, e)
	}
}

// TestDecideLeavesNoStaleCells: Decide rewrites one action it owns in place,
// so every cell the previous slot set must be cleared. At beta = 0 a decision
// depends on the slot's inputs alone, so after a heavily backlogged slot the
// action for a light one must equal, bit for bit, what a fresh scheduler
// decides on it, under every solver kind.
func TestDecideLeavesNoStaleCells(t *testing.T) {
	c := refCluster(t)
	states, _ := stateTestWorld(t, c, 2)
	heavy := randomLengths(rand.New(rand.NewSource(3)), c, 400)
	light := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range light.Local {
		light.Local[i] = make([]float64, c.J())
	}
	light.Central[1] = 2
	light.Local[0][0] = 30
	nonzero := func(a *model.Action) int {
		n := 0
		for i := range a.Route {
			for j := range a.Route[i] {
				if a.Route[i][j] != 0 || a.Process[i][j] != 0 {
					n++
				}
			}
			for _, b := range a.Busy[i] {
				if b != 0 {
					n++
				}
			}
		}
		return n
	}
	for _, kind := range []SolverKind{SolverAuto, SolverMonolithic, SolverSparse, SolverDecomposed} {
		cfg := Config{V: 7.5, Solver: kind}
		g, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, err := g.Decide(0, states[0], heavy)
		if err != nil {
			t.Fatal(err)
		}
		busy := nonzero(first)
		second, err := g.Decide(1, states[1], light)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Decide(1, states[1], light)
		if err != nil {
			t.Fatal(err)
		}
		if busy <= nonzero(want) {
			t.Fatalf("%v: the heavy slot set %d cells, the light one %d; nothing could go stale", kind, busy, nonzero(want))
		}
		if !reflect.DeepEqual(second, want) {
			t.Errorf("%v: the light slot's action carries cells from the heavy one:\n got %+v\nwant %+v", kind, second, want)
		}
	}
}
