package invariant_test

import (
	"math"
	"math/rand"
	"testing"

	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sim"
)

const diffTol = 1e-6

func randLengths(rng *rand.Rand, c *model.Cluster, scale int) queue.Lengths {
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for j := range q.Central {
		q.Central[j] = float64(rng.Intn(scale))
	}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
		for j := range q.Local[i] {
			q.Local[i][j] = float64(rng.Intn(scale))
		}
	}
	return q
}

// TestCrossCheckSolversReferenceCluster runs the four beta = 0 solvers over
// slot problems sampled from the reference system and requires objective
// agreement within 1e-6 relatively.
func TestCrossCheckSolversReferenceCluster(t *testing.T) {
	const slots = 100
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	states, _, err := sim.CollectStates(in, slots)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var maxDiff float64
	for trial := 0; trial < 25; trial++ {
		st := states[rng.Intn(slots)]
		q := randLengths(rng, in.Cluster, 40)
		cfg := core.Config{V: []float64{0.1, 2.5, 7.5, 20}[trial%4]}
		res, err := invariant.CrossCheckSolvers(in.Cluster, cfg, st, q, diffTol)
		if err != nil {
			t.Fatalf("trial %d (V=%g): %v", trial, cfg.V, err)
		}
		if math.IsNaN(res.Greedy) {
			t.Fatalf("trial %d: greedy skipped on an aux-free cluster", trial)
		}
		if res.MaxRelDiff > maxDiff {
			maxDiff = res.MaxRelDiff
		}
	}
	t.Logf("max relative solver disagreement over 25 reference slots: %.3g", maxDiff)
}

// TestCrossCheckSolversHeterogeneous exercises multi-segment sites (several
// server generations per data center), where the greedy's exchange argument
// is subtler.
func TestCrossCheckSolversHeterogeneous(t *testing.T) {
	all := []int{0, 1}
	c := &model.Cluster{
		DataCenters: []model.DataCenter{
			{Name: "west", Servers: []model.ServerType{
				{Name: "gen2", Speed: 0.8, Power: 1.1},
				{Name: "gen3", Speed: 1.0, Power: 0.9},
				{Name: "gen4", Speed: 1.3, Power: 0.8},
			}},
			{Name: "east", Servers: []model.ServerType{
				{Name: "gen2", Speed: 0.8, Power: 1.2},
				{Name: "gen4", Speed: 1.3, Power: 0.75},
			}},
		},
		JobTypes: []model.JobType{
			{Name: "short", Demand: 1, Eligible: all, Account: 0, MaxProcess: 50},
			{Name: "long", Demand: 5, Eligible: all, Account: 1, MaxProcess: 20},
			{Name: "west-only", Demand: 2, Eligible: []int{0}, Account: 0},
		},
		Accounts: []model.Account{{Name: "a", Weight: 0.6}, {Name: "b", Weight: 0.4}},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		st := model.NewState(c)
		for i := range st.Avail {
			for k := range st.Avail[i] {
				st.Avail[i][k] = float64(rng.Intn(12))
			}
			st.Price[i] = 0.2 + rng.Float64()
		}
		q := randLengths(rng, c, 30)
		cfg := core.Config{V: 1 + 10*rng.Float64()}
		if _, err := invariant.CrossCheckSolvers(c, cfg, st, q, diffTol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestCrossCheckSolversAuxResources covers the footnote-3 vector-demand
// extension: the greedy does not apply, and the LP, Frank-Wolfe, and
// projected-gradient paths must still agree through the auxiliary rows.
func TestCrossCheckSolversAuxResources(t *testing.T) {
	all := []int{0, 1}
	c := &model.Cluster{
		DataCenters: []model.DataCenter{
			{Name: "a", Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}}, AuxCapacity: []float64{25}},
			{Name: "b", Servers: []model.ServerType{{Name: "s", Speed: 2, Power: 1.4}}, AuxCapacity: []float64{18}},
		},
		JobTypes: []model.JobType{
			{Name: "light", Demand: 1, Eligible: all, Account: 0, AuxDemand: []float64{1}},
			{Name: "heavy", Demand: 3, Eligible: all, Account: 0, AuxDemand: []float64{6}},
		},
		Accounts: []model.Account{{Name: "acct", Weight: 1}},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		st := model.NewState(c)
		for i := range st.Avail {
			st.Avail[i][0] = float64(5 + rng.Intn(15))
			st.Price[i] = 0.3 + rng.Float64()
		}
		q := randLengths(rng, c, 25)
		cfg := core.Config{V: 1 + 8*rng.Float64()}
		res, err := invariant.CrossCheckSolvers(c, cfg, st, q, diffTol)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !math.IsNaN(res.Greedy) {
			t.Fatal("greedy should be skipped on aux clusters")
		}
	}
}

// TestCrossCheckSolversEmptyAndSaturated covers the degenerate corners: no
// backlog (every solver must return 0) and huge backlog with scarce servers
// (the capacity constraint binds everywhere).
func TestCrossCheckSolversEmptyAndSaturated(t *testing.T) {
	in, err := sim.NewReferenceInputs(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cluster
	states, _, err := sim.CollectStates(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	st := states[0]

	empty := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range empty.Local {
		empty.Local[i] = make([]float64, c.J())
	}
	res, err := invariant.CrossCheckSolvers(c, core.Config{V: 7.5}, st, empty, diffTol)
	if err != nil {
		t.Fatalf("empty backlog: %v", err)
	}
	if res.LP != 0 {
		t.Errorf("empty backlog LP objective %v, want 0", res.LP)
	}

	huge := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range huge.Local {
		huge.Local[i] = make([]float64, c.J())
		for j := range huge.Local[i] {
			huge.Local[i][j] = 5000
		}
	}
	if _, err := invariant.CrossCheckSolvers(c, core.Config{V: 7.5}, st, huge, diffTol); err != nil {
		t.Fatalf("saturated backlog: %v", err)
	}
}

// TestCrossCheckSolversQuadratic runs the beta > 0 mode over slot problems
// sampled from the reference system: vanilla Frank-Wolfe, away-step
// Frank-Wolfe, and projected gradient must agree on the convex slot
// objective within 1e-6 relatively, with every iterate feasible. The greedy
// and the LP solve linear slots only and must be marked NaN.
func TestCrossCheckSolversQuadratic(t *testing.T) {
	const slots = 50
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	states, _, err := sim.CollectStates(in, slots)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var maxDiff float64
	for trial := 0; trial < 12; trial++ {
		st := states[rng.Intn(slots)]
		q := randLengths(rng, in.Cluster, 40)
		cfg := core.Config{
			V:    []float64{2.5, 7.5, 20}[trial%3],
			Beta: []float64{1, 100, 5000}[trial/4],
		}
		res, err := invariant.CrossCheckSolvers(in.Cluster, cfg, st, q, diffTol)
		if err != nil {
			t.Fatalf("trial %d (V=%g beta=%g): %v", trial, cfg.V, cfg.Beta, err)
		}
		if !math.IsNaN(res.Greedy) || !math.IsNaN(res.LP) {
			t.Fatalf("trial %d: linear solvers ran on a quadratic slot (greedy=%v lp=%v)", trial, res.Greedy, res.LP)
		}
		if res.MaxRelDiff > maxDiff {
			maxDiff = res.MaxRelDiff
		}
	}
	t.Logf("max relative solver disagreement over 12 quadratic slots: %.3g", maxDiff)
}

// TestCrossCheckSolversQuadraticAux combines beta > 0 with auxiliary
// resource rows: the projection and the oracle must both honor the extra
// halfspaces while the fairness term couples the sites.
func TestCrossCheckSolversQuadraticAux(t *testing.T) {
	all := []int{0, 1}
	c := &model.Cluster{
		DataCenters: []model.DataCenter{
			{Name: "a", Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}}, AuxCapacity: []float64{25}},
			{Name: "b", Servers: []model.ServerType{{Name: "s", Speed: 2, Power: 1.4}}, AuxCapacity: []float64{18}},
		},
		JobTypes: []model.JobType{
			{Name: "light", Demand: 1, Eligible: all, Account: 0, AuxDemand: []float64{1}},
			{Name: "heavy", Demand: 3, Eligible: all, Account: 1, AuxDemand: []float64{6}},
		},
		Accounts: []model.Account{{Name: "acct-a", Weight: 0.7}, {Name: "acct-b", Weight: 0.3}},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		st := model.NewState(c)
		for i := range st.Avail {
			st.Avail[i][0] = float64(5 + rng.Intn(15))
			st.Price[i] = 0.3 + rng.Float64()
		}
		q := randLengths(rng, c, 25)
		cfg := core.Config{V: 1 + 8*rng.Float64(), Beta: 10 * (1 + 50*rng.Float64())}
		if _, err := invariant.CrossCheckSolvers(c, cfg, st, q, diffTol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestCrossCheckSolversBetaZeroRunsAway pins that the beta = 0 mode also
// cross-runs (away-step) Frank-Wolfe rather than silently skipping it.
func TestCrossCheckSolversBetaZeroRunsAway(t *testing.T) {
	in, err := sim.NewReferenceInputs(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	states, _, err := sim.CollectStates(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := randLengths(rand.New(rand.NewSource(1)), in.Cluster, 10)
	res, err := invariant.CrossCheckSolvers(in.Cluster, core.Config{V: 7.5}, states[0], q, diffTol)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.FrankWolfe) {
		t.Error("Frank-Wolfe objective not computed at beta = 0")
	}
}

// TestCrossCheckDecomposed pins the decomposed solver's participation in the
// differential harness: it must run and agree on aux-free clusters in both
// the linear and quadratic arms, and sit out (NaN) when auxiliary resources
// put the slot outside its domain.
func TestCrossCheckDecomposed(t *testing.T) {
	const slots = 20
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	states, _, err := sim.CollectStates(in, slots)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for trial, beta := range []float64{0, 100} {
		st := states[rng.Intn(slots)]
		q := randLengths(rng, in.Cluster, 40)
		cfg := core.Config{V: 7.5, Beta: beta}
		res, err := invariant.CrossCheckSolvers(in.Cluster, cfg, st, q, diffTol)
		if err != nil {
			t.Fatalf("trial %d (beta=%g): %v", trial, beta, err)
		}
		if math.IsNaN(res.Decomposed) {
			t.Fatalf("trial %d (beta=%g): decomposed solver sat out an aux-free slot", trial, beta)
		}
	}

	aux := &model.Cluster{
		DataCenters: []model.DataCenter{
			{Name: "a", Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}}, AuxCapacity: []float64{25}},
		},
		JobTypes: []model.JobType{
			{Name: "light", Demand: 1, Eligible: []int{0}, Account: 0, AuxDemand: []float64{1}},
		},
		Accounts: []model.Account{{Name: "acct", Weight: 1}},
	}
	if err := aux.Validate(); err != nil {
		t.Fatal(err)
	}
	st := model.NewState(aux)
	st.Avail[0][0] = 10
	st.Price[0] = 0.5
	res, err := invariant.CrossCheckSolvers(aux, core.Config{V: 2}, st, randLengths(rng, aux, 10), diffTol)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Decomposed) {
		t.Error("decomposed solver claimed an auxiliary-resource slot")
	}
}
