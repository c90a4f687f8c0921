package core

import (
	"math"
	"math/rand"
	"testing"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
	"grefar/internal/tariff"
)

// twoSiteCluster builds two identical sites so tariff-driven load spreading
// is the only asymmetry.
func twoSiteCluster() *model.Cluster {
	return &model.Cluster{
		DataCenters: []model.DataCenter{
			{Name: "a", Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}}},
			{Name: "b", Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}}},
		},
		JobTypes: []model.JobType{
			{Name: "j", Demand: 1, Eligible: []int{0, 1}, Account: 0, MaxProcess: 1000},
		},
		Accounts: []model.Account{{Name: "o", Weight: 1}},
	}
}

func TestQuadraticTariffSpreadsLoad(t *testing.T) {
	// Under linear pricing with equal prices, processing 40 jobs at one
	// site or across two sites costs the same. Under a convex tariff,
	// splitting halves the marginal price — the optimizer must spread.
	c := twoSiteCluster()
	trf, err := tariff.NewQuadratic(20)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(c, Config{V: 1, Tariff: trf, FW: solve.FWOptions{MaxIters: 500, Tol: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	st := model.NewState(c)
	st.Avail[0][0], st.Avail[1][0] = 100, 100
	st.Price[0], st.Price[1] = 0.4, 0.4

	// Big backlog at both sites (jobs already routed 20/20).
	q := queue.Lengths{Central: []float64{0}, Local: [][]float64{{20}, {20}}}
	act, err := g.Decide(0, st, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := act.Validate(c, st); err != nil {
		t.Fatal(err)
	}
	// Both sites should process comparable amounts (the convex tariff
	// penalizes concentration).
	w0, w1 := act.WorkAt(c, 0), act.WorkAt(c, 1)
	if w0+w1 <= 0 {
		t.Fatal("nothing processed")
	}
	if math.Abs(w0-w1) > 0.2*(w0+w1) {
		t.Errorf("load not spread: %v vs %v", w0, w1)
	}
}

func TestQuadraticTariffDefersAtHighDraw(t *testing.T) {
	// A big base load pushes the marginal price up; the scheduler should
	// process less there than at an otherwise identical idle site.
	c := twoSiteCluster()
	trf, err := tariff.NewQuadratic(20)
	if err != nil {
		t.Fatal(err)
	}
	// V chosen so the backlog reward per job (15) sits between the idle
	// site's marginal cost (V*0.4 = 4) and the loaded site's
	// (V*0.4*(1+60/20) = 16): the threshold rule must split them.
	g, err := New(c, Config{V: 10, Tariff: trf, FW: solve.FWOptions{MaxIters: 500, Tol: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	st := model.NewState(c)
	st.Avail[0][0], st.Avail[1][0] = 100, 100
	st.Price[0], st.Price[1] = 0.4, 0.4
	st.BaseEnergy = []float64{60, 0} // site a already drawing heavily

	q := queue.Lengths{Central: []float64{0}, Local: [][]float64{{15}, {15}}}
	act, err := g.Decide(0, st, q)
	if err != nil {
		t.Fatal(err)
	}
	if act.WorkAt(c, 0) >= act.WorkAt(c, 1) {
		t.Errorf("loaded site processed %v >= idle site %v", act.WorkAt(c, 0), act.WorkAt(c, 1))
	}
}

// TestTariffSlotMatchesProjectedGradient cross-validates the Frank-Wolfe
// tariff path against projected gradient on the h-polytope (single server
// type per site, so b is determined by h).
func TestTariffSlotMatchesProjectedGradient(t *testing.T) {
	c := refCluster(t)
	trf, err := tariff.NewQuadratic(40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{V: 7.5, Tariff: trf, FW: solve.FWOptions{MaxIters: 800, Tol: 1e-12}}
	g, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		st := stateWith(c, 40+rng.Float64()*40, []float64{
			0.3 + rng.Float64()*0.3, 0.35 + rng.Float64()*0.3, 0.45 + rng.Float64()*0.3})
		q := randomLengths(rng, c, 40)
		act, err := g.Decide(0, st, q)
		if err != nil {
			t.Fatal(err)
		}
		fwObj := tariffObjective(c, cfg, st, q, act.Process, trf)

		pgH := tariffSlotByProjectedGradient(c, cfg, st, q, trf)
		pgObj := tariffObjective(c, cfg, st, q, pgH, trf)
		if fwObj > pgObj+5e-3*(1+math.Abs(pgObj)) {
			t.Errorf("trial %d: FW objective %v worse than PG %v", trial, fwObj, pgObj)
		}
	}
}

// tariffObjective evaluates V*BilledCost - sum q*h for a processing matrix
// with optimally provisioned servers.
func tariffObjective(c *model.Cluster, cfg Config, st *model.State, q queue.Lengths, process [][]float64, trf tariff.Tariff) float64 {
	var obj float64
	act := model.NewAction(c)
	for i := 0; i < c.N(); i++ {
		copy(act.Process[i], process[i])
		busy, _, err := model.Provision(c.DataCenters[i], st.Avail[i], act.WorkAt(c, i))
		if err != nil {
			return math.Inf(1)
		}
		act.Busy[i] = busy
		for j := 0; j < c.J(); j++ {
			obj -= q.Local[i][j] * process[i][j]
		}
	}
	return obj + cfg.V*act.BilledCost(c, st, trf)
}

// tariffSlotByProjectedGradient solves the tariff slot problem by projected
// gradient over h (valid for single-server-type sites).
func tariffSlotByProjectedGradient(c *model.Cluster, cfg Config, st *model.State, q queue.Lengths, trf tariff.Tariff) [][]float64 {
	n := c.N() * c.J()
	obj := &tariffHObjective{c: c, cfg: cfg, st: st, q: q, trf: trf}
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
	res := solve.ProjectedGradient(obj, project, make([]float64, n), solve.PGOptions{MaxIters: 6000, Step: 0.2})
	out := make([][]float64, c.N())
	for i := range out {
		out[i] = append([]float64(nil), res.X[i*c.J():(i+1)*c.J()]...)
	}
	return out
}

// tariffHObjective is the slot objective in h alone for single-server sites.
type tariffHObjective struct {
	c   *model.Cluster
	cfg Config
	st  *model.State
	q   queue.Lengths
	trf tariff.Tariff
}

func (o *tariffHObjective) Value(x []float64) float64 {
	var v float64
	for i := 0; i < o.c.N(); i++ {
		stype := o.c.DataCenters[i].Servers[0]
		var work float64
		for j := 0; j < o.c.J(); j++ {
			h := x[i*o.c.J()+j]
			work += h * o.c.JobTypes[j].Demand
			v -= o.q.Local[i][j] * h
		}
		energy := work / stype.Speed * stype.Power
		base := o.st.BaseEnergyAt(i)
		v += o.cfg.V * (o.trf.Cost(o.st.Price[i], base+energy) - o.trf.Cost(o.st.Price[i], base))
	}
	return v
}

func (o *tariffHObjective) Grad(x, grad []float64) {
	for i := 0; i < o.c.N(); i++ {
		stype := o.c.DataCenters[i].Servers[0]
		var work float64
		for j := 0; j < o.c.J(); j++ {
			work += x[i*o.c.J()+j] * o.c.JobTypes[j].Demand
		}
		energy := work / stype.Speed * stype.Power
		marg := o.trf.Marginal(o.st.Price[i], o.st.BaseEnergyAt(i)+energy)
		for j := 0; j < o.c.J(); j++ {
			grad[i*o.c.J()+j] = -o.q.Local[i][j] + o.cfg.V*marg*stype.CostPerWork()*o.c.JobTypes[j].Demand
		}
	}
}
