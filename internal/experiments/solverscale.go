package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"grefar/internal/availability"
	"grefar/internal/core"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/queue"
	"grefar/internal/sim"
	"grefar/internal/workload"
)

// solverScaleAccounts is how many organizations share the synthetic
// large-instance cluster: enough that the fairness term's per-account
// coupling is non-trivial.
const solverScaleAccounts = 8

// SolverScaleInstance is one synthetic large slot instance: a validated
// cluster of N multi-server data centers and J job types, a price/availability
// snapshot, and a backlog whose active-pair density (fraction of eligible
// (site, job) pairs with positive backlog) is the experiment's sparsity knob.
type SolverScaleInstance struct {
	Cluster *model.Cluster
	State   *model.State
	Lengths queue.Lengths
	// ActivePairs counts (i, j) pairs with positive local backlog.
	ActivePairs int
	rng         *rand.Rand
}

// solverScaleCluster builds the synthetic large cluster: sites cycle through
// three efficiency classes (mirroring the hollow scale cluster) with two
// server types each, and job types are striped across solverScaleAccounts
// accounts. Type t may run at the sites i with i % stripes == t % stripes, so
// 1/stripes of all (site, type) pairs can ever hold backlog; stripes = 1
// makes every type eligible everywhere.
func solverScaleCluster(n, j, stripes int) (*model.Cluster, error) {
	c := &model.Cluster{
		DataCenters: make([]model.DataCenter, n),
		JobTypes:    make([]model.JobType, j),
		Accounts:    make([]model.Account, solverScaleAccounts),
	}
	for i := range c.DataCenters {
		class := i % 3
		c.DataCenters[i] = model.DataCenter{
			Name: fmt.Sprintf("ss-dc%d", i),
			Servers: []model.ServerType{
				{Name: "std", Speed: []float64{2.0, 1.6, 1.2}[class], Power: []float64{1.0, 1.1, 1.3}[class]},
				{Name: "eco", Speed: []float64{1.2, 1.0, 0.8}[class], Power: []float64{0.5, 0.6, 0.7}[class]},
			},
		}
	}
	eligible := make([][]int, stripes)
	for i := 0; i < n; i++ {
		eligible[i%stripes] = append(eligible[i%stripes], i)
	}
	for t := range c.JobTypes {
		c.JobTypes[t] = model.JobType{
			Name:       fmt.Sprintf("ss-type%d", t),
			Demand:     1.0 + 0.25*float64(t%5),
			Eligible:   eligible[t%stripes],
			Account:    t % solverScaleAccounts,
			MaxArrival: 4 * n,
		}
	}
	for m := range c.Accounts {
		c.Accounts[m] = model.Account{Name: fmt.Sprintf("org%d", m), Weight: 1 + 0.5*float64(m%3)}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("solverscale: %w", err)
	}
	return c, nil
}

// NewSolverScaleInputs builds simulation inputs on the solver-scale cluster
// for driving a whole sim.Engine slot — decide, apply, snapshot — at a large
// shape, where NewSolverScaleInstance drives Decide alone. Eligibility is
// striped so that about the given fraction of (site, type) pairs can hold
// backlog; prices are per-site diurnal curves, availability is static, and
// the seeded arrivals load each stripe of sites to about 60% of its capacity.
func NewSolverScaleInputs(seed int64, n, j, slots int, density float64) (sim.Inputs, error) {
	if n <= 0 || j <= 0 || slots <= 0 {
		return sim.Inputs{}, fmt.Errorf("solverscale: shape %dx%d over %d slots is not positive", n, j, slots)
	}
	if density <= 0 || density > 1 {
		return sim.Inputs{}, fmt.Errorf("solverscale: density %g outside (0, 1]", density)
	}
	stripes := int(math.Round(1 / density))
	if stripes > n {
		stripes = n
	}
	c, err := solverScaleCluster(n, j, stripes)
	if err != nil {
		return sim.Inputs{}, err
	}
	avail := make([][]float64, n)
	prices := make([]price.Source, n)
	stripeCap := make([]float64, stripes)
	for i := range avail {
		avail[i] = []float64{4, 3}
		for k, s := range c.DataCenters[i].Servers {
			stripeCap[i%stripes] += s.Speed * avail[i][k]
		}
		level := []float64{0.40, 0.45, 0.55}[i%3]
		vals := make([]float64, 24)
		for h := range vals {
			vals[h] = level * (1 + 0.3*math.Cos(2*math.Pi*float64(h+i%24)/24))
		}
		prices[i] = &price.Trace{Values: vals}
	}
	stripeTypes := make([]int, stripes)
	for t := 0; t < j; t++ {
		stripeTypes[t%stripes]++
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make([][]int, slots)
	for s := range counts {
		diurnal := 1 + 0.25*math.Sin(2*math.Pi*float64(s%24)/24)
		counts[s] = make([]int, j)
		for t := range counts[s] {
			mean := 0.6 * stripeCap[t%stripes] / float64(stripeTypes[t%stripes]) / c.JobTypes[t].Demand
			counts[s][t] = int(mean * diurnal * (0.7 + 0.6*rng.Float64()))
		}
	}
	return sim.Inputs{
		Cluster:      c,
		Prices:       prices,
		Workload:     &workload.Trace{Counts: counts},
		Availability: &availability.Static{Avail: avail},
	}, nil
}

// NewSolverScaleInstance builds a deterministic instance at the requested
// shape on the solver-scale cluster with every job type eligible everywhere;
// prices follow a diurnal-ish per-site curve. The backlog seeds roughly
// density*N*J active pairs.
func NewSolverScaleInstance(seed int64, n, j int, density float64) (*SolverScaleInstance, error) {
	if n <= 0 || j <= 0 {
		return nil, fmt.Errorf("solverscale: shape %dx%d is not positive", n, j)
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("solverscale: density %g outside [0, 1]", density)
	}
	c, err := solverScaleCluster(n, j, 1)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	st := model.NewState(c)
	for i := 0; i < n; i++ {
		st.Avail[i] = []float64{3 + float64(rng.Intn(3)), 2 + float64(rng.Intn(3))}
		level := []float64{0.40, 0.45, 0.55}[i%3]
		st.Price[i] = level * (1 + 0.3*math.Cos(2*math.Pi*float64(i%24)/24))
	}

	in := &SolverScaleInstance{Cluster: c, State: st, rng: rng}
	in.Lengths = queue.Lengths{Central: make([]float64, j), Local: make([][]float64, n)}
	for t := 0; t < j; t++ {
		in.Lengths.Central[t] = float64(rng.Intn(20))
	}
	for i := 0; i < n; i++ {
		in.Lengths.Local[i] = make([]float64, j)
		for t := 0; t < j; t++ {
			if rng.Float64() < density {
				in.Lengths.Local[i][t] = float64(1 + rng.Intn(25))
				in.ActivePairs++
			}
		}
	}
	return in, nil
}

// Mutate applies one slot's worth of small input drift — a few backlog
// updates on already-active pairs plus a price nudge — without changing which
// pairs are active, so an incremental-refresh solver stays on its in-place
// path. It mirrors the queue evolution between consecutive slot decisions.
func (in *SolverScaleInstance) Mutate() {
	c := in.Cluster
	for step := 0; step < 4; step++ {
		i := in.rng.Intn(c.N())
		for t := range in.Lengths.Local[i] {
			if in.Lengths.Local[i][t] > 0 {
				in.Lengths.Local[i][t] = 1 + float64(in.rng.Intn(25))
			}
		}
	}
	i := in.rng.Intn(c.N())
	in.State.Price[i] = 0.3 + 0.4*in.rng.Float64()
}

// SolverScaleConfig tunes the solver-scale sweep: for each (N, J, density)
// shape, the default scheduler decides an evolving slot sequence while the
// harness measures per-decision latency and allocation rate.
type SolverScaleConfig struct {
	// Seed drives instance generation (0 = DefaultSeed; SeedZero for 0).
	Seed int64
	// Shapes are the (N, J) grid points (default {50, 25}, {100, 50},
	// {200, 100}).
	Shapes [][2]int
	// Densities are the active-pair fractions per shape (default 0.1, 0.5,
	// 1.0 — the last leaves the compact index nothing to skip).
	Densities []float64
	// Slots is the per-cell horizon (default 20).
	Slots int
	// Beta and V parameterize the objective (defaults 100, 7.5).
	Beta, V float64
	// Context cancels the sweep between slots.
	Context context.Context
}

func (c SolverScaleConfig) withDefaults() SolverScaleConfig {
	c.Seed = CanonicalSeed(c.Seed)
	if len(c.Shapes) == 0 {
		c.Shapes = [][2]int{{50, 25}, {100, 50}, {200, 100}}
	}
	if len(c.Densities) == 0 {
		c.Densities = []float64{0.1, 0.5, 1.0}
	}
	if c.Slots <= 0 {
		c.Slots = 20
	}
	if c.Beta == 0 {
		c.Beta = 100
	}
	if c.V == 0 {
		c.V = 7.5
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// SolverScalePoint is one measured (shape, density) cell.
type SolverScalePoint struct {
	// N, J, and ActivePairs describe the instance; Density is the requested
	// active-pair fraction.
	N, J, ActivePairs int
	Density           float64
	// DecideMicros is the mean per-Decide wall time over the horizon.
	DecideMicros float64
	// AllocsPerDecide is the mean heap allocation count per Decide.
	AllocsPerDecide float64
	// Objective is the final slot's processing objective: the answer the
	// timing is for, so a faster cell that decides differently shows.
	Objective float64
}

// SolverScaleResult is the full sweep.
type SolverScaleResult struct {
	Points []SolverScalePoint
}

// solverScaleRun measures one cell: fresh instance, warm-up decide, then the
// timed horizon with per-slot input drift.
func solverScaleRun(cfg SolverScaleConfig, shape [2]int, density float64) (SolverScalePoint, error) {
	pt := SolverScalePoint{N: shape[0], J: shape[1], Density: density}
	in, err := NewSolverScaleInstance(cfg.Seed, shape[0], shape[1], density)
	if err != nil {
		return pt, err
	}
	pt.ActivePairs = in.ActivePairs
	g, err := core.New(in.Cluster, core.Config{V: cfg.V, Beta: cfg.Beta})
	if err != nil {
		return pt, err
	}
	if _, err := g.Decide(0, in.State, in.Lengths); err != nil {
		return pt, err
	}

	var act *model.Action
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for t := 1; t <= cfg.Slots; t++ {
		if err := cfg.Context.Err(); err != nil {
			return pt, err
		}
		in.Mutate()
		if act, err = g.Decide(t, in.State, in.Lengths); err != nil {
			return pt, fmt.Errorf("%dx%d slot %d: %w", shape[0], shape[1], t, err)
		}
	}
	total := time.Since(start)
	runtime.ReadMemStats(&after)

	pt.DecideMicros = total.Seconds() * 1e6 / float64(cfg.Slots)
	pt.AllocsPerDecide = float64(after.Mallocs-before.Mallocs) / float64(cfg.Slots)
	for i := range act.Process {
		for j, h := range act.Process[i] {
			pt.Objective += -in.Lengths.Local[i][j] * h
		}
		for k, b := range act.Busy[i] {
			pt.Objective += cfg.V * in.State.Price[i] * in.Cluster.DataCenters[i].Servers[k].Power * b
		}
	}
	return pt, nil
}

// SolverScale runs the solver-scale sweep: for each shape and density, the
// default scheduler decides a drifting slot sequence. Cells run sequentially —
// never in parallel — because each one times solver work on the shared cores.
func SolverScale(cfg SolverScaleConfig) (*SolverScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &SolverScaleResult{}
	for _, shape := range cfg.Shapes {
		for _, density := range cfg.Densities {
			pt, err := solverScaleRun(cfg, shape, density)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}
