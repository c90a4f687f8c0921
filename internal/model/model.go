// Package model defines the shared domain vocabulary for the GreFar
// scheduling system: data centers, server types, job types, organizational
// accounts, the time-varying cluster state x(t) revealed at the beginning of
// each slot, and the slot action z(t) chosen by a scheduler.
//
// The notation follows the paper "Provably-Efficient Job Scheduling for
// Energy and Fairness in Geographically Distributed Data Centers"
// (Ren, He, Xu — ICDCS 2012): a system of N data centers indexed by i, each
// housing server types indexed by k with speed s_k and active power p_k;
// J job types indexed by j, each characterized by y_j = {d_j, D_j, rho_j};
// and M accounts indexed by m with fairness weights gamma_m.
package model

import (
	"errors"
	"fmt"
	"grefar/internal/tariff"
)

// ServerType describes one class of server hardware (paper section III-A).
// Idle power is normalized to zero, so Power is the marginal power draw of a
// busy server over an idle one (p_k with underline-p_k = 0).
type ServerType struct {
	// Name identifies the server class, e.g. "gen3-commodity".
	Name string
	// Speed is the processing speed s_k in work units per time slot. A busy
	// server of this type completes Speed units of service demand per slot.
	Speed float64
	// Power is the active power p_k drawn by a busy server, in normalized
	// energy units per slot.
	Power float64
}

// CostPerWork returns the energy consumed per unit of work processed on this
// server type (p_k / s_k). Multiplied by the local electricity price it gives
// the energy cost per unit work, the quantity Table I of the paper reports.
func (s ServerType) CostPerWork() float64 {
	return s.Power / s.Speed
}

// DataCenter describes one geographically distinct site housing one or more
// server types. The number of servers of each type that are available for
// batch processing varies over time and is part of State, not DataCenter.
type DataCenter struct {
	// Name identifies the site, e.g. "dc-west".
	Name string
	// Servers lists the K server types housed at this site, indexed by k.
	Servers []ServerType
	// AuxCapacity[r] is the site's capacity of auxiliary resource r
	// (memory, storage, ...) available to concurrently processing jobs.
	// Empty means the cluster models no auxiliary resources. This is the
	// paper's footnote 3 extension: the service demand becomes a vector.
	AuxCapacity []float64
}

// JobType is the paper's y_j = {d_j, D_j, rho_j}: jobs with approximately the
// same characteristics are grouped into a type.
type JobType struct {
	// Name identifies the job type, e.g. "org1-etl".
	Name string
	// Demand is the service demand d_j in work units (processor cycles). It
	// must be positive.
	Demand float64
	// Eligible is D_j: the indices of the data centers this job type may be
	// scheduled to, typically determined by data placement.
	Eligible []int
	// Account is rho_j: the index of the account (organization) that
	// submits jobs of this type.
	Account int
	// MaxArrival is a_max_j, the bound on per-slot arrivals (paper eq. 1).
	MaxArrival int
	// MaxRoute is r_max_{i,j}, the bound on per-slot routing decisions to any
	// single data center (paper eq. 4).
	MaxRoute int
	// MaxProcess is h_max_{i,j}, the bound on per-slot processing decisions
	// in any single data center (paper eq. 5), in jobs (possibly fractional).
	MaxProcess float64
	// AuxDemand[r] is the job's consumption of auxiliary resource r (memory,
	// storage, ...) per processed job-slot. Must have the same length as
	// the cluster's auxiliary resource list (empty when unused).
	AuxDemand []float64
}

// EligibleSet reports whether data center i is in this job type's D_j.
func (j JobType) EligibleSet(i int) bool {
	for _, e := range j.Eligible {
		if e == i {
			return true
		}
	}
	return false
}

// Account represents an organization (or user group) sharing the cluster.
type Account struct {
	// Name identifies the organization.
	Name string
	// Weight is gamma_m >= 0, the desired share of total computing resource
	// for this account. The paper's experiment uses 40%, 30%, 15%, 15%.
	Weight float64
}

// Cluster is the static description of the whole system: N data centers,
// J job types and M accounts. The time-varying parts (availability, prices)
// live in State.
type Cluster struct {
	DataCenters []DataCenter
	JobTypes    []JobType
	Accounts    []Account
}

// N returns the number of data centers.
func (c *Cluster) N() int { return len(c.DataCenters) }

// J returns the number of job types.
func (c *Cluster) J() int { return len(c.JobTypes) }

// M returns the number of accounts.
func (c *Cluster) M() int { return len(c.Accounts) }

// K returns the number of server types at data center i.
func (c *Cluster) K(i int) int { return len(c.DataCenters[i].Servers) }

// DrawAt returns the power the busy servers busy draw at data center i:
// sum_k b_{i,k}*p_k. It is the one energy formula: the central bill
// (EnergyAt, BilledCostAt) and an agent's ack both price this sum, so an
// agent bills its row bit for bit as the controller does.
func (c *Cluster) DrawAt(i int, busy []float64) float64 {
	var p float64
	for k, b := range busy {
		p += b * c.DataCenters[i].Servers[k].Power
	}
	return p
}

// Aux returns the number of auxiliary resource dimensions (0 when the
// cluster models CPU work only).
func (c *Cluster) Aux() int {
	if len(c.DataCenters) == 0 {
		return 0
	}
	return len(c.DataCenters[0].AuxCapacity)
}

// SitePairs is a cluster's eligibility read by site: the job types that may
// run at site i are Types[Off[i]:Off[i+1]], ascending. Position k in Types
// names the pair (i, Types[k]), so a store built on it holds one entry per
// eligible pair — the only pairs eqs. (12)-(13) give a local queue — and
// none for the pairs no job may reach.
type SitePairs struct {
	Off   []int // len N+1
	Types []int
}

// SitePairs lists the cluster's eligible (site, job type) pairs site by site
// with one counting sort over the Eligible lists: walking the job types in
// ascending j leaves every site's types ascending whatever order the lists
// are in. A site out of range or listed twice, which Validate refuses, is
// left out or listed once.
func (c *Cluster) SitePairs() SitePairs {
	n := c.N()
	p := SitePairs{Off: make([]int, n+1)}
	// seenBy[i] is one past the last job type that listed site i, as in
	// validate.
	seenBy := make([]int, n)
	eligible := func(i, j int) bool {
		if i < 0 || i >= n || seenBy[i] == j+1 {
			return false
		}
		seenBy[i] = j + 1
		return true
	}
	for j, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			if eligible(i, j) {
				p.Off[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		p.Off[i+1] += p.Off[i]
	}
	p.Types = make([]int, p.Off[n])
	next := append([]int(nil), p.Off[:n]...)
	clear(seenBy)
	for j, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			if eligible(i, j) {
				p.Types[next[i]] = j
				next[i]++
			}
		}
	}
	return p
}

// At returns the job types eligible at site i, ascending.
func (p SitePairs) At(i int) []int { return p.Types[p.Off[i]:p.Off[i+1]:p.Off[i+1]] }

// Len returns the number of eligible pairs.
func (p SitePairs) Len() int { return len(p.Types) }

// Validate checks structural consistency: non-empty components, positive
// speeds/demands, non-negative powers and weights, eligible and account
// indices in range, and sane bounds. It returns the first problem found,
// wrapping ErrInvalidCluster so callers can classify it with errors.Is.
func (c *Cluster) Validate() error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidCluster, err)
	}
	return nil
}

func (c *Cluster) validate() error {
	if len(c.DataCenters) == 0 {
		return errors.New("cluster has no data centers")
	}
	if len(c.JobTypes) == 0 {
		return errors.New("cluster has no job types")
	}
	if len(c.Accounts) == 0 {
		return errors.New("cluster has no accounts")
	}
	for i, dc := range c.DataCenters {
		if len(dc.Servers) == 0 {
			return fmt.Errorf("data center %d (%s) has no server types", i, dc.Name)
		}
		for k, s := range dc.Servers {
			if s.Speed <= 0 {
				return fmt.Errorf("data center %d server type %d: speed %v is not positive", i, k, s.Speed)
			}
			if s.Power < 0 {
				return fmt.Errorf("data center %d server type %d: power %v is negative", i, k, s.Power)
			}
		}
	}
	// seenBy[i] is one past the last job type that listed site i: one stamp
	// slice finds duplicates for every job type without clearing in between.
	seenBy := make([]int, len(c.DataCenters))
	for j, jt := range c.JobTypes {
		if jt.Demand <= 0 {
			return fmt.Errorf("job type %d (%s): demand %v is not positive", j, jt.Name, jt.Demand)
		}
		if len(jt.Eligible) == 0 {
			return fmt.Errorf("job type %d (%s): empty eligible set", j, jt.Name)
		}
		for _, i := range jt.Eligible {
			if i < 0 || i >= len(c.DataCenters) {
				return fmt.Errorf("job type %d (%s): eligible data center %d out of range", j, jt.Name, i)
			}
			if seenBy[i] == j+1 {
				return fmt.Errorf("job type %d (%s): duplicate eligible data center %d", j, jt.Name, i)
			}
			seenBy[i] = j + 1
		}
		if jt.Account < 0 || jt.Account >= len(c.Accounts) {
			return fmt.Errorf("job type %d (%s): account %d out of range", j, jt.Name, jt.Account)
		}
		if jt.MaxArrival < 0 {
			return fmt.Errorf("job type %d (%s): negative MaxArrival", j, jt.Name)
		}
		if jt.MaxRoute < 0 {
			return fmt.Errorf("job type %d (%s): negative MaxRoute", j, jt.Name)
		}
		if jt.MaxProcess < 0 {
			return fmt.Errorf("job type %d (%s): negative MaxProcess", j, jt.Name)
		}
	}
	for m, a := range c.Accounts {
		if a.Weight < 0 {
			return fmt.Errorf("account %d (%s): negative weight %v", m, a.Name, a.Weight)
		}
	}
	aux := c.Aux()
	for i, dc := range c.DataCenters {
		if len(dc.AuxCapacity) != aux {
			return fmt.Errorf("data center %d (%s): %d auxiliary capacities, want %d", i, dc.Name, len(dc.AuxCapacity), aux)
		}
		for r, cap := range dc.AuxCapacity {
			if cap < 0 {
				return fmt.Errorf("data center %d (%s): negative auxiliary capacity %v for resource %d", i, dc.Name, cap, r)
			}
		}
	}
	for j, jt := range c.JobTypes {
		if len(jt.AuxDemand) != 0 && len(jt.AuxDemand) != aux {
			return fmt.Errorf("job type %d (%s): %d auxiliary demands, cluster models %d resources", j, jt.Name, len(jt.AuxDemand), aux)
		}
		for r, d := range jt.AuxDemand {
			if d < 0 {
				return fmt.Errorf("job type %d (%s): negative auxiliary demand %v for resource %d", j, jt.Name, d, r)
			}
		}
	}
	return nil
}

// State is x(t) = {n(t), phi(t)}: the time-varying cluster state revealed at
// the beginning of each slot (paper section III-A). Availability may be
// fractional to model servers shared with interactive workloads for part of
// a slot.
type State struct {
	// Avail[i][k] is n_{i,k}(t): servers of type k available for batch jobs
	// at data center i during this slot.
	Avail [][]float64
	// Price[i] is phi_i(t): the electricity price at data center i during
	// this slot, in cost units per energy unit.
	Price []float64
	// BaseEnergy[i] is the energy drawn by other (interactive) workloads at
	// data center i this slot. It is nil (treated as zero) under the
	// paper's baseline linear pricing and only matters under convex
	// tariffs, where the section III-A2 extension makes the marginal price
	// of batch work depend on the total draw.
	BaseEnergy []float64
}

// NewState allocates a zero State shaped for the cluster.
func NewState(c *Cluster) *State {
	st := &State{
		Avail: make([][]float64, c.N()),
		Price: make([]float64, c.N()),
	}
	// One backing array, as NewAction has: a State is assembled every slot of
	// the distributed loop, and a row per site was an allocation per site.
	kTotal := 0
	for i := range st.Avail {
		kTotal += c.K(i)
	}
	flat := make([]float64, kTotal)
	for i := range st.Avail {
		k := c.K(i)
		st.Avail[i], flat = flat[:k:k], flat[k:]
	}
	return st
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	cp := &State{
		Avail: make([][]float64, len(s.Avail)),
		Price: append([]float64(nil), s.Price...),
	}
	if s.BaseEnergy != nil {
		cp.BaseEnergy = append([]float64(nil), s.BaseEnergy...)
	}
	for i := range s.Avail {
		cp.Avail[i] = append([]float64(nil), s.Avail[i]...)
	}
	return cp
}

// BaseEnergyAt returns the base (non-batch) energy draw at data center i,
// zero when no base load is modeled.
func (s *State) BaseEnergyAt(i int) float64 {
	if s.BaseEnergy == nil {
		return 0
	}
	return s.BaseEnergy[i]
}

// Capacity returns the maximum amount of work data center i can process this
// slot: sum_k n_{i,k}(t) * s_k (the right-hand side of paper eq. 11).
func (s *State) Capacity(c *Cluster, i int) float64 {
	var cap float64
	for k, st := range c.DataCenters[i].Servers {
		cap += s.Avail[i][k] * st.Speed
	}
	return cap
}

// TotalResource returns R(t) = sum_i sum_k n_{i,k}(t)*s_k, the total
// computing resource available across all data centers this slot (the
// denominator of the fairness function, paper eq. 3).
func (s *State) TotalResource(c *Cluster) float64 {
	var total float64
	for i := range s.Avail {
		total += s.Capacity(c, i)
	}
	return total
}

// Validate checks the state is shaped for the cluster with non-negative
// availability and prices. Failures wrap ErrInvalidState.
func (s *State) Validate(c *Cluster) error {
	if err := s.validate(c); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidState, err)
	}
	return nil
}

func (s *State) validate(c *Cluster) error {
	if len(s.Avail) != c.N() || len(s.Price) != c.N() {
		return fmt.Errorf("state shaped for %d data centers, cluster has %d", len(s.Avail), c.N())
	}
	for i := range s.Avail {
		if len(s.Avail[i]) != c.K(i) {
			return fmt.Errorf("data center %d: state has %d server types, cluster has %d", i, len(s.Avail[i]), c.K(i))
		}
		for k, n := range s.Avail[i] {
			if n < 0 {
				return fmt.Errorf("data center %d server type %d: negative availability %v", i, k, n)
			}
		}
		if s.Price[i] < 0 {
			return fmt.Errorf("data center %d: negative price %v", i, s.Price[i])
		}
	}
	if s.BaseEnergy != nil {
		if len(s.BaseEnergy) != c.N() {
			return fmt.Errorf("base energy has %d entries, cluster has %d data centers", len(s.BaseEnergy), c.N())
		}
		for i, b := range s.BaseEnergy {
			if b < 0 {
				return fmt.Errorf("data center %d: negative base energy %v", i, b)
			}
		}
	}
	return nil
}

// Action is z(t) = {r_{i,j}(t), h_{i,j}(t), b_{i,k}(t)}: the decisions made at
// the beginning of a slot (paper section III-C2).
type Action struct {
	// Route[i][j] is r_{i,j}(t): jobs of type j dispatched from the central
	// queue to data center i this slot. Integer per the paper (jobs cannot
	// be split across data centers).
	Route [][]int
	// Process[i][j] is h_{i,j}(t): jobs of type j processed at data center i
	// this slot. Fractional values model jobs suspended mid-slot.
	Process [][]float64
	// Busy[i][k] is b_{i,k}(t): servers of type k kept busy at data center i
	// this slot. Fractional values model servers active part of the slot.
	Busy [][]float64
}

// NewAction allocates a zero Action shaped for the cluster.
func NewAction(c *Cluster) *Action {
	a := &Action{
		Route:   make([][]int, c.N()),
		Process: make([][]float64, c.N()),
		Busy:    make([][]float64, c.N()),
	}
	// One backing array per matrix: an Action is allocated every slot on the
	// scheduling hot path, so row-per-row allocation tripled its cost.
	n, j := c.N(), c.J()
	routeFlat := make([]int, n*j)
	processFlat := make([]float64, n*j)
	kTotal := 0
	for i := 0; i < n; i++ {
		kTotal += c.K(i)
	}
	busyFlat := make([]float64, kTotal)
	kOff := 0
	for i := 0; i < n; i++ {
		a.Route[i] = routeFlat[i*j : (i+1)*j : (i+1)*j]
		a.Process[i] = processFlat[i*j : (i+1)*j : (i+1)*j]
		a.Busy[i] = busyFlat[kOff : kOff+c.K(i) : kOff+c.K(i)]
		kOff += c.K(i)
	}
	return a
}

// Clone returns a deep copy of the action with one backing array per matrix,
// like NewAction: its allocation count does not grow with the cluster. Each
// row is capped at its own length, and a nil row stays nil.
func (a *Action) Clone() *Action {
	return &Action{
		Route:   cloneMatrix(a.Route),
		Process: cloneMatrix(a.Process),
		Busy:    cloneMatrix(a.Busy),
	}
}

// cloneMatrix deep-copies m onto one backing array.
func cloneMatrix[T any](m [][]T) [][]T {
	total := 0
	for _, row := range m {
		total += len(row)
	}
	flat := make([]T, 0, total)
	out := make([][]T, len(m))
	for i, row := range m {
		if row == nil {
			continue
		}
		flat = append(flat, row...)
		out[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	return out
}

// WorkAt returns the work processed at data center i: sum_j h_{i,j}(t)*d_j.
// Most pairs of a large cluster process nothing in a given slot, and a zero
// h adds an exact +0.0 to the sum, so skipping it changes no bit.
func (a *Action) WorkAt(c *Cluster, i int) float64 {
	var w float64
	for j, h := range a.Process[i] {
		if h == 0 {
			continue
		}
		w += h * c.JobTypes[j].Demand
	}
	return w
}

// AuxUsageAt returns the consumption of auxiliary resource r at data center
// i: sum_j h_{i,j}(t) * AuxDemand_{j,r}. Job types without auxiliary demands
// consume nothing.
func (a *Action) AuxUsageAt(c *Cluster, i, r int) float64 {
	var u float64
	for j, h := range a.Process[i] {
		if r < len(c.JobTypes[j].AuxDemand) {
			u += h * c.JobTypes[j].AuxDemand[r]
		}
	}
	return u
}

// ProvidedAt returns the computing resource provided at data center i:
// sum_k b_{i,k}(t)*s_k.
func (a *Action) ProvidedAt(c *Cluster, i int) float64 {
	var w float64
	for k, b := range a.Busy[i] {
		w += b * c.DataCenters[i].Servers[k].Speed
	}
	return w
}

// EnergyAt returns e_i(t) = phi_i(t) * sum_k b_{i,k}(t)*p_k, the energy cost
// at data center i under the given state (paper eq. 2).
func (a *Action) EnergyAt(c *Cluster, s *State, i int) float64 {
	return s.Price[i] * c.DrawAt(i, a.Busy[i])
}

// Energy returns the total energy cost e(t) = sum_i e_i(t).
func (a *Action) Energy(c *Cluster, s *State) float64 {
	var e float64
	for i := range a.Busy {
		e += a.EnergyAt(c, s, i)
	}
	return e
}

// BilledCost returns the money billed for the action's energy draw under the
// given tariff (nil means linear pricing, i.e. Energy), counting only the
// increment the batch load adds on top of the state's base load — the
// section III-A2 generalization.
func (a *Action) BilledCost(c *Cluster, s *State, trf tariff.Tariff) float64 {
	var e float64
	for i := range a.Busy {
		e += a.BilledCostAt(c, s, i, trf)
	}
	return e
}

// BilledCostAt returns data center i's share of BilledCost: the billed cost
// of the batch energy drawn at site i under the tariff (nil means linear
// pricing, i.e. EnergyAt). Summing BilledCostAt over all sites in index order
// reproduces BilledCost exactly.
func (a *Action) BilledCostAt(c *Cluster, s *State, i int, trf tariff.Tariff) float64 {
	if trf == nil {
		return a.EnergyAt(c, s, i)
	}
	draw := c.DrawAt(i, a.Busy[i])
	base := s.BaseEnergyAt(i)
	return trf.Cost(s.Price[i], base+draw) - trf.Cost(s.Price[i], base)
}

// AccountWork returns r_m(t) for every account m: the computing resource
// allocated to jobs from account m this slot, measured as processed work.
func (a *Action) AccountWork(c *Cluster) []float64 {
	out := make([]float64, c.M())
	for i := range a.Process {
		for j, h := range a.Process[i] {
			if h == 0 {
				continue // an exact +0.0 term, as in WorkAt
			}
			jt := &c.JobTypes[j]
			out[jt.Account] += h * jt.Demand
		}
	}
	return out
}

// feasibilityTol absorbs floating-point slack when validating actions.
const feasibilityTol = 1e-6

// Validate checks the action is shaped for the cluster and feasible under
// the state: non-negative decisions, b_{i,k} <= n_{i,k}, routing and
// processing restricted to eligible data centers, per-slot bounds respected,
// and the capacity constraint sum_j h*d <= sum_k b*s (paper eq. 11).
// Failures wrap ErrInfeasibleAction.
func (a *Action) Validate(c *Cluster, s *State) error {
	if err := a.validate(c, s); err != nil {
		return fmt.Errorf("%w: %w", ErrInfeasibleAction, err)
	}
	return nil
}

func (a *Action) validate(c *Cluster, s *State) error {
	if len(a.Route) != c.N() || len(a.Process) != c.N() || len(a.Busy) != c.N() {
		return fmt.Errorf("action shaped for %d data centers, cluster has %d", len(a.Route), c.N())
	}
	// The eligibility rule costs no table: the pairs that move are counted
	// once over the whole action and once at each type's Eligible sites (a
	// valid cluster lists no site twice), and only when the two counts differ
	// is the offending pair looked up. Every other error first hands its
	// position to firstError, so the error reported is still the first in
	// (site, job type) order, as a per-pair check would find it.
	nJ := c.J()
	moving := 0
	for i := 0; i < c.N(); i++ {
		if len(a.Route[i]) != nJ || len(a.Process[i]) != nJ {
			return a.firstError(c, i*nJ, fmt.Errorf("data center %d: action has wrong job-type dimension", i))
		}
		if len(a.Busy[i]) != c.K(i) {
			return a.firstError(c, i*nJ, fmt.Errorf("data center %d: action has %d server types, cluster has %d", i, len(a.Busy[i]), c.K(i)))
		}
		for j := 0; j < nJ; j++ {
			jt := &c.JobTypes[j]
			r, h := a.Route[i][j], a.Process[i][j]
			if r < 0 {
				return a.firstError(c, i*nJ+j, fmt.Errorf("route[%d][%d] = %d is negative", i, j, r))
			}
			if h < 0 {
				return a.firstError(c, i*nJ+j, fmt.Errorf("process[%d][%d] = %v is negative", i, j, h))
			}
			if r > 0 || h > 0 {
				moving++
			}
			if jt.MaxRoute > 0 && r > jt.MaxRoute {
				return a.firstError(c, i*nJ+j+1, fmt.Errorf("route[%d][%d] = %d exceeds bound %d", i, j, r, jt.MaxRoute))
			}
			if jt.MaxProcess > 0 && h > jt.MaxProcess+feasibilityTol {
				return a.firstError(c, i*nJ+j+1, fmt.Errorf("process[%d][%d] = %v exceeds bound %v", i, j, h, jt.MaxProcess))
			}
		}
		end := (i + 1) * nJ
		for k := range a.Busy[i] {
			if a.Busy[i][k] < -feasibilityTol {
				return a.firstError(c, end, fmt.Errorf("busy[%d][%d] = %v is negative", i, k, a.Busy[i][k]))
			}
			if a.Busy[i][k] > s.Avail[i][k]+feasibilityTol {
				return a.firstError(c, end, fmt.Errorf("busy[%d][%d] = %v exceeds availability %v", i, k, a.Busy[i][k], s.Avail[i][k]))
			}
		}
		if w, p := a.WorkAt(c, i), a.ProvidedAt(c, i); w > p+feasibilityTol {
			return a.firstError(c, end, fmt.Errorf("data center %d: processed work %v exceeds provided resource %v", i, w, p))
		}
		for r := 0; r < c.Aux(); r++ {
			if u, cap := a.AuxUsageAt(c, i, r), c.DataCenters[i].AuxCapacity[r]; u > cap+feasibilityTol {
				return a.firstError(c, end, fmt.Errorf("data center %d: auxiliary resource %d usage %v exceeds capacity %v", i, r, u, cap))
			}
		}
	}
	for j, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			if i >= 0 && i < c.N() && (a.Route[i][j] > 0 || a.Process[i][j] > 0) {
				moving--
			}
		}
	}
	if moving != 0 {
		return a.firstError(c, c.N()*nJ, nil)
	}
	return nil
}

// firstError returns the eligibility error of the first pair before flat
// index end (i*J+j, row-major) that routes or processes at an ineligible
// site, or err when there is none: what a check of every pair in order would
// have reported first. The rows before end have passed the shape checks.
func (a *Action) firstError(c *Cluster, end int, err error) error {
	for cell := 0; cell < end; cell++ {
		i, j := cell/c.J(), cell%c.J()
		if (a.Route[i][j] > 0 || a.Process[i][j] > 0) && !c.JobTypes[j].EligibleSet(i) {
			return fmt.Errorf("job type %d is not eligible at data center %d", j, i)
		}
	}
	return err
}
