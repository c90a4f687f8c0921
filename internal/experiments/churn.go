package experiments

import (
	"fmt"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
	"grefar/internal/transport/chaos"
)

// ChurnConfig tunes the agent-churn chaos experiment: a distributed control
// loop (controller plus in-process agents) is run twice on identical inputs —
// once fault-free, once with Kill agents partitioned for Down-slot windows —
// and the two trajectories are compared. Every fault is drawn from ChaosSeed,
// so the experiment is exactly reproducible.
type ChurnConfig struct {
	// Seed drives the workload, prices, and availability (0 = DefaultSeed;
	// SeedZero for the literal seed 0).
	Seed int64
	// ChaosSeed drives the fault streams (0 = DefaultSeed; SeedZero for 0).
	ChaosSeed int64
	// Slots is the horizon (default 240).
	Slots int
	// Kill is how many agents are partitioned, staggered one after another
	// starting from data center 1 (default 2, capped at N-1 so the cluster
	// never loses every site).
	Kill int
	// From is the slot the first outage starts at (default Slots/4).
	From int
	// Down is each outage's length in slots (default 6).
	Down int
	// Stagger is the gap between consecutive agents' outage starts
	// (default Down+2, so outages overlap the recovery of the previous one
	// only when configured to).
	Stagger int
	// Drop adds a per-call drop probability on top of the partitions
	// (default 0: churn only).
	Drop float64
}

func (c ChurnConfig) withDefaults(n int) (ChurnConfig, error) {
	c.Seed = CanonicalSeed(c.Seed)
	c.ChaosSeed = CanonicalSeed(c.ChaosSeed)
	if c.Slots <= 0 {
		c.Slots = 240
	}
	if c.Kill <= 0 {
		c.Kill = 2
	}
	if c.Kill >= n {
		c.Kill = n - 1
	}
	if c.From <= 0 {
		c.From = c.Slots / 4
	}
	if c.Down <= 0 {
		c.Down = 6
	}
	if c.Stagger <= 0 {
		c.Stagger = c.Down + 2
	}
	lastEnd := c.From + (c.Kill-1)*c.Stagger + c.Down
	if lastEnd >= c.Slots {
		return c, fmt.Errorf("churn: last outage ends at slot %d, horizon is %d", lastEnd, c.Slots)
	}
	if c.Drop < 0 || c.Drop > 1 {
		return c, fmt.Errorf("churn: drop probability %v outside [0,1]", c.Drop)
	}
	return c, nil
}

// windows builds the staggered partition schedule.
func (c ChurnConfig) windows() []chaos.Window {
	out := make([]chaos.Window, c.Kill)
	for k := 0; k < c.Kill; k++ {
		from := c.From + k*c.Stagger
		out[k] = chaos.Window{Agent: 1 + k, From: from, To: from + c.Down}
	}
	return out
}

// ChurnRecovery reports how one partitioned agent came back.
type ChurnRecovery struct {
	// Agent is the data-center index that was partitioned.
	Agent int
	// From and To bound the injected outage window [From, To).
	From, To int
	// RecoverySlots is how many slots past the window's end the agent stayed
	// masked; 0 means it rejoined at the first reachable slot.
	RecoverySlots int
}

// ChurnResult compares the chaos run against the fault-free baseline.
type ChurnResult struct {
	// Slots is the horizon both runs covered.
	Slots int
	// DegradedSlots counts slots the chaos run scheduled with >= 1 agent
	// masked.
	DegradedSlots int
	// Recoveries has one entry per partitioned agent.
	Recoveries []ChurnRecovery
	// BaselineEnergy and ChaosEnergy are the average energy costs per slot.
	BaselineEnergy, ChaosEnergy float64
	// BaselineFinalBacklog and ChaosFinalBacklog are the total backlogs
	// (central + local) at the horizon.
	BaselineFinalBacklog, ChaosFinalBacklog float64
	// MaxBacklogInflation is the largest per-slot excess of the chaos run's
	// total backlog over the baseline's — the peak queue cost of the outages.
	MaxBacklogInflation float64
	// FinalBacklogInflation is ChaosFinalBacklog - BaselineFinalBacklog: what
	// the system had not yet drained by the horizon.
	FinalBacklogInflation float64
}

// churnCollector records the per-slot signals the experiment compares.
type churnCollector struct {
	backlog  []float64
	energy   []float64
	degraded [][]int
}

func (cc *churnCollector) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin != telemetry.OriginController {
		return
	}
	cc.backlog = append(cc.backlog, ev.TotalBacklog)
	cc.energy = append(cc.energy, ev.Energy)
	cc.degraded = append(cc.degraded, ev.Degraded)
}

// churnRun drives one distributed run over in-process loopback agents with
// the given chaos plan (nil = fault-free), the Degrade policy, and the
// invariant checker attached to every applied slot.
func churnRun(cfg ChurnConfig, plan *chaos.Plan) (*churnCollector, error) {
	in, err := sim.NewReferenceInputs(cfg.Seed, cfg.Slots)
	if err != nil {
		return nil, err
	}
	c := in.Cluster
	conns := make([]controller.AgentConn, c.N())
	for i := 0; i < c.N(); i++ {
		a, err := agent.New(agent.Config{
			Cluster:      c,
			DataCenter:   i,
			Price:        in.Prices[i],
			Availability: in.Availability,
		})
		if err != nil {
			return nil, err
		}
		var conn controller.AgentConn = transport.NewLoopback(a.AppendReply)
		if plan != nil {
			conn = plan.Wrap(conn, i)
		}
		conns[i] = conn
	}
	g, err := core.New(c, core.Config{V: 7.5, Beta: 100})
	if err != nil {
		return nil, err
	}
	col := &churnCollector{}
	ck := invariant.NewChecker(c, invariant.CheckerOptions{})
	ct, err := controller.New(c, g, conns,
		controller.WithObserver(telemetry.Multi(col, ck)),
		controller.WithFailurePolicy(controller.Degrade),
	)
	if err != nil {
		return nil, err
	}
	for t := 0; t < cfg.Slots; t++ {
		if _, _, _, err := ct.RunSlot(t, in.Workload.Arrivals(t)); err != nil {
			return nil, fmt.Errorf("slot %d: %w", t, err)
		}
	}
	if err := ck.Err(); err != nil {
		return nil, fmt.Errorf("invariant check: %w", err)
	}
	return col, nil
}

// Churn is the fault-tolerance experiment: it measures what a burst of agent
// churn (Kill agents partitioned for Down slots each, staggered) costs the
// Degrade-mode control loop relative to a fault-free run of the same inputs —
// slots to recovery per agent, degraded-slot count, and queue-backlog
// inflation both at its per-slot peak and at the horizon. The invariant
// checker verifies every applied slot of both runs.
func Churn(cfg ChurnConfig) (*ChurnResult, error) {
	in, err := sim.NewReferenceInputs(CanonicalSeed(cfg.Seed), 1)
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.withDefaults(in.Cluster.N())
	if err != nil {
		return nil, err
	}
	plan := &chaos.Plan{Seed: cfg.ChaosSeed, Drop: cfg.Drop, Windows: cfg.windows()}
	if err := plan.Validate(); err != nil {
		return nil, err
	}

	base, err := churnRun(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	chaotic, err := churnRun(cfg, plan)
	if err != nil {
		return nil, fmt.Errorf("chaos run: %w", err)
	}
	if len(base.backlog) != cfg.Slots || len(chaotic.backlog) != cfg.Slots {
		return nil, fmt.Errorf("observer captured %d/%d slots, want %d", len(base.backlog), len(chaotic.backlog), cfg.Slots)
	}

	res := &ChurnResult{
		Slots:                cfg.Slots,
		BaselineFinalBacklog: base.backlog[cfg.Slots-1],
		ChaosFinalBacklog:    chaotic.backlog[cfg.Slots-1],
	}
	for t := 0; t < cfg.Slots; t++ {
		res.BaselineEnergy += base.energy[t]
		res.ChaosEnergy += chaotic.energy[t]
		if len(chaotic.degraded[t]) > 0 {
			res.DegradedSlots++
		}
		if d := chaotic.backlog[t] - base.backlog[t]; d > res.MaxBacklogInflation {
			res.MaxBacklogInflation = d
		}
	}
	res.BaselineEnergy /= float64(cfg.Slots)
	res.ChaosEnergy /= float64(cfg.Slots)
	res.FinalBacklogInflation = res.ChaosFinalBacklog - res.BaselineFinalBacklog

	maskedAt := func(agent, slot int) bool {
		for _, i := range chaotic.degraded[slot] {
			if i == agent {
				return true
			}
		}
		return false
	}
	for _, w := range plan.Windows {
		rec := ChurnRecovery{Agent: w.Agent, From: w.From, To: w.To}
		s := w.To
		for s < cfg.Slots && maskedAt(w.Agent, s) {
			s++
		}
		rec.RecoverySlots = s - w.To
		res.Recoveries = append(res.Recoveries, rec)
	}
	return res, nil
}
