package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"grefar/internal/controller"
	"grefar/internal/controlplane"
	"grefar/internal/core"
	"grefar/internal/hollow"
	"grefar/internal/invariant"
	"grefar/internal/sched"
	"grefar/internal/telemetry"
	"grefar/internal/transport/chaos"
)

// ScaleConfig tunes the hollow-fleet scale experiment: for each agent count,
// a full distributed control loop — real controller, real TCP wire,
// N real agents multiplexed into one process — runs for Slots slots while the
// harness measures slot-tick latency, throughput, controller allocation rate,
// and heap ceiling. With Chaos set, every point is additionally run with
// churn injected from the chaos plans (staggered partitions over KillFrac of
// the fleet plus a small drop rate), which is the degraded-mode trajectory
// ROADMAP items 1-2 must not regress.
type ScaleConfig struct {
	// Seed drives workload and prices (0 = DefaultSeed; SeedZero for 0).
	Seed int64
	// ChaosSeed drives the fault streams of the chaos variant.
	ChaosSeed int64
	// Agents are the fleet sizes to sweep (default 100, 500, 1000, 2000).
	Agents []int
	// Slots is the per-point horizon (default 40).
	Slots int
	// Conns is how many multiplexed connections carry the fleet's traffic
	// (default hollow.Options default).
	Conns int
	// Chaos adds a second run per agent count with partitions and drops.
	Chaos bool
	// Partitions, when > 1, adds a partitioned-control-plane arm per agent
	// count: the same fleet driven by a loop whose probe, gather and scatter
	// are split over that many controller partitions (fault-free, and under
	// chaos when Chaos is set).
	Partitions int
	// KillFrac is the fraction of agents the chaos variant partitions
	// (default 0.05), staggered through the middle half of the horizon.
	KillFrac float64
	// Check attaches the invariant checker to every run (always on for the
	// chaos variant, where the masked-slot evidence is the point).
	Check bool
	// Observer, when non-nil, additionally receives every controller
	// SlotEvent of every run.
	Observer telemetry.SlotObserver
	// Context cancels the sweep between slots.
	Context context.Context
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	c.Seed = CanonicalSeed(c.Seed)
	c.ChaosSeed = CanonicalSeed(c.ChaosSeed)
	if len(c.Agents) == 0 {
		c.Agents = []int{100, 500, 1000, 2000}
	}
	if c.Slots <= 0 {
		c.Slots = 40
	}
	if c.KillFrac <= 0 {
		c.KillFrac = 0.05
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// ScalePoint is one measured (agent count, chaos) cell of the sweep.
type ScalePoint struct {
	// Agents is the fleet size; Slots the horizon measured.
	Agents, Slots int
	// Chaos marks the churn/partition variant of the sweep.
	Chaos bool
	// Partitions is the controller partition count driving this cell
	// (1 = the single controller).
	Partitions int
	// P50 and P99 are slot-tick latency percentiles: one tick is probe +
	// gather + decide + scatter + settle, the full RunSlot critical path.
	P50, P99 time.Duration
	// SlotsPerSec is the sustained tick throughput over the horizon.
	SlotsPerSec float64
	// AllocsPerSlot is the process-wide heap allocation count per slot
	// (controller + hollow agents + transport; the hollow harness shares the
	// process, so this is an upper bound on the controller's own rate).
	AllocsPerSlot float64
	// HeapMB is the live heap after the run, in MiB — the memory ceiling
	// signal for the fleet-size sweep.
	HeapMB float64
	// DegradedSlots counts slots scheduled with >= 1 agent masked.
	DegradedSlots int
	// EnergyPerSlot and FinalBacklog summarize the schedule itself, so a
	// transport-level speedup that silently breaks scheduling shows up here.
	EnergyPerSlot float64
	FinalBacklog  float64
}

// ScaleResult is the full sweep.
type ScaleResult struct {
	Points []ScalePoint
}

// scaleCollector records the per-slot controller signals.
type scaleCollector struct {
	degraded int
	energy   float64
	backlog  float64
}

func (sc *scaleCollector) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin != telemetry.OriginController {
		return
	}
	if len(ev.Degraded) > 0 {
		sc.degraded++
	}
	sc.energy += ev.Energy
	sc.backlog = ev.TotalBacklog
}

// scaleChaosPlan builds the churn plan for an n-agent fleet: KillFrac of the
// agents partitioned for 4 slots each, starts staggered across the middle
// half of the horizon, plus a 1% call-drop rate over everyone.
func scaleChaosPlan(cfg ScaleConfig, n int) *chaos.Plan {
	kill := int(float64(n) * cfg.KillFrac)
	if kill < 1 {
		kill = 1
	}
	if kill >= n {
		kill = n - 1
	}
	const down = 4
	from, to := cfg.Slots/4, cfg.Slots*3/4-down
	if to < from {
		to = from
	}
	windows := make([]chaos.Window, kill)
	for k := 0; k < kill; k++ {
		start := from
		if kill > 1 {
			start = from + k*(to-from)/(kill-1)
		}
		windows[k] = chaos.Window{Agent: 1 + (k*7)%(n-1), From: start, To: start + down}
	}
	return &chaos.Plan{Seed: cfg.ChaosSeed, Drop: 0.01, Windows: windows}
}

// scaleRun measures one cell: build the fleet, run the horizon, report the
// point. plan nil is the fault-free variant; parts is the control loop's
// partition count (1 is the single controller).
func scaleRun(cfg ScaleConfig, n, parts int, plan *chaos.Plan) (ScalePoint, error) {
	pt := ScalePoint{Agents: n, Slots: cfg.Slots, Chaos: plan != nil, Partitions: parts}
	in, err := hollow.NewScaleInputs(cfg.Seed, n, cfg.Slots)
	if err != nil {
		return pt, err
	}
	fleet, err := hollow.NewFleet(in, hollow.Options{Conns: cfg.Conns})
	if err != nil {
		return pt, err
	}
	defer fleet.Close()

	conns := fleet.Conns()
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return pt, err
		}
		for i := range conns {
			conns[i] = plan.Wrap(conns[i], i)
		}
	}
	col := &scaleCollector{}
	obs := []telemetry.SlotObserver{col}
	var ck *invariant.Checker
	if cfg.Check || plan != nil {
		ck = invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
		obs = append(obs, ck)
	}
	if cfg.Observer != nil {
		obs = append(obs, cfg.Observer)
	}
	ct, err := controlplane.New(in.Cluster, conns, controlplane.Config{
		Partitions: parts,
		NewScheduler: func() (sched.Scheduler, error) {
			return core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
		},
		Policy:   controller.Degrade,
		Observer: telemetry.Multi(obs...),
	})
	if err != nil {
		return pt, err
	}

	ticks := make([]time.Duration, cfg.Slots)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for t := 0; t < cfg.Slots; t++ {
		if err := cfg.Context.Err(); err != nil {
			return pt, err
		}
		t0 := time.Now()
		if _, _, _, err := ct.RunSlotContext(cfg.Context, t, in.Workload.Arrivals(t)); err != nil {
			return pt, fmt.Errorf("agents=%d slot %d: %w", n, t, err)
		}
		ticks[t] = time.Since(t0)
	}
	total := time.Since(start)
	runtime.ReadMemStats(&after)
	if ck != nil {
		if err := ck.Err(); err != nil {
			return pt, fmt.Errorf("agents=%d invariant check: %w", n, err)
		}
	}

	sort.Slice(ticks, func(a, b int) bool { return ticks[a] < ticks[b] })
	pt.P50 = ticks[len(ticks)/2]
	pt.P99 = ticks[(len(ticks)*99)/100]
	pt.SlotsPerSec = float64(cfg.Slots) / total.Seconds()
	pt.AllocsPerSlot = float64(after.Mallocs-before.Mallocs) / float64(cfg.Slots)
	pt.HeapMB = float64(after.HeapAlloc) / (1 << 20)
	pt.DegradedSlots = col.degraded
	pt.EnergyPerSlot = col.energy / float64(cfg.Slots)
	pt.FinalBacklog = col.backlog
	return pt, nil
}

// Scale runs the hollow-fleet scale sweep. Points are measured sequentially
// — never in parallel — because every cell times a shared-process control
// loop and concurrent cells would contend for the same cores.
func Scale(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &ScaleResult{}
	for _, n := range cfg.Agents {
		pt, err := scaleRun(cfg, n, 1, nil)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
		if cfg.Chaos {
			cpt, err := scaleRun(cfg, n, 1, scaleChaosPlan(cfg, n))
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, cpt)
		}
		if cfg.Partitions > 1 && cfg.Partitions <= n {
			ppt, err := scaleRun(cfg, n, cfg.Partitions, nil)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, ppt)
			if cfg.Chaos {
				cpt, err := scaleRun(cfg, n, cfg.Partitions, scaleChaosPlan(cfg, n))
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, cpt)
			}
		}
	}
	return res, nil
}
