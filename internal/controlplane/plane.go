// Package controlplane is the constructor surface of the partitioned
// shared-state control plane: P controller partitions, each owning a disjoint
// contiguous subset of the data centers, probe, gather and scatter their own
// agents concurrently, and — unless Config.Deterministic — each decide against
// a shared versioned snapshot of the central queues and commit optimistically.
//
// The loop itself is package controller's, the same one controller.New runs
// with one partition: a Plane is a controller.Controller. Deterministic mode
// decides once per slot with one scheduler on the slot-initial backlogs, so
// its trajectory is byte-identical to the single controller's at any
// partition count — the equivalence TestPartitionedMatchesSingle pins against
// a golden trace.
package controlplane

import (
	"grefar/internal/controller"
	"grefar/internal/model"
	"grefar/internal/sched"
	"grefar/internal/telemetry"
)

// Config tunes a Plane. Partitions and NewScheduler are required.
type Config struct {
	// Partitions is the number of controller partitions; the data centers are
	// split into that many contiguous, near-equal ownership ranges.
	Partitions int
	// Deterministic disables optimistic concurrency: the loop decides once
	// from the slot-initial snapshot, which reproduces the single-controller
	// trajectory byte-identically. One partition always runs this way.
	Deterministic bool
	// NewScheduler builds one scheduler per deciding partition (schedulers
	// are stateful) — a single one when the loop decides once.
	NewScheduler func() (sched.Scheduler, error)
	// Policy, SuspectAfter, DeadAfter configure the shared health tracker
	// exactly like the single controller's options.
	Policy       controller.FailurePolicy
	SuspectAfter int
	DeadAfter    int
	// MaxRetries bounds a partition's conflict-retry loop per slot; after
	// that many rejections it commits unvalidated (counted in Stats.Forced).
	// Default: Partitions — by then every conflicting peer has committed.
	MaxRetries int
	// Observer receives one SlotEvent per slot (origin "controller"),
	// identical in shape to the single controller's.
	Observer telemetry.SlotObserver
	// Registry, when set, publishes the tracker's health families plus, for
	// concurrently deciding partitions, the per-partition commit telemetry
	// (conflicts, retries, commits, commit latency).
	Registry *telemetry.Registry
}

// Plane is the control loop; the partitioned plane and the single controller
// are one type.
type Plane = controller.Controller

// PartitionStats is one partition's commit-protocol counters.
type PartitionStats = controller.PartitionStats

// New builds a partitioned control plane over the given agent connections;
// conns[i] must serve data center i.
func New(c *model.Cluster, conns []controller.AgentConn, cfg Config) (*Plane, error) {
	return controller.NewPartitioned(c, conns,
		controller.Partitioning{
			Partitions:    cfg.Partitions,
			Deterministic: cfg.Deterministic,
			NewScheduler:  cfg.NewScheduler,
			MaxRetries:    cfg.MaxRetries,
		},
		controller.WithObserver(cfg.Observer),
		controller.WithFailurePolicy(cfg.Policy),
		controller.WithHealthThresholds(cfg.SuspectAfter, cfg.DeadAfter),
		controller.WithHealthMetrics(cfg.Registry),
	)
}
