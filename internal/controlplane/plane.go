// Package controlplane is the constructor surface of the partitioned control
// plane: P controller partitions, each owning a disjoint contiguous subset of
// the data centers, probe, gather and scatter their own agents concurrently,
// and the loop decides once per slot with one scheduler on the slot-initial
// backlogs.
//
// The loop itself is package controller's, the same one controller.New runs
// with one partition: a Plane is a controller.Controller, and its trajectory
// is byte-identical to the single controller's at any partition count — the
// equivalence TestPartitionedMatchesSingle pins against a golden trace.
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
	// NewScheduler builds the loop's one scheduler.
	NewScheduler func() (sched.Scheduler, error)
	// Policy, SuspectAfter, DeadAfter configure the shared health tracker
	// exactly like the single controller's options.
	Policy       controller.FailurePolicy
	SuspectAfter int
	DeadAfter    int
	// Observer receives one SlotEvent per slot (origin "controller"),
	// identical in shape to the single controller's.
	Observer telemetry.SlotObserver
	// Registry, when set, publishes the tracker's health families.
	Registry *telemetry.Registry
}

// Plane is the control loop; the partitioned plane and the single controller
// are one type.
type Plane = controller.Controller

// PartitionStats describes one partition.
type PartitionStats = controller.PartitionStats

// New builds a partitioned control plane over the given agent connections;
// conns[i] must serve data center i.
func New(c *model.Cluster, conns []controller.AgentConn, cfg Config) (*Plane, error) {
	return controller.NewPartitioned(c, conns,
		controller.Partitioning{
			Partitions:   cfg.Partitions,
			NewScheduler: cfg.NewScheduler,
		},
		controller.WithObserver(cfg.Observer),
		controller.WithFailurePolicy(cfg.Policy),
		controller.WithHealthThresholds(cfg.SuspectAfter, cfg.DeadAfter),
		controller.WithHealthMetrics(cfg.Registry),
	)
}
