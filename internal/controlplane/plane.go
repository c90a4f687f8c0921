// Package controlplane is a deprecated adapter over controller.New, kept only
// because benchmark/fleet.go still builds its fleet-part2 loop through it.
// The control loop has no partitions: New checks that Partitions lies in
// [1, N], builds the one scheduler and returns the loop controller.New
// builds, so the partition count changes neither the trajectory nor the I/O.
//
// Deprecated: build the loop with controller.New.
package controlplane

import (
	"fmt"

	"grefar/internal/controller"
	"grefar/internal/model"
	"grefar/internal/sched"
	"grefar/internal/telemetry"
)

// Config tunes a Plane. Partitions and NewScheduler are required.
type Config struct {
	// Partitions must lie in [1, N]; it changes nothing else.
	Partitions int
	// NewScheduler builds the loop's one scheduler.
	NewScheduler func() (sched.Scheduler, error)
	// Policy, SuspectAfter, DeadAfter configure the health tracker exactly
	// like controller.New's options.
	Policy       controller.FailurePolicy
	SuspectAfter int
	DeadAfter    int
	// Observer receives one SlotEvent per slot (origin "controller").
	Observer telemetry.SlotObserver
	// Registry, when set, publishes the tracker's health families.
	Registry *telemetry.Registry
}

// Plane is the control loop.
type Plane = controller.Controller

// PartitionStats describes the loop as one partition.
type PartitionStats = controller.PartitionStats

// New builds the control loop over the given agent connections; conns[i] must
// serve data center i.
func New(c *model.Cluster, conns []controller.AgentConn, cfg Config) (*Plane, error) {
	if cfg.Partitions < 1 || cfg.Partitions > c.N() {
		return nil, fmt.Errorf("partitions %d outside [1,%d]", cfg.Partitions, c.N())
	}
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("nil scheduler factory")
	}
	sch, err := cfg.NewScheduler()
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	return controller.New(c, sch, conns,
		controller.WithObserver(cfg.Observer),
		controller.WithFailurePolicy(cfg.Policy),
		controller.WithHealthThresholds(cfg.SuspectAfter, cfg.DeadAfter),
		controller.WithHealthMetrics(cfg.Registry),
	)
}
