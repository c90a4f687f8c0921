package grefar_test

import (
	"fmt"
	"testing"
)

// partitionedBenchCells is the (fleet size, partition count) sweep recorded
// in BENCH_distributed.json. BenchmarkHollowSlot at the same agent counts is
// the single-controller baseline these cells are read against.
var partitionedBenchCells = []struct{ agents, parts int }{
	{500, 4},
	{1000, 4},
	{1000, 8},
	{2000, 8},
}

// BenchmarkPartitionedSlot measures one slot tick of the partitioned control
// loop against a hollow fleet: P controller partitions each batch-gathering
// from their owned agents, one decision for the whole cluster, and P
// batch-scatters of the allocations. Compared with BenchmarkHollowSlot/agents=N
// it shows what splitting the agent I/O P ways buys on the slot-tick critical
// path; make bench-compare fails on >15% regressions.
func BenchmarkPartitionedSlot(b *testing.B) {
	for _, cell := range partitionedBenchCells {
		b.Run(fmt.Sprintf("agents=%d/parts=%d", cell.agents, cell.parts), func(b *testing.B) {
			in, fleet, pl := newHollowLoop(b, cell.agents, cell.parts, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := i % 4096
				if _, _, _, err := pl.RunSlot(t, in.Workload.Arrivals(t)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			fleet.Close()
		})
	}
}
