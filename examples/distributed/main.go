// Distributed deployment: spin up one agent per data center on loopback TCP
// and drive them from a serving session running GreFar — the same protocol
// grefar-agent and grefar-serve -agents speak, compressed into one process for
// demonstration. The session's arrivals come from the reference workload.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"grefar"
	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/serve"
	"grefar/internal/transport"
)

func main() {
	const slots = 24 * 14

	inputs, err := grefar.ReferenceInputs(2012, slots)
	if err != nil {
		log.Fatal(err)
	}
	c := inputs.Cluster

	// Start one agent per site, each serving its state over TCP.
	conns := make([]controller.AgentConn, c.N())
	for i := 0; i < c.N(); i++ {
		a, err := agent.New(agent.Config{
			Cluster:      c,
			DataCenter:   i,
			Price:        inputs.Prices[i],
			Availability: inputs.Availability,
		})
		if err != nil {
			log.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := a.Serve(lis)
		defer srv.Close()
		fmt.Printf("agent for %s listening on %s\n", c.DataCenters[i].Name, srv.Addr())

		cli, err := transport.DialMux(srv.Addr(), 5*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Close()
		conns[i] = cli.Agent(0)
	}

	s, err := serve.NewSession(serve.SessionConfig{
		Inputs:    inputs,
		Scheduler: core.Config{V: 7.5, Beta: 100},
		Agents:    conns,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	for t := 0; t < slots; t++ {
		if _, err := s.Tick(context.Background()); err != nil {
			log.Fatal(err)
		}
	}
	res := s.Result()
	fmt.Printf("\nscheduler ran %d slots across %d agents in %v\n", slots, c.N(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  avg energy cost    %.3f\n", res.AvgEnergy)
	fmt.Printf("  avg fairness score %.4f\n", res.AvgFairness)
	for i, d := range res.AvgLocalDelay {
		fmt.Printf("  %s: delay %.2f slots, %.2f work/slot\n", c.DataCenters[i].Name, d, res.AvgWorkPerDC[i])
	}
}
