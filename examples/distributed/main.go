// Distributed deployment: spin up one agent per data center on loopback TCP,
// connect a central controller running GreFar, and drive the control loop —
// the same protocol the grefar-agent and grefar-controller binaries speak,
// compressed into one process for demonstration.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"grefar"
	"grefar/internal/agent"
	"grefar/internal/controller"
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

	scheduler, err := grefar.New(c, grefar.WithV(7.5), grefar.WithBeta(100))
	if err != nil {
		log.Fatal(err)
	}
	ct, err := controller.New(c, scheduler, conns)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := ct.Run(slots, inputs.Workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontroller ran %d slots across %d agents in %v\n", slots, c.N(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  avg energy cost    %.3f\n", res.AvgEnergy)
	fmt.Printf("  avg fairness score %.4f\n", res.AvgFairness)
	for i, d := range res.AvgLocalDelay {
		fmt.Printf("  %s: delay %.2f slots, %.2f work/slot\n", c.DataCenters[i].Name, d, res.AvgWorkPerDC[i])
	}
}
