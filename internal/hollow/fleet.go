package hollow

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/sim"
	"grefar/internal/transport"
)

// Options tune a Fleet. The zero value is usable.
type Options struct {
	// Conns is how many client connections the fleet's call traffic is spread
	// over (default 4). One pipelined connection carries any number of
	// concurrent calls; a handful avoids single-socket throughput ceilings
	// without approaching one-FD-per-agent.
	Conns int
	// CallTimeout bounds each RPC (default 5s). The controller's health
	// tracker converts timeouts into Suspect/Dead transitions, so this also
	// sets how long a hung hollow agent can stall a gather.
	CallTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Second
	}
	return o
}

// Fleet hosts every agent of a cluster in one process behind a single
// multiplexed listener. Each agent is a real agent.Agent — real ledgers, real
// idempotent-replay cache, real restore path — and every call crosses the
// real wire (transport's v1 frames over TCP), so the controller observes the
// same protocol as a geographically distributed fleet minus the WAN latency.
//
// Kill, Revive, and Restart flip per-agent fault switches at the RPC
// boundary, which is exactly where real failures appear to the controller.
type Fleet struct {
	inputs sim.Inputs
	opts   Options

	agents []atomic.Pointer[agent.Agent]
	down   []atomic.Bool

	srv      *transport.MuxServer
	lis      net.Listener
	serveErr chan error // buffered; Serve's return value, surfaced by ServeErr/Close
	clients  []*transport.MuxClient
}

// NewFleet builds and starts a fleet: one agent per data center of
// in.Cluster, a shared MuxServer on loopback TCP, and Options.Conns dialed
// client connections. Close releases everything.
func NewFleet(in sim.Inputs, opts Options) (*Fleet, error) {
	if in.Cluster == nil {
		return nil, fmt.Errorf("hollow: inputs have no cluster")
	}
	opts = opts.withDefaults()
	n := in.Cluster.N()
	if len(in.Prices) != n {
		return nil, fmt.Errorf("hollow: %d price sources for %d data centers", len(in.Prices), n)
	}
	f := &Fleet{
		inputs: in,
		opts:   opts,
		agents: make([]atomic.Pointer[agent.Agent], n),
		down:   make([]atomic.Bool, n),
	}
	cfgs := make([]agent.Config, n)
	for i := range cfgs {
		cfgs[i] = f.agentConfig(i)
	}
	agents, err := agent.NewSites(cfgs)
	if err != nil {
		return nil, fmt.Errorf("hollow: %w", err)
	}
	for i, a := range agents {
		f.agents[i].Store(a)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("hollow: listen: %w", err)
	}
	f.lis = lis
	f.srv = transport.NewMuxServer(lis, f.handle)
	f.serveErr = make(chan error, 1)
	go func() { f.serveErr <- f.srv.Serve() }()

	f.clients = make([]*transport.MuxClient, opts.Conns)
	for c := range f.clients {
		cli, err := transport.DialMux(f.srv.Addr(), opts.CallTimeout)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("hollow: dial conn %d: %w", c, err)
		}
		f.clients[c] = cli
	}
	return f, nil
}

// agentConfig is hollow agent i's configuration.
func (f *Fleet) agentConfig(i int) agent.Config {
	return agent.Config{
		Cluster:      f.inputs.Cluster,
		DataCenter:   i,
		Price:        f.inputs.Prices[i],
		Availability: f.inputs.Availability,
	}
}

// handle is the fleet's MuxHandler: it routes each request to the target
// agent's real handler, which appends its reply to dst, or refuses it when
// the agent is killed — from the controller's side a killed hollow agent is
// indistinguishable from a partitioned real one.
func (f *Fleet) handle(dst []byte, target int, kind string, body []byte) ([]byte, error) {
	if target < 0 || target >= len(f.agents) {
		return dst, fmt.Errorf("hollow: no agent %d", target)
	}
	if f.down[target].Load() {
		return dst, fmt.Errorf("hollow: agent %d is down", target)
	}
	return f.agents[target].Load().AppendReply(dst, kind, body)
}

// Addr is the shared listener's address.
func (f *Fleet) Addr() string { return f.srv.Addr() }

// N is the fleet size.
func (f *Fleet) N() int { return len(f.agents) }

// Inputs returns the simulation inputs the fleet was built from.
func (f *Fleet) Inputs() sim.Inputs { return f.inputs }

// Conns returns one controller connection per agent, striped across the
// fleet's shared client connections. Slot them straight into controller.New.
func (f *Fleet) Conns() []controller.AgentConn {
	out := make([]controller.AgentConn, len(f.agents))
	for i := range out {
		out[i] = f.clients[i%len(f.clients)].Agent(i)
	}
	return out
}

// Kill makes agent i refuse every RPC until Revive or Restart. The agent's
// queue state is retained, modeling a network partition or a wedged process
// that later comes back intact.
func (f *Fleet) Kill(i int) { f.down[i].Store(true) }

// Revive brings a killed agent back with its state intact.
func (f *Fleet) Revive(i int) { f.down[i].Store(false) }

// Restart replaces agent i with a fresh instance — empty queues, cold replay
// cache — and brings it back up, modeling a crash-restart that lost local
// state. The controller's rejoin path must resync it from shadow ledgers.
func (f *Fleet) Restart(i int) error {
	a, err := agent.New(f.agentConfig(i))
	if err != nil {
		return fmt.Errorf("hollow: agent %d: %w", i, err)
	}
	f.agents[i].Store(a)
	f.down[i].Store(false)
	return nil
}

// Agent exposes hollow agent i for test assertions (queue lengths,
// snapshots). The returned agent may be replaced by a concurrent Restart.
func (f *Fleet) Agent(i int) *agent.Agent { return f.agents[i].Load() }

// TotalBacklog sums the local backlogs across every live hollow agent.
func (f *Fleet) TotalBacklog() float64 {
	var sum float64
	for i := range f.agents {
		for _, l := range f.agents[i].Load().QueueLens() {
			sum += l
		}
	}
	return sum
}

// ServeErr exposes the accept loop's failure, if any: the channel receives
// exactly one value when Serve returns — nil on a clean Close, the accept
// error otherwise (e.g. FD exhaustion under a huge fleet). Run loops should
// poll it non-blockingly each slot so a wedged listener surfaces as an error
// instead of a silent stall.
func (f *Fleet) ServeErr() <-chan error { return f.serveErr }

// Close shuts down the client connections and the shared server, and returns
// any accept-loop error the run loop did not already consume, so a fleet
// whose listener died mid-run cannot shut down silently.
func (f *Fleet) Close() error {
	for _, cli := range f.clients {
		if cli != nil {
			cli.Close()
		}
	}
	err := f.srv.Close()
	select {
	case serr := <-f.serveErr:
		if err == nil {
			err = serr
		}
	default:
		// Serve has not returned yet; its nil result after this Close is
		// uninteresting, and a late error stays readable on ServeErr.
	}
	return err
}
