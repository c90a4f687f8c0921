package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"grefar"
	"grefar/internal/serve"
)

// serveSizes fixes the ingest workload's shape. The run's seconds are split
// evenly over four phases: open loop at each of the two rates, closed loop on
// /v1/jobs, closed loop on /v1/jobs/batch.
type serveSizes struct {
	Horizon    int     `json:"horizon"`        // slots of generated prices and availability
	TickMillis float64 `json:"tick_ms"`        // the ticker's schedule, like the daemon's -tick
	Rates      [2]int  `json:"open_loop_rps"`  // requests per second, all clients together
	Clients    int     `json:"clients"`        // submitters, one keep-alive connection each
	BatchLines int     `json:"batch_lines"`    // jobs in one /v1/jobs/batch body
	Bodies     int     `json:"distinct_small"` // distinct generated 2-job bodies
	SetupRuns  int     `json:"setup_runs"`
	// ProbeOps scales the probes: direct submits are ProbeOps*50, handler
	// calls ProbeOps*10, idle ticks ProbeOps, batch bodies ProbeOps/10.
	ProbeOps int `json:"probe_ops"`
}

var serveIngestSizes = serveSizes{
	Horizon: 4096, TickMillis: 10, Rates: [2]int{5000, 20000}, Clients: 2,
	BatchLines: 1000, Bodies: 512, SetupRuns: 25, ProbeOps: 2000,
}

const (
	requestTimeout = time.Second // a request not answered in this time has failed
	batchBodies    = 8
	// envSeed fixes the prices and availability the session schedules under —
	// the daemon's own default -seed. The run's seed shapes the submissions,
	// which are this workload's input; a per-seed environment would only add
	// seed-to-seed spread to cost_avg and backlog_avg_jobs.
	envSeed = 2012
)

// serveStack is the daemon's wiring, in process: session, server, a real
// net/http listener on loopback, and the submitters' clients.
type serveStack struct {
	sess    *grefar.Session
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	url     string
	clients []*http.Client
}

// buildServe wires the session exactly as cmd/grefar-serve does — reference
// inputs without a workload, action validation on, registry attached — and
// puts it behind a real HTTP server.
func buildServe(sz serveSizes) (*serveStack, error) {
	in, err := grefar.ReferenceInputs(envSeed, sz.Horizon)
	if err != nil {
		return nil, err
	}
	in.Workload = nil
	reg := grefar.NewRegistry()
	sess, err := grefar.Open(
		grefar.WithInputs(in),
		grefar.WithV(knobV), grefar.WithBeta(knobBeta),
		grefar.WithActionValidation(true),
		grefar.WithTelemetry(reg),
	)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.ServerConfig{Session: sess, Registry: reg})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveStack{
		sess:    sess,
		srv:     srv,
		httpSrv: &http.Server{Handler: srv},
		served:  make(chan error, 1),
		url:     "http://" + lis.Addr().String(),
	}
	go func() { s.served <- s.httpSrv.Serve(lis) }()
	for c := 0; c < sz.Clients; c++ {
		s.clients = append(s.clients, &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		})
	}
	return s, nil
}

// close shuts the server and the clients down and waits for the accept loop.
func (s *serveStack) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	err := s.httpSrv.Close()
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := s.sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadBodies are the generated request bodies and how many jobs each holds.
type loadBodies struct {
	small     [][]byte
	smallJobs []int
	batch     [][]byte
	batchJobs []int
}

// newLoadBodies generates the request bodies from the seed: 2-job arrays for
// /v1/jobs and JSONL bodies for /v1/jobs/batch, over the cluster's job types.
func newLoadBodies(seed int64, sz serveSizes, jobTypes int) loadBodies {
	rng := rand.New(rand.NewSource(seed))
	var lb loadBodies
	for k := 0; k < sz.Bodies; k++ {
		a, b := rng.Intn(jobTypes), rng.Intn(jobTypes)
		ca, cb := 1+rng.Intn(2), 1+rng.Intn(2)
		lb.small = append(lb.small, []byte(fmt.Sprintf(`[{"type":%d,"count":%d},{"type":%d,"count":%d}]`, a, ca, b, cb)))
		lb.smallJobs = append(lb.smallJobs, ca+cb)
	}
	for k := 0; k < batchBodies; k++ {
		var buf bytes.Buffer
		jobs := 0
		for l := 0; l < sz.BatchLines; l++ {
			n := 1 + rng.Intn(3)
			fmt.Fprintf(&buf, "{\"type\":%d,\"count\":%d}\n", rng.Intn(jobTypes), n)
			jobs += n
		}
		lb.batch = append(lb.batch, buf.Bytes())
		lb.batchJobs = append(lb.batchJobs, jobs)
	}
	return lb
}

// phase is what the submitters measured in one phase.
type phase struct {
	latency  durations // ack time, from the due time (open loop) or the send (closed loop)
	lag      durations // open loop: how late the generator sent each request
	requests int
	failed   int
	acked    int // jobs the server said it accepted
	wall     time.Duration
	failure  string // the first failure, for the report
}

func (p *phase) merge(o *phase) {
	p.latency = append(p.latency, o.latency...)
	p.lag = append(p.lag, o.lag...)
	p.requests += o.requests
	p.failed += o.failed
	p.acked += o.acked
	if p.failure == "" {
		p.failure = o.failure
	}
}

// post sends one body and returns the accepted-job count the server acked.
func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	// The ack is {"accepted":N}.
	i, j := bytes.IndexByte(data, ':'), bytes.IndexByte(data, '}')
	if i < 0 || j < i {
		return 0, fmt.Errorf("unexpected ack %q", data)
	}
	return strconv.Atoi(string(bytes.TrimSpace(data[i+1 : j])))
}

// load runs one phase on every client. With rate > 0 it is an open loop: the
// requests are due at fixed intervals whatever the server does, each client
// sends its share as soon as it is due and the previous one is answered, and
// latency counts from the due time. With rate 0 it is a closed loop: each
// client sends its next request when the previous one is answered.
func (s *serveStack) load(path string, rate int, dur time.Duration, bodies [][]byte, jobs []int) *phase {
	parts := make([]*phase, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range s.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			p := &phase{}
			parts[ci] = p
			url := s.url + path
			free := start // when this client's connection last became free
			for k := ci; ; k += len(s.clients) {
				sent := time.Now()
				due := sent
				if rate > 0 {
					due = start.Add(time.Duration(float64(k) / float64(rate) * float64(time.Second)))
					if due.Sub(start) >= dur {
						return
					}
					sleepUntil(due)
					sent = time.Now()
					// The generator's own lateness: a request cannot leave before
					// it is due nor before the connection is free.
					if free.After(due) {
						p.lag = append(p.lag, sent.Sub(free))
					} else {
						p.lag = append(p.lag, sent.Sub(due))
					}
				} else if sent.Sub(start) >= dur {
					return
				}
				b := k % len(bodies)
				n, err := post(c, url, bodies[b])
				free = time.Now()
				p.requests++
				if err == nil && n != jobs[b] {
					err = fmt.Errorf("acked %d jobs of %d", n, jobs[b])
				}
				if err != nil {
					p.failed++
					if p.failure == "" {
						p.failure = err.Error()
					}
					continue
				}
				p.acked += n
				p.latency = append(p.latency, free.Sub(due))
			}
		}(ci, c)
	}
	wg.Wait()
	total := &phase{wall: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// ticker calls Server.Tick on a fixed schedule until stopped, like the
// daemon's -tick loop, and keeps each tick's duration by phase.
type ticker struct {
	stop     chan struct{}
	done     chan struct{}
	phase    int // written by the load driver between phases, under mu
	mu       sync.Mutex
	byPhase  map[int]durations
	admitted int
	ticks    int
	failure  string
}

func (s *serveStack) startTicker(every time.Duration, rec *recorder) *ticker {
	tk := &ticker{stop: make(chan struct{}), done: make(chan struct{}), byPhase: map[int]durations{}}
	go func() {
		defer close(tk.done)
		start := time.Now()
		for k := 1; ; k++ {
			sleepUntil(start.Add(time.Duration(k) * every))
			select {
			case <-tk.stop:
				return
			default:
			}
			if rec != nil {
				rec.beginTick(k)
			}
			t0 := time.Now()
			rep, err := s.srv.Tick(context.Background())
			d := time.Since(t0)
			if rec != nil {
				rec.endTick()
			}
			tk.mu.Lock()
			tk.ticks++
			if err != nil {
				if tk.failure == "" {
					tk.failure = err.Error()
				}
			} else {
				tk.admitted += rep.Admitted
				tk.byPhase[tk.phase] = append(tk.byPhase[tk.phase], d)
			}
			tk.mu.Unlock()
		}
	}()
	return tk
}

func (tk *ticker) setPhase(p int) {
	tk.mu.Lock()
	tk.phase = p
	tk.mu.Unlock()
}

func (tk *ticker) halt() {
	close(tk.stop)
	<-tk.done
}

// runServe runs the ingest workload. The load is the same traced or not —
// nothing in net/http or serve can be decorated from outside without changing
// what the daemon runs — so a traced run adds the tick spans, the generator's
// lag, the submit figures, and the probes that follow the load.
func runServe(name string, seed int64, sz serveSizes, seconds float64, traced bool, outDir string) (*outcome, error) {
	o := &outcome{}
	var setups []float64
	var s *serveStack
	for r := 0; r < sz.SetupRuns; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if s, err = buildServe(sz); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	lb := newLoadBodies(seed, sz, s.sess.Cluster().J())
	// One request per client opens its connection before anything is timed.
	warm := s.load("/v1/jobs", 0, 20*time.Millisecond, lb.small, lb.smallJobs)

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	every := time.Duration(sz.TickMillis * float64(time.Millisecond))
	part := time.Duration(seconds / 4 * float64(time.Second))
	gw := watchGoroutines()
	p0 := readProc()
	m0 := mallocs()
	loadStart := time.Now()
	tk := s.startTicker(every, rec)
	var ph [4]*phase
	ph[0] = s.load("/v1/jobs", sz.Rates[0], part, lb.small, lb.smallJobs)
	tk.setPhase(1)
	ph[1] = s.load("/v1/jobs", sz.Rates[1], part, lb.small, lb.smallJobs)
	tk.setPhase(2)
	// The quality and allocation figures cover the open-loop half, where the
	// request schedule, and so the work per tick, is fixed by the benchmark.
	openTicks := len(tk.snapshot(0)) + len(tk.snapshot(1))
	m1 := mallocs()
	res := s.sess.Result()
	cost, backlog := res.AvgEnergy-knobBeta*res.AvgFairness, res.AvgQueue
	ph[2] = s.load("/v1/jobs", 0, part, lb.small, lb.smallJobs)
	tk.setPhase(3)
	ph[3] = s.load("/v1/jobs/batch", 0, part, lb.batch, lb.batchJobs)
	tk.halt()
	loadWall := time.Since(loadStart).Seconds()
	p1 := readProc()
	peak := gw.done()
	heap := heapLiveMB()

	acked := warm.acked
	rejected := warm.failed
	o.Attempted = warm.requests + tk.ticks
	for i, p := range ph {
		o.Attempted += p.requests
		acked += p.acked
		rejected += p.failed
		if p.failed > 0 {
			o.Failed += p.failed - 1 // fail() counts the first
			o.fail("phase %d: %d of %d requests failed, first: %s", i, p.failed, p.requests, p.failure)
		}
	}
	if tk.failure != "" {
		o.fail("tick: %s", tk.failure)
	}
	pending := 0
	for _, n := range s.sess.Pending() {
		pending += n
	}
	if sub := s.sess.Submitted(); float64(acked) != sub || float64(tk.admitted+pending) != sub {
		o.fail("ingest accounting: %d jobs acked, session counts %.0f submitted, %d admitted + %d pending",
			acked, sub, tk.admitted, pending)
	}

	if !traced {
		ticks := tk.snapshot(1).in(time.Millisecond)
		o.setEndToEnd(median(setups), quantile(ticks, 0.50), float64(m1-m0)/float64(openTicks), heap, cost, backlog)
		o.note("%d ticks in %.2f s: %.3f slots/s, tick p95 under %d req/s %.4f ms", tk.ticks, loadWall, float64(tk.ticks)/loadWall, sz.Rates[1], quantile(ticks, 0.95))
		return o, s.close()
	}

	m := newLayerSet()
	o.Metrics = m
	m.set("untraced.tick_p95_ms", quantile(tk.snapshot(1).in(time.Millisecond), 0.95))
	m.set("untraced.slots_per_s", float64(tk.ticks)/loadWall)
	for i, tag := range []string{"r5k", "r20k"} {
		lat := ph[i].latency.in(time.Microsecond)
		m.set("serve.submit_p50_us_"+tag, quantile(lat, 0.50))
		m.set("serve.submit_p99_us_"+tag, quantile(lat, 0.99))
		lag := ph[i].lag.in(time.Microsecond)
		m.set("loadgen.lag_p50_us_"+tag, quantile(lag, 0.50))
		m.set("loadgen.lag_p99_us_"+tag, quantile(lag, 0.99))
	}
	m.set("serve.ingest_capacity_rps", float64(ph[2].requests-ph[2].failed)/ph[2].wall.Seconds())
	m.set("serve.batch_jobs_per_s", float64(ph[3].acked)/ph[3].wall.Seconds())
	m.set("serve.rejected", float64(rejected))
	procMetrics(m, p1.minus(p0), tk.ticks, peak)
	if err := probeServe(m, s, sz, lb, rec); err != nil {
		o.fail("serve probes: %v", err)
	}
	m.set("serve.http_overhead_us", m["serve.submit_p50_us_r5k"].Value-m["serve.handler_us"].Value)
	if err := rec.write(outDir, name); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return o, s.close()
}

// snapshot returns the tick durations of one phase.
func (tk *ticker) snapshot(p int) durations {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return append(durations(nil), tk.byPhase[p]...)
}

// probeServe measures the ingest layers one at a time on the idle server:
// Session.Submit direct, the handler without HTTP, the JSONL decode per line,
// an idle tick with and without its span, and checkpoint and restore.
func probeServe(m metricSet, s *serveStack, sz serveSizes, lb loadBodies, rec *recorder) error {
	jobs := []grefar.Job{{Type: 0, Count: 1}, {Type: 1, Count: 2}}
	n := sz.ProbeOps * 50
	start := time.Now()
	for k := 0; k < n; k++ {
		if _, err := s.sess.Submit(jobs); err != nil {
			return err
		}
	}
	m.set("serve.submit_ns", float64(time.Since(start))/float64(n))

	handle := func(path string, body []byte) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		s.srv.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.Code != http.StatusAccepted {
			return 0, fmt.Errorf("%s: status %d", path, w.Code)
		}
		return d, nil
	}
	var small, batch durations
	for k := 0; k < sz.ProbeOps*10; k++ {
		d, err := handle("/v1/jobs", lb.small[k%len(lb.small)])
		if err != nil {
			return err
		}
		small = append(small, d)
	}
	for k := 0; k < sz.ProbeOps/10+1; k++ {
		d, err := handle("/v1/jobs/batch", lb.batch[k%len(lb.batch)])
		if err != nil {
			return err
		}
		batch = append(batch, d)
	}
	m.set("serve.handler_us", small.median(time.Microsecond))
	m.set("serve.batch_line_ns", batch.median(time.Nanosecond)/float64(sz.BatchLines))

	var plain, spanned durations
	for k := 0; k < 2*sz.ProbeOps; k++ {
		withSpan := k%2 == 1
		t0 := time.Now()
		if withSpan {
			rec.beginTick(-1 - k)
		}
		_, err := s.srv.Tick(context.Background())
		if withSpan {
			rec.endTick()
		}
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if withSpan {
			spanned = append(spanned, d)
		} else {
			plain = append(plain, d)
		}
	}
	m.set("serve.tick_us", plain.median(time.Microsecond))
	m.set("trace.overhead_frac", tickRatio(spanned, plain)-1)

	var ckpt, restore durations
	var buf bytes.Buffer
	for k := 0; k < 20; k++ {
		buf.Reset()
		t0 := time.Now()
		if err := s.sess.Checkpoint(&buf); err != nil {
			return err
		}
		ckpt = append(ckpt, time.Since(t0))
	}
	for k := 0; k < 20; k++ {
		t0 := time.Now()
		if err := s.sess.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		restore = append(restore, time.Since(t0))
	}
	m.set("serve.checkpoint_ms", ckpt.median(time.Millisecond))
	m.set("serve.snapshot_bytes", float64(buf.Len()))
	m.set("serve.restore_ms", restore.median(time.Millisecond))
	return nil
}
