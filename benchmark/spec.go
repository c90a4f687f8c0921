package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Workload names, in the order the top-level command runs them.
const (
	wlFleetSingle = "fleet-single"
	wlFleetPart2  = "fleet-part2"
	wlSolveLarge  = "solve-large"
	wlServeIngest = "serve-ingest"
)

var workloadNames = []string{wlFleetSingle, wlFleetPart2, wlSolveLarge, wlServeIngest}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps a metric name to its value.
type metricSet map[string]metric

// set records a metric under the unit its table entry declares. An unknown
// name is a bug in this program.
func (m metricSet) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is in neither table")
	}
	m[name] = metric{v, unit}
}

// endToEnd lists the metrics of an untraced run, with units. Every workload
// reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"tick_p50_ms", "ms"},
	{"allocs_per_slot", "count"},
	{"heap_live_mb", "MB"},
	{"cost_avg", "cost"},
	{"backlog_avg_jobs", "jobs"},
}

// perLayer lists the metrics of a traced run, with units. A workload that
// does not exercise a layer reports 0 for that layer's metrics.
var perLayer = []struct{ name, unit string }{
	{"untraced.tick_p95_ms", "ms"},
	{"untraced.slots_per_s", "slots/s"},
	{"core.decide_us", "us"},
	{"core.decide_share", "ratio"},
	{"core.decides_per_slot", "count"},
	{"core.decide_dense_us", "us"},
	{"core.decide_sparse_us", "us"},
	{"core.decide_decomposed_us", "us"},
	{"core.decide_allocs", "count"},
	{"solve.fw_iters_per_slot", "count"},
	{"core.warm_hit_frac", "ratio"},
	{"solve.not_converged", "count"},
	{"queue.apply_us", "us"},
	{"queue.lengths_us", "us"},
	{"sim.step_self_us", "us"},
	{"transport.state_calls_per_slot", "count"},
	{"transport.allocate_calls_per_slot", "count"},
	{"transport.gather_window_ms", "ms"},
	{"transport.scatter_window_ms", "ms"},
	{"transport.encode_state_ns", "ns"},
	{"transport.decode_state_ns", "ns"},
	{"transport.state_bytes", "B"},
	{"transport.encode_allocate_ns", "ns"},
	{"transport.decode_allocate_ns", "ns"},
	{"transport.allocate_bytes", "B"},
	{"transport.codec_allocs_per_msg", "count"},
	{"transport.call_us", "us"},
	{"transport.batch_call_us_per_item", "us"},
	{"agent.handle_state_us", "us"},
	{"agent.handle_allocate_us", "us"},
	{"agent.handle_allocs", "count"},
	{"controller.self_ms", "ms"},
	{"controller.self_share", "ratio"},
	{"controlplane.conflicts_per_slot", "count"},
	{"controlplane.retries_per_slot", "count"},
	{"controlplane.forced_per_slot", "count"},
	{"controlplane.commits_per_slot", "count"},
	{"controlplane.decide_ms_max_part", "ms"},
	{"controlplane.speedup_vs_single", "ratio"},
	{"serve.submit_p50_us_r5k", "us"},
	{"serve.submit_p99_us_r5k", "us"},
	{"serve.submit_p50_us_r20k", "us"},
	{"serve.submit_p99_us_r20k", "us"},
	{"serve.ingest_capacity_rps", "1/s"},
	{"serve.batch_jobs_per_s", "jobs/s"},
	{"serve.submit_ns", "ns"},
	{"serve.handler_us", "us"},
	{"serve.batch_line_ns", "ns"},
	{"serve.http_overhead_us", "us"},
	{"serve.tick_us", "us"},
	{"serve.rejected", "count"},
	{"serve.checkpoint_ms", "ms"},
	{"serve.snapshot_bytes", "B"},
	{"serve.restore_ms", "ms"},
	{"loadgen.lag_p50_us_r5k", "us"},
	{"loadgen.lag_p99_us_r5k", "us"},
	{"loadgen.lag_p50_us_r20k", "us"},
	{"loadgen.lag_p99_us_r20k", "us"},
	{"process.gc_cpu_frac", "ratio"},
	{"process.gc_cycles_per_slot", "count"},
	{"process.alloc_kb_per_slot", "kB"},
	{"process.peak_rss_mb", "MB"},
	{"process.goroutines_peak", "count"},
	{"trace.overhead_frac", "ratio"},
}

// units maps every metric name of either table to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, e := range endToEnd {
		u[e.name] = e.unit
	}
	for _, p := range perLayer {
		u[p.name] = p.unit
	}
	return u
}()

// newLayerSet returns every per-layer metric at 0, so that each traced run
// reports the full list whatever layers its workload reaches.
func newLayerSet() metricSet {
	m := metricSet{}
	for _, p := range perLayer {
		m.set(p.name, 0)
	}
	return m
}

// outcome is what one run of one workload produced. Its JSON form is the
// last line a run prints.
type outcome struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	// failures explains every failed operation or check; determinism carries
	// the figures that must repeat exactly for one seed; info is printed with
	// the metrics but is not part of the contract line.
	failures    []string
	determinism map[string]float64
	info        []string
}

// setEndToEnd records the six metrics of an untraced run.
func (o *outcome) setEndToEnd(setup, tickP50, allocs, heap, cost, backlog float64) {
	o.Metrics = metricSet{}
	o.Metrics.set("setup_s", setup)
	o.Metrics.set("tick_p50_ms", tickP50)
	o.Metrics.set("allocs_per_slot", allocs)
	o.Metrics.set("heap_live_mb", heap)
	o.Metrics.set("cost_avg", cost)
	o.Metrics.set("backlog_avg_jobs", backlog)
}

// note adds a printed-only line: a figure worth reading that is too unsteady
// on a shared box to be held to a bound.
func (o *outcome) note(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// fail records a failed check. A run with any failure is not correct.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// finish settles Correct and checks the metric list against want.
func (o *outcome) finish(want []struct{ name, unit string }) {
	for _, w := range want {
		m, ok := o.Metrics[w.name]
		switch {
		case !ok:
			o.fail("metric %s was not measured", w.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			o.fail("metric %s is not finite", w.name)
		}
	}
	if len(o.Metrics) != len(want) {
		o.fail("%d metrics measured, %d expected", len(o.Metrics), len(want))
	}
	if o.Attempted < 1 {
		o.Attempted = 1
	}
	o.Correct = len(o.failures) == 0
}

// print writes every metric by name and unit, the failures, and the contract
// line last.
func (o *outcome) print(w io.Writer, title string) error {
	fmt.Fprintf(w, "== %s ==\n", title)
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	for _, l := range o.info {
		fmt.Fprintf(w, "info: %s\n", l)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", o.Attempted, o.Failed)
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// benchSpec is the part of BENCHMARK.json this program reads back: the
// metric names it must emit and the bound each end-to-end metric may move by.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
