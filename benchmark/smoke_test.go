package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toySizes runs every workload's real code path in a second or two.
var toySizes = sizes{
	FleetSingle: fleetSizes{Agents: 32, Horizon: 96, Warmup: 3, Quality: 20, SetupRuns: 2, Block: 4},
	FleetPart2:  fleetSizes{Agents: 32, Horizon: 96, Partitions: 2, Warmup: 3, Quality: 20, SetupRuns: 2, Block: 4},
	SolveLarge: solveSizes{
		Sites: 20, JobTypes: 10, Accounts: 4, Eligible: 5, Horizon: 96,
		Warmup: 5, Quality: 30, SetupRuns: 2, ProbeSlots: 20, ProbeActions: 4, Checked: 20, Block: 5,
	},
	ServeIngest: serveSizes{
		Horizon: 256, TickMillis: 10, Rates: [2]int{500, 2000}, Clients: 2,
		BatchLines: 100, Bodies: 32, SetupRuns: 2, ProbeOps: 50,
	},
}

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// that each run passes its own correctness checks and emits exactly the
// metric names BENCHMARK.json declares, each with a finite value and the
// declared unit, and that the contract line is well formed.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%s declares %d workloads, the program runs %d", specFile, len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("%s workload %d is %q, the program runs %q", specFile, i, w.Name, workloadNames[i])
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, e := range spec.EndToEnd {
		want[false][e.Name] = e.Unit
	}
	for _, p := range spec.PerLayer {
		want[true][p.Name] = p.Unit
	}

	out := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			seconds := 0.6
			if name == wlServeIngest {
				seconds = 1.0
			}
			o, err := runWorkload(name, 7, seconds, traced, out, toySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !o.Correct || o.Failed != 0 {
				t.Errorf("%s traced=%v: %d failed of %d: %s", name, traced, o.Failed, o.Attempted, strings.Join(o.failures, "; "))
			}
			if len(o.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics emitted, %s declares %d", name, traced, len(o.Metrics), specFile, len(want[traced]))
			}
			for n, unit := range want[traced] {
				m, ok := o.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is missing", name, traced, n)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, n, m.Value)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, %s says %q", name, traced, n, m.Unit, specFile, unit)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, n)
				}
			}

			var buf bytes.Buffer
			if err := printRun(&buf, o, name, 7, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", name, traced, err)
			}
			if len(line) != 4 {
				t.Errorf("%s traced=%v: contract line has keys %v", name, traced, line)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := line[k]; !ok {
					t.Errorf("%s traced=%v: contract line lacks %q", name, traced, k)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4), the
// spread the acceptance check is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
