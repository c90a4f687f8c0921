package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// worse reports by what share of base the value v is worse, given the
// metric's direction; negative means better.
func worse(better string, base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// repeatRuns runs the untraced set n times, run r on seed+r — as the
// acceptance check of this benchmark does — and prints each end-to-end
// metric's median, quartiles and relative spread per workload. It returns
// non-zero when a spread exceeds the metric's bound; setup_s is exempt from
// the spread check, as it is there.
func repeatRuns(spec *benchSpec, n int, seed int64, seconds float64, outDir string, stdout, stderr io.Writer) int {
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	code := 0
	for r := 0; r < n; r++ {
		for _, w := range workloadNames {
			rec, err := child(w, seed+int64(r), seconds, false, outDir, io.Discard, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !rec.Outcome.Correct {
				fmt.Fprintf(stderr, "benchmark: %s seed %d failed its checks\n", w, seed+int64(r))
				code = 1
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range rec.Outcome.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			fmt.Fprintf(stdout, "run %d/%d %s done\n", r+1, n, w)
		}
	}
	fmt.Fprintf(stdout, "%-14s %-18s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloadNames {
		for _, e := range spec.EndToEnd {
			xs := values[w][e.Name]
			q1, q3 := quartiles(xs)
			spread := relSpread(xs)
			flag := ""
			if spread > e.Bound && e.Name != "setup_s" {
				flag = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-18s %14.6g %14.6g %14.6g %8.4f %6.3f%s\n", w, e.Name, median(xs), q1, q3, spread, e.Bound, flag)
		}
	}
	return code
}

// compareFiles compares two result files of the top-level command. It refuses
// files taken on different core counts. Figures that must repeat exactly are
// compared exactly when the seeds match; end-to-end metrics are compared
// against their bounds.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: run from the repository root:", err)
		return 1
	}
	var a, b resultFile
	for _, f := range []struct {
		path string
		into *resultFile
	}{{oldPath, &a}, {newPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", f.path, err)
			return 1
		}
	}
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Fprintf(stderr, "benchmark: refusing to compare: %s was taken on %d cores (GOMAXPROCS %d), %s on %d (GOMAXPROCS %d)\n",
			oldPath, a.Env.NumCPU, a.Env.GOMAXPROCS, newPath, b.Env.NumCPU, b.Env.GOMAXPROCS)
		return 1
	}
	code := 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Traced != rb.Traced {
				continue
			}
			if ra.Seed == rb.Seed {
				for name, va := range ra.Determinism {
					// The plane's concurrent mode makes no such promise.
					if vb, ok := rb.Determinism[name]; ok && va != vb && ra.Workload != wlFleetPart2 {
						fmt.Fprintf(stdout, "%-14s %-32s %v != %v  NOT REPEATED\n", ra.Workload, name, va, vb)
						code = 1
					}
				}
			}
			if ra.Traced {
				continue
			}
			for _, e := range spec.EndToEnd {
				va, vb := ra.Outcome.Metrics[e.Name].Value, rb.Outcome.Metrics[e.Name].Value
				w := worse(e.Better, va, vb)
				flag := ""
				if w > e.Bound {
					flag = "  WORSE THAN BOUND"
					code = 1
				}
				fmt.Fprintf(stdout, "%-14s %-18s %14.6g %14.6g %+8.4f (bound %.3f)%s\n", ra.Workload, e.Name, va, vb, w, e.Bound, flag)
			}
		}
	}
	return code
}
