// Command benchmark is the repository's benchmark: four workloads run against
// the public functions of the repo's packages, end-to-end metrics from an
// untraced run, per-layer metrics from a traced run whose timing decorators
// live in this directory. See README.md here and BENCHMARK.json at the root.
//
//	go run ./benchmark                                    every workload, untraced then traced
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   one run
//	go run ./benchmark -repeat 5                          spread of the end-to-end metrics
//	go run ./benchmark -compare old.json new.json         two result files
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

const specFile = "BENCHMARK.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: all, one child process each)")
	seed := fs.Int64("seed", 2012, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 installs the timing decorators and reports per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the untraced set this many times on consecutive seeds and report the spread")
	compare := fs.Bool("compare", false, "compare the two result files given as arguments")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for trace and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *workload != "" {
		if *seconds <= 0 {
			*seconds = 20
		}
		o, err := runWorkload(*workload, *seed, *seconds, *trace != 0, *outDir, fullSizes)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if err := printRun(stdout, o, *workload, *seed, *trace != 0); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !o.Correct {
			return 1
		}
		return 0
	}
	spec, err := readSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: run from the repository root:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *repeat > 0 {
		return repeatRuns(spec, *repeat, *seed, *seconds, *outDir, stdout, stderr)
	}
	return runAll(*seed, *seconds, *outDir, stdout, stderr)
}

// sizes carries every workload's shape, so that the smoke test can run the
// same code at toy size.
type sizes struct {
	FleetSingle fleetSizes `json:"fleet-single"`
	FleetPart2  fleetSizes `json:"fleet-part2"`
	SolveLarge  solveSizes `json:"solve-large"`
	ServeIngest serveSizes `json:"serve-ingest"`
}

var fullSizes = sizes{fleetSingleSizes, fleetPart2Sizes, solveLargeSizes, serveIngestSizes}

// runWorkload runs one workload in this process and checks, after it has torn
// everything down, that no goroutine outlives it.
func runWorkload(name string, seed int64, seconds float64, traced bool, outDir string, sz sizes) (*outcome, error) {
	base := runtime.NumGoroutine()
	var o *outcome
	var err error
	switch {
	case name == wlFleetSingle && traced:
		o, err = runFleetTraced(name, seed, sz.FleetSingle, seconds, outDir)
	case name == wlFleetSingle:
		o, err = runFleet(seed, sz.FleetSingle, seconds)
	case name == wlFleetPart2 && traced:
		o, err = runFleetTraced(name, seed, sz.FleetPart2, seconds, outDir)
	case name == wlFleetPart2:
		o, err = runFleet(seed, sz.FleetPart2, seconds)
	case name == wlSolveLarge && traced:
		o, err = runSolveTraced(name, seed, sz.SolveLarge, seconds, outDir)
	case name == wlSolveLarge:
		o, err = runSolve(seed, sz.SolveLarge, seconds)
	case name == wlServeIngest:
		o, err = runServe(name, seed, sz.ServeIngest, seconds, traced, outDir)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := waitGoroutines(base); err != nil {
		o.fail("%v", err)
	}
	if traced {
		o.finish(perLayer)
	} else {
		o.finish(endToEnd)
	}
	return o, nil
}

const determinismPrefix = "determinism: "

// printRun prints one run: header, metrics, the figures that must repeat
// exactly, and the contract line last.
func printRun(w io.Writer, o *outcome, workload string, seed int64, traced bool) error {
	env, _ := json.Marshal(readEnv())
	fmt.Fprintf(w, "environment: %s\n", env)
	sz, _ := json.Marshal(fullSizes)
	fmt.Fprintf(w, "sizes: %s\n", sz)
	det, _ := json.Marshal(o.determinism)
	fmt.Fprintf(w, "%s%s\n", determinismPrefix, det)
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	return o.print(w, fmt.Sprintf("%s seed=%d %s", workload, seed, mode))
}

// runRecord is one child's result as the parent keeps it.
type runRecord struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Seed        int64              `json:"seed"`
	Outcome     outcome            `json:"outcome"`
	Determinism map[string]float64 `json:"determinism"`
}

// resultFile is what the top-level command writes for -compare.
type resultFile struct {
	Env     envHeader   `json:"environment"`
	Seconds float64     `json:"seconds"`
	Sizes   sizes       `json:"sizes"`
	Runs    []runRecord `json:"runs"`
}

// child runs one workload in a child process of this binary, so that heap
// size, GC pacing and leftover goroutines of one workload cannot reach the
// next one's numbers. The child's output is passed through.
func child(workload string, seed int64, seconds float64, traced bool, outDir string, stdout, stderr io.Writer) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t, "--out", outDir)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	rec := &runRecord{Workload: workload, Traced: traced, Seed: seed}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, determinismPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &rec.Determinism); err != nil {
				return nil, fmt.Errorf("%s: determinism line: %w", workload, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Outcome); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return rec, nil
}

// runAll runs the four workloads sequentially, untraced then traced, and
// writes results.json. It returns non-zero if any run failed a check.
func runAll(seed int64, seconds float64, outDir string, stdout, stderr io.Writer) int {
	res := resultFile{Env: readEnv(), Seconds: seconds, Sizes: fullSizes}
	code := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloadNames {
			rec, err := child(w, seed, seconds, traced, outDir, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !rec.Outcome.Correct {
				code = 1
			}
			res.Runs = append(res.Runs, *rec)
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", filepath.Join(outDir, "results.json"))
	return code
}
