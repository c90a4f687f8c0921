// Command benchjson converts `go test -bench` output into a stable JSON
// baseline and guards later runs against it.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSlotDecision$|BenchmarkDistributedSlot$' \
//	        -benchmem -count=3 . | benchjson -out BENCH_slot.json
//	go test ... | benchjson -compare BENCH_slot.json -max-regress 0.15
//
// Benchmark names are recorded with the -GOMAXPROCS suffix stripped, so one
// name means one benchmark on every box. With -count > 1 the fastest
// repetition per benchmark is kept: ns/op noise is one-sided (scheduling and
// thermal jitter only ever slow a run down), so the minimum is the most
// reproducible summary.
//
// The box itself goes under the reserved "_env" key: the goos:, goarch: and
// cpu: lines `go test` prints, the GOMAXPROCS the name suffix carried, and
// this toolchain's version. -compare prints both sides' env and refuses —
// nonzero exit — to compare runs taken at different GOMAXPROCS, whose
// wire-bound numbers mean different things; a baseline recorded before the
// key existed still loads and is compared as before.
//
// In -compare mode the exit status is nonzero when any benchmark matching
// -guard (default: the beta=100 and large-instance slot-decision cases and
// the whole-slot engine step, the solver hot paths) regresses more than
// -max-regress in ns/op or allocs/op against the recorded baseline. Other
// shared benchmarks are reported but do not fail the run, and benchmarks
// present on only one side are ignored.
//
// -filter restricts the parsed results to names matching a regexp before
// anything else happens — useful for recording or guarding one benchmark
// family out of a wider run. An input with no matching results is an error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded performance.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Env is the box a set of results was taken on.
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (e Env) String() string {
	return fmt.Sprintf("%s/%s, %s, GOMAXPROCS=%d, %s", e.GOOS, e.GOARCH, e.CPU, e.GOMAXPROCS, e.Go)
}

// envKey is the one name in a baseline file that is not a benchmark.
const envKey = "_env"

// gomaxprocsSuffix matches the trailing -N that `go test` appends to
// benchmark names (GOMAXPROCS at run time; nothing is appended at 1).
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench reads `go test -bench` output and returns the fastest
// repetition per benchmark, keyed by name without the GOMAXPROCS suffix,
// and the box the header lines and that suffix describe.
func parseBench(r io.Reader) (map[string]Result, Env, error) {
	out := make(map[string]Result)
	env := Env{GOMAXPROCS: 1, Go: runtime.Version()}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if key, v, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "goos":
				env.GOOS = v
			case "goarch":
				env.GOARCH = v
			case "cpu":
				env.CPU = v
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if m := gomaxprocsSuffix.FindStringSubmatch(name); m != nil {
			name = strings.TrimSuffix(name, m[0])
			env.GOMAXPROCS, _ = strconv.Atoi(m[1])
		}
		var res Result
		ok := false
		// Benchmark lines are "name iters value unit value unit ...".
		for f := 2; f+1 < len(fields); f += 2 {
			v, err := strconv.ParseFloat(fields[f], 64)
			if err != nil {
				continue
			}
			switch fields[f+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if !ok {
			continue
		}
		if prev, seen := out[name]; !seen || res.NsPerOp < prev.NsPerOp {
			out[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, env, err
	}
	if len(out) == 0 {
		return nil, env, fmt.Errorf("no benchmark result lines found on input")
	}
	return out, env, nil
}

// regression describes one guarded metric exceeding the allowed slack.
type regression struct {
	name   string
	metric string
	old    float64
	new    float64
}

// compare checks current results against the baseline and returns the
// guarded regressions beyond maxRegress (a fraction, e.g. 0.15 for 15%).
// Metrics with a zero baseline are skipped: a ratio against zero is
// meaningless, and allocs/op legitimately sits at zero for some paths.
// allocs/op must also grow by more than one: `go test` truncates the
// per-op average to an integer, so a path that allocates 2.4 times a slot
// reads 2 or 3 depending on b.N, and at such counts one is not a
// regression (the allocation-budget tests hold those paths exactly).
func compare(w io.Writer, baseline, current map[string]Result, guard *regexp.Regexp, maxRegress float64) []regression {
	var bad []regression
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		if _, ok := current[name]; ok {
			names = append(names, name)
		}
	}
	sortStrings(names)
	for _, name := range names {
		old, cur := baseline[name], current[name]
		guarded := guard.MatchString(name)
		for _, m := range []struct {
			metric   string
			old, new float64
			slack    float64 // absolute growth that is never a regression
		}{
			{"ns/op", old.NsPerOp, cur.NsPerOp, 0},
			{"allocs/op", old.AllocsPerOp, cur.AllocsPerOp, 1},
		} {
			if m.old == 0 {
				continue
			}
			frac := (m.new - m.old) / m.old
			status := "ok"
			if frac > maxRegress && m.new-m.old > m.slack {
				if guarded {
					status = "FAIL"
					bad = append(bad, regression{name, m.metric, m.old, m.new})
				} else {
					status = "warn"
				}
			}
			fmt.Fprintf(w, "%-4s %-50s %-10s %12.1f -> %12.1f  (%+.1f%%)\n",
				status, name, m.metric, m.old, m.new, 100*frac)
		}
	}
	return bad
}

// sortStrings is an insertion sort; the name lists here are tiny and this
// keeps the command free of incidental imports.
func sortStrings(s []string) {
	for a := 1; a < len(s); a++ {
		for b := a; b > 0 && s[b] < s[b-1]; b-- {
			s[b], s[b-1] = s[b-1], s[b]
		}
	}
}

func run(in io.Reader, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "", "write parsed results as JSON to this file")
	comparePath := fs.String("compare", "", "baseline JSON to compare against; exit nonzero on guarded regression")
	maxRegress := fs.Float64("max-regress", 0.15, "allowed fractional regression for guarded benchmarks")
	guardExpr := fs.String("guard", `^BenchmarkSlotDecision/(beta=100|N=)|^BenchmarkEngineStep/`, "regexp of benchmark names that fail the run on regression")
	filterExpr := fs.String("filter", "", "regexp restricting which parsed benchmarks are recorded or compared (empty = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" && *comparePath == "" {
		return fmt.Errorf("nothing to do: pass -out and/or -compare")
	}
	guard, err := regexp.Compile(*guardExpr)
	if err != nil {
		return fmt.Errorf("bad -guard: %v", err)
	}
	current, env, err := parseBench(in)
	if err != nil {
		return err
	}
	if *filterExpr != "" {
		filter, err := regexp.Compile(*filterExpr)
		if err != nil {
			return fmt.Errorf("bad -filter: %v", err)
		}
		for name := range current {
			if !filter.MatchString(name) {
				delete(current, name)
			}
		}
		if len(current) == 0 {
			return fmt.Errorf("-filter %q matched no benchmark results", *filterExpr)
		}
	}
	if *outPath != "" {
		// json.Marshal emits map keys in sorted order, so the committed
		// baseline diffs cleanly.
		file := map[string]any{envKey: env}
		for name, res := range current {
			file[name] = res
		}
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmark results to %s\n", len(current), *outPath)
	}
	if *comparePath != "" {
		buf, err := os.ReadFile(*comparePath)
		if err != nil {
			return err
		}
		// Two passes over one file: the env object decodes as an empty
		// Result in the first and is dropped, the results are skipped in the
		// second.
		baseline := make(map[string]Result)
		var recorded struct {
			Env *Env `json:"_env"`
		}
		if err := json.Unmarshal(buf, &baseline); err != nil {
			return fmt.Errorf("%s: %v", *comparePath, err)
		}
		if err := json.Unmarshal(buf, &recorded); err != nil {
			return fmt.Errorf("%s: %v", *comparePath, err)
		}
		delete(baseline, envKey)
		fmt.Fprintf(out, "this run: %v\n", env)
		if recorded.Env == nil {
			fmt.Fprintf(out, "baseline: env not recorded\n")
		} else {
			fmt.Fprintf(out, "baseline: %v\n", *recorded.Env)
			if recorded.Env.GOMAXPROCS != env.GOMAXPROCS {
				return fmt.Errorf("%s was taken at GOMAXPROCS=%d, this run at %d: not comparable",
					*comparePath, recorded.Env.GOMAXPROCS, env.GOMAXPROCS)
			}
		}
		if bad := compare(out, baseline, current, guard, *maxRegress); len(bad) > 0 {
			for _, r := range bad {
				fmt.Fprintf(out, "regression: %s %s %.1f -> %.1f exceeds %.0f%% budget\n",
					r.name, r.metric, r.old, r.new, 100**maxRegress)
			}
			return fmt.Errorf("%d guarded benchmark metric(s) regressed beyond %.0f%%", len(bad), 100**maxRegress)
		}
		fmt.Fprintf(out, "no guarded regressions against %s\n", *comparePath)
	}
	return nil
}

func main() {
	if err := run(os.Stdin, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
