package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: grefar
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSlotDecision/beta=0-16         	  949004	      1150 ns/op	     728 B/op	       7 allocs/op
BenchmarkSlotDecision/beta=100-16       	  353619	      3396 ns/op	     896 B/op	       9 allocs/op
BenchmarkSlotDecision/beta=100-16       	  347372	      3425 ns/op	     896 B/op	       9 allocs/op
BenchmarkSlotDecision/beta=100-warm-16  	  529323	      2219 ns/op	     896 B/op	       9 allocs/op
BenchmarkDistributedSlot-16             	    8204	    146000 ns/op	   52000 B/op	     310 allocs/op
PASS
ok  	grefar	20.592s
`

func TestParseBench(t *testing.T) {
	got, env, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Env{"linux", "amd64", "Intel(R) Xeon(R) CPU @ 2.10GHz", 16, runtime.Version()}); env != want {
		t.Errorf("env = %+v, want %+v", env, want)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	// GOMAXPROCS suffix must be stripped.
	cold, ok := got["BenchmarkSlotDecision/beta=100"]
	if !ok {
		t.Fatalf("beta=100 missing (suffix not stripped?): %v", got)
	}
	// Two repetitions: the faster one wins.
	if cold.NsPerOp != 3396 {
		t.Errorf("beta=100 ns/op = %v, want fastest repetition 3396", cold.NsPerOp)
	}
	if cold.BytesPerOp != 896 || cold.AllocsPerOp != 9 {
		t.Errorf("beta=100 mem = %v B/op %v allocs/op, want 896/9", cold.BytesPerOp, cold.AllocsPerOp)
	}
	if _, ok := got["BenchmarkDistributedSlot"]; !ok {
		t.Errorf("top-level benchmark missing: %v", got)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, _, err := parseBench(strings.NewReader("PASS\nok grefar 1s\n")); err == nil {
		t.Fatal("want error on input with no benchmark lines")
	}
}

func TestCompareGuard(t *testing.T) {
	guard := regexp.MustCompile(`^BenchmarkSlotDecision/beta=100`)
	baseline := map[string]Result{
		"BenchmarkSlotDecision/beta=100":      {NsPerOp: 3000, AllocsPerOp: 9},
		"BenchmarkSlotDecision/beta=100-warm": {NsPerOp: 2000, AllocsPerOp: 9},
		"BenchmarkDistributedSlot":            {NsPerOp: 100000, AllocsPerOp: 300},
		"BenchmarkOnlyInBaseline":             {NsPerOp: 1},
	}

	t.Run("within budget", func(t *testing.T) {
		current := map[string]Result{
			"BenchmarkSlotDecision/beta=100":      {NsPerOp: 3300, AllocsPerOp: 9},
			"BenchmarkSlotDecision/beta=100-warm": {NsPerOp: 1900, AllocsPerOp: 9},
			"BenchmarkDistributedSlot":            {NsPerOp: 500000, AllocsPerOp: 300}, // unguarded: warn only
		}
		var sb strings.Builder
		if bad := compare(&sb, baseline, current, guard, 0.15); len(bad) != 0 {
			t.Fatalf("unexpected regressions: %v\n%s", bad, sb.String())
		}
		if !strings.Contains(sb.String(), "warn") {
			t.Errorf("unguarded 5x regression should warn:\n%s", sb.String())
		}
	})

	t.Run("ns regression fails", func(t *testing.T) {
		current := map[string]Result{
			"BenchmarkSlotDecision/beta=100": {NsPerOp: 3600, AllocsPerOp: 9},
		}
		var sb strings.Builder
		bad := compare(&sb, baseline, current, guard, 0.15)
		if len(bad) != 1 || bad[0].metric != "ns/op" {
			t.Fatalf("want exactly one ns/op regression, got %v", bad)
		}
	})

	t.Run("one allocation is rounding", func(t *testing.T) {
		base := map[string]Result{"BenchmarkSlotDecision/beta=100": {NsPerOp: 3000, AllocsPerOp: 2}}
		var sb strings.Builder
		if bad := compare(&sb, base, map[string]Result{"BenchmarkSlotDecision/beta=100": {NsPerOp: 3000, AllocsPerOp: 3}}, guard, 0.15); len(bad) != 0 {
			t.Fatalf("2 -> 3 allocs/op flagged: %v", bad)
		}
		if bad := compare(&sb, base, map[string]Result{"BenchmarkSlotDecision/beta=100": {NsPerOp: 3000, AllocsPerOp: 4}}, guard, 0.15); len(bad) != 1 {
			t.Fatalf("2 -> 4 allocs/op not flagged: %v", bad)
		}
	})

	t.Run("alloc regression fails", func(t *testing.T) {
		current := map[string]Result{
			"BenchmarkSlotDecision/beta=100-warm": {NsPerOp: 2000, AllocsPerOp: 12},
		}
		var sb strings.Builder
		bad := compare(&sb, baseline, current, guard, 0.15)
		if len(bad) != 1 || bad[0].metric != "allocs/op" {
			t.Fatalf("want exactly one allocs/op regression, got %v", bad)
		}
	})
}

func TestRunOutAndCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_slot.json")

	var out strings.Builder
	if err := run(strings.NewReader(sampleBench), &out, []string{"-out", path}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]Result
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatalf("written baseline is not valid JSON: %v", err)
	}
	if _, ok := decoded[envKey]; !ok || len(decoded) != 5 {
		t.Fatalf("baseline has %d entries, want 4 benchmarks and %s", len(decoded), envKey)
	}

	// The same run compared against its own baseline must pass.
	out.Reset()
	if err := run(strings.NewReader(sampleBench), &out, []string{"-compare", path}); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out.String())
	}

	// A slowed-down run must fail the guard.
	slow := strings.ReplaceAll(sampleBench, "3396 ns/op", "9396 ns/op")
	slow = strings.ReplaceAll(slow, "3425 ns/op", "9425 ns/op")
	out.Reset()
	if err := run(strings.NewReader(slow), &out, []string{"-compare", path}); err == nil {
		t.Fatalf("3x slower guarded benchmark passed compare:\n%s", out.String())
	}
}

// TestEnvRecordedAndGuarded: -out writes the box under "_env", -compare reads
// it back and prints both sides, a run at another GOMAXPROCS is refused before
// any number is compared, and a baseline from before the key still loads.
func TestEnvRecordedAndGuarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(strings.NewReader(sampleBench), &strings.Builder{}, []string{"-out", path}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Env Env `json:"_env"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if want := (Env{"linux", "amd64", "Intel(R) Xeon(R) CPU @ 2.10GHz", 16, runtime.Version()}); file.Env != want {
		t.Errorf("recorded env = %+v, want %+v", file.Env, want)
	}

	var out strings.Builder
	if err := run(strings.NewReader(sampleBench), &out, []string{"-compare", path}); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "GOMAXPROCS=16"); n != 2 {
		t.Errorf("compare printed %d envs at GOMAXPROCS=16, want this run's and the baseline's:\n%s", n, out.String())
	}
	if strings.Contains(out.String(), envKey) {
		t.Errorf("%s was compared as a benchmark:\n%s", envKey, out.String())
	}

	// Same numbers, another box: -4 instead of -16, and none at all (GOMAXPROCS=1).
	for _, suffix := range []string{"-4 ", " "} {
		out.Reset()
		err := run(strings.NewReader(strings.ReplaceAll(sampleBench, "-16 ", suffix)), &out, []string{"-compare", path})
		if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Errorf("suffix %q: err = %v, want a GOMAXPROCS refusal\n%s", suffix, err, out.String())
		}
		if strings.Contains(out.String(), "ns/op") {
			t.Errorf("suffix %q: numbers were compared before the refusal:\n%s", suffix, out.String())
		}
	}

	// A baseline recorded before the key existed has no box to disagree with.
	old := filepath.Join(t.TempDir(), "BENCH_old.json")
	if err := os.WriteFile(old, []byte(`{"BenchmarkDistributedSlot": {"ns_per_op": 146000, "bytes_per_op": 52000, "allocs_per_op": 310}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(strings.NewReader(strings.ReplaceAll(sampleBench, "-16 ", "-4 ")), &out, []string{"-compare", old}); err != nil {
		t.Fatalf("compare against a baseline without %s: %v\n%s", envKey, err, out.String())
	}
	if !strings.Contains(out.String(), "env not recorded") || !strings.Contains(out.String(), "BenchmarkDistributedSlot") {
		t.Errorf("baseline without %s: want the note and the comparison:\n%s", envKey, out.String())
	}
}

func TestRunNeedsAction(t *testing.T) {
	if err := run(strings.NewReader(sampleBench), &strings.Builder{}, nil); err == nil {
		t.Fatal("want error when neither -out nor -compare is given")
	}
}

func TestRunFilter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_filtered.json")

	var out strings.Builder
	if err := run(strings.NewReader(sampleBench), &out,
		[]string{"-out", path, "-filter", `^BenchmarkSlotDecision/`}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]Result
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if delete(decoded, envKey); len(decoded) != 3 {
		t.Fatalf("filtered baseline has %d entries, want 3: %v", len(decoded), decoded)
	}
	if _, ok := decoded["BenchmarkDistributedSlot"]; ok {
		t.Error("filtered-out benchmark recorded anyway")
	}

	// A filtered compare ignores regressions outside the filter.
	slow := strings.ReplaceAll(sampleBench, "146000 ns/op", "946000 ns/op")
	out.Reset()
	if err := run(strings.NewReader(slow), &out,
		[]string{"-compare", path, "-filter", `^BenchmarkSlotDecision/`}); err != nil {
		t.Fatalf("filtered self-compare failed: %v\n%s", err, out.String())
	}

	// Filters that match nothing or fail to compile are errors.
	if err := run(strings.NewReader(sampleBench), &strings.Builder{},
		[]string{"-out", path, "-filter", "^BenchmarkNoSuch"}); err == nil {
		t.Fatal("empty filter result accepted")
	}
	if err := run(strings.NewReader(sampleBench), &strings.Builder{},
		[]string{"-out", path, "-filter", "("}); err == nil {
		t.Fatal("invalid filter regexp accepted")
	}
}
