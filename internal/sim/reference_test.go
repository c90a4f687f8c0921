package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"grefar/internal/price"
	"grefar/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/reference_env.sha256 from this build's generators")

// referenceSeeds are the seeds whose reference environments are pinned.
var referenceSeeds = []int64{2012, 31337}

const referenceHorizon = 4096

// TestReferenceWorkloadMatchesEagerTrace holds the inputs' deferred workload
// to the eager generator: every row of two horizons (the second one wraps)
// equals workload.NewReferenceWorkload's, and four goroutines racing to the
// first read all see the same trace.
func TestReferenceWorkloadMatchesEagerTrace(t *testing.T) {
	for _, seed := range referenceSeeds {
		in, err := NewReferenceInputs(seed, referenceHorizon)
		if err != nil {
			t.Fatal(err)
		}
		want, err := workload.NewReferenceWorkload(seed+1, in.Cluster, referenceHorizon)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for tt := g; tt < 2*referenceHorizon; tt += len(errs) {
					if got := in.Workload.Arrivals(tt); !slices.Equal(got, want.Arrivals(tt)) {
						errs[g] = fmt.Errorf("seed %d slot %d: arrivals %v, eager trace %v", seed, tt, got, want.Arrivals(tt))
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// TestReferenceInputsRefuseAtCall: a horizon the workload cannot have is
// refused by NewReferenceInputs itself, not at the first read.
func TestReferenceInputsRefuseAtCall(t *testing.T) {
	for _, slots := range []int{0, -1} {
		if _, err := NewReferenceInputs(2012, slots); err == nil {
			t.Errorf("horizon %d accepted", slots)
		}
	}
}

// TestReferenceInputsAllocateNothingPerSlot: building the inputs allocates
// the same at a horizon of 256 slots as at 4096. Prices and availability are
// each cut from a few arrays, and the workload is not generated until read.
func TestReferenceInputsAllocateNothingPerSlot(t *testing.T) {
	allocs := func(slots int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NewReferenceInputs(2012, slots); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(256), allocs(referenceHorizon); short != long {
		t.Errorf("NewReferenceInputs: %v allocations at 256 slots, %v at %d", short, long, referenceHorizon)
	}
}

// digestRows computes the pinned digests: SHA-256 over the little-endian
// float64 bits of the reference prices, availability and arrival counts at
// each seed, and of GenerateDiurnal under a negative phase and under periods
// other than 24 hours.
func digestRows(t *testing.T) map[string]string {
	t.Helper()
	rows := make(map[string]string)
	for _, seed := range referenceSeeds {
		in, err := NewReferenceInputs(seed, referenceHorizon)
		if err != nil {
			t.Fatal(err)
		}
		c := in.Cluster
		rows[fmt.Sprintf("seed=%d/prices", seed)] = digest(func(emit func(float64)) {
			for i := range in.Prices {
				for tt := 0; tt < referenceHorizon; tt++ {
					emit(in.Prices[i].At(tt))
				}
			}
		})
		rows[fmt.Sprintf("seed=%d/availability", seed)] = digest(func(emit func(float64)) {
			for tt := 0; tt < referenceHorizon; tt++ {
				for i, row := range in.Availability.At(tt) {
					if len(row) != c.K(i) {
						t.Fatalf("slot %d site %d: %d server types, cluster has %d", tt, i, len(row), c.K(i))
					}
					for _, v := range row {
						emit(v)
					}
				}
			}
		})
		rows[fmt.Sprintf("seed=%d/workload", seed)] = digest(func(emit func(float64)) {
			for tt := 0; tt < referenceHorizon; tt++ {
				for _, a := range in.Workload.Arrivals(tt) {
					emit(float64(a))
				}
			}
		})
	}
	for _, p := range diurnalCases {
		tr, err := price.GenerateDiurnal(rand.New(rand.NewSource(7)), p.n, p.params)
		if err != nil {
			t.Fatal(err)
		}
		rows[p.name()] = digest(func(emit func(float64)) {
			for _, v := range tr.Values {
				emit(v)
			}
		})
	}
	return rows
}

// diurnalCases run GenerateDiurnal where its daily shape is not the
// reference's: phases below zero, and by more than a period; periods of 1, 7
// and 100 hours, the last longer than the run.
var diurnalCases = []diurnalCase{
	{200, price.DiurnalParams{Mean: 0.4, Amplitude: 0.05, PhaseHours: -3, NoiseSigma: 0.05}},
	{200, price.DiurnalParams{Mean: 0.4, Amplitude: 0.05, PhaseHours: -30, PeriodHours: 7, NoiseSigma: 0.05}},
	{200, price.DiurnalParams{Mean: 0.4, Amplitude: 0.05, PhaseHours: 5, PeriodHours: 7, NoiseSigma: 0.05}},
	{200, price.DiurnalParams{Mean: 0.4, Amplitude: 0.05, PeriodHours: 1, NoiseSigma: 0.05}},
	{50, price.DiurnalParams{Mean: 0.4, Amplitude: 0.05, PhaseHours: -120, PeriodHours: 100, NoiseSigma: 0.05}},
}

type diurnalCase struct {
	n      int
	params price.DiurnalParams
}

func (p diurnalCase) name() string {
	return fmt.Sprintf("diurnal/n=%d/phase=%d/period=%d", p.n, p.params.PhaseHours, p.params.PeriodHours)
}

func digest(each func(emit func(float64))) string {
	h := sha256.New()
	var buf [8]byte
	each(func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestReferenceEnvironmentDigests pins the bits of the generated environment.
// A changed digest means a generator's output changed; regenerate with
// -update only for an intended change.
func TestReferenceEnvironmentDigests(t *testing.T) {
	path := filepath.Join("testdata", "reference_env.sha256")
	rows := digestRows(t)
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	slices.Sort(names)
	if *updateDigests {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, rows[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	pinned := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		pinned[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if pinned[name] != rows[name] {
			t.Errorf("%s: digest %s, pinned %q", name, rows[name], pinned[name])
		}
	}
	if len(pinned) != len(rows) {
		t.Errorf("%s has %d rows, the test computes %d", path, len(pinned), len(rows))
	}
}
