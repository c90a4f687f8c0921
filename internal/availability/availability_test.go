package availability

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"grefar/internal/model"
	"grefar/internal/workload"
)

func TestStaticProcess(t *testing.T) {
	s := &Static{Avail: [][]float64{{5}, {7}}}
	if s.At(0)[0][0] != 5 || s.At(99)[1][0] != 7 {
		t.Error("static availability not static")
	}
}

func TestTraceWrap(t *testing.T) {
	tr := &Trace{Values: [][][]float64{{{1}}, {{2}}}}
	if tr.At(0)[0][0] != 1 || tr.At(3)[0][0] != 2 || tr.At(-1)[0][0] != 2 {
		t.Error("wrap-around broken")
	}
	if (&Trace{}).At(0) != nil {
		t.Error("empty trace should return nil")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestGenerateValidation(t *testing.T) {
	c := model.NewReferenceCluster()
	rng := rand.New(rand.NewSource(1))
	p := ReferenceParams()
	if _, err := Generate(rng, c, 0, p); err == nil {
		t.Error("zero length accepted")
	}
	bad := ReferenceParams()
	bad.Base = bad.Base[:1]
	if _, err := Generate(rng, c, 5, bad); err == nil {
		t.Error("wrong base shape accepted")
	}
	bad = ReferenceParams()
	bad.Base[0][0] = -1
	if _, err := Generate(rng, c, 5, bad); err == nil {
		t.Error("negative base accepted")
	}
	bad = ReferenceParams()
	bad.InteractiveShare = 1.0
	if _, err := Generate(rng, c, 5, bad); err == nil {
		t.Error("interactive share 1.0 accepted")
	}
	bad = ReferenceParams()
	bad.DiurnalDepth = 2
	if _, err := Generate(rng, c, 5, bad); err == nil {
		t.Error("diurnal depth 2 accepted")
	}
	bad = ReferenceParams()
	bad.Jitter = -1
	if _, err := Generate(rng, c, 5, bad); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestGenerateBoundsAndFloor(t *testing.T) {
	c := model.NewReferenceCluster()
	tr, err := NewReferenceAvailability(99, c, 24*100)
	if err != nil {
		t.Fatal(err)
	}
	p := ReferenceParams()
	for t2 := 0; t2 < tr.Len(); t2++ {
		a := tr.At(t2)
		for i := range a {
			for k, v := range a[i] {
				base := p.Base[i][k]
				if v < p.MinShare*base-1e-9 {
					t.Fatalf("slot %d dc %d: availability %v below floor %v", t2, i, v, p.MinShare*base)
				}
				if v > base+1e-9 {
					t.Fatalf("slot %d dc %d: availability %v above base %v", t2, i, v, base)
				}
			}
		}
	}
}

func TestGenerateDiurnalDip(t *testing.T) {
	// Afternoon availability should be lower on average than night
	// availability (interactive workloads peak during the day).
	c := model.NewReferenceCluster()
	tr, err := NewReferenceAvailability(7, c, 24*200)
	if err != nil {
		t.Fatal(err)
	}
	var night, day float64
	for d := 0; d < 200; d++ {
		night += tr.At(24*d + 4)[0][0]
		day += tr.At(24*d + 16)[0][0]
	}
	if day >= night {
		t.Errorf("day availability %v should be below night %v", day, night)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := model.NewReferenceCluster()
	a, err := NewReferenceAvailability(3, c, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReferenceAvailability(3, c, 50)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < 50; t2++ {
		av, bv := a.At(t2), b.At(t2)
		for i := range av {
			for k := range av[i] {
				if av[i][k] != bv[i][k] {
					t.Fatalf("same seed differs at %d/%d/%d", t2, i, k)
				}
			}
		}
	}
}

func TestPeakWork(t *testing.T) {
	c := model.NewReferenceCluster()
	// 18*1 + 11*4 + 11*1 + 6*3 + 12*1 + 6*2 + 9*1 + 5*2 = 134.
	if got := PeakWork(c); math.Abs(got-134) > 1e-12 {
		t.Errorf("PeakWork = %v, want 134", got)
	}
	// Structural slackness: even the worst-case arrival burst fits inside
	// the reference availability floor, so the realized sample path always
	// satisfies condition (22).
	p := ReferenceParams()
	var floor float64
	for i, row := range p.Base {
		for k, b := range row {
			floor += b * p.MinShare * c.DataCenters[i].Servers[k].Speed
		}
	}
	if floor <= PeakWork(c) {
		t.Errorf("availability floor %v does not cover worst-case arrivals %v", floor, PeakWork(c))
	}
}

func TestReferenceSatisfiesSlackness(t *testing.T) {
	// The reference availability must satisfy the capacity slackness
	// condition against the realized reference arrivals — the prerequisite
	// of Theorem 1. (Uses the same seeds as sim.NewReferenceInputs.)
	c := model.NewReferenceCluster()
	tr, err := NewReferenceAvailability(2012+2, c, 24*500)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.NewReferenceWorkload(2012+1, c, 24*500)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]float64, wl.Len())
	for t2 := range work {
		work[t2] = wl.TotalWork(c, t2)
	}
	margin, err := VerifySlackness(c, tr, work, 1.0)
	if err != nil {
		t.Fatalf("slackness violated: %v", err)
	}
	if margin < 1.0 {
		t.Errorf("margin = %v, want >= 1", margin)
	}
}

func TestVerifySlacknessDetectsViolation(t *testing.T) {
	c := model.NewReferenceCluster()
	tiny := &Static{Avail: [][]float64{{1}, {1}, {1}}}
	if _, err := VerifySlackness(c, tiny, []float64{50, 50}, 1.0); err == nil {
		t.Error("undersized system passed slackness check")
	}
}

func TestAvailabilityReadCSV(t *testing.T) {
	c := model.NewReferenceCluster()
	in := "a,b,c\n10,20,30\n11,21,31\n"
	tr, err := ReadCSV(strings.NewReader(in), c)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.At(1)[2][0] != 31 {
		t.Errorf("At(1)[2][0] = %v, want 31", tr.At(1)[2][0])
	}
	for _, bad := range []string{"", "a,b,c\n", "a,b\n1,2\n", "a,b,c\n1,2\n", "a,b,c\nx,2,3\n", "a,b,c\n-1,2,3\n"} {
		if _, err := ReadCSV(strings.NewReader(bad), c); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

// TestGenerateRowsMatchPerSlotBuild holds the generator, whose rows share one
// backing array and whose claim is tabulated by hour, to the per-slot build
// it replaced, bit for bit, on sites with one, two and three server types.
// Each row's capacity ends at its length, so appending to one cannot write
// into the next.
func TestGenerateRowsMatchPerSlotBuild(t *testing.T) {
	c := model.NewReferenceCluster()
	c.DataCenters[0].Servers = append(c.DataCenters[0].Servers, c.DataCenters[0].Servers[0])
	c.DataCenters[2].Servers = append(c.DataCenters[2].Servers, c.DataCenters[2].Servers[0], c.DataCenters[2].Servers[0])
	p := ReferenceParams()
	p.Base = [][]float64{{55, 20}, {72}, {50, 10, 5}}
	got, err := Generate(rand.New(rand.NewSource(9)), c, 60, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for tt := 0; tt < 60; tt++ {
		day := -math.Cos(2 * math.Pi * (float64(tt%24) - 4) / 24)
		for i, row := range got.At(tt) {
			if len(row) != c.K(i) || cap(row) != c.K(i) {
				t.Fatalf("slot %d site %d: len %d cap %d, want %d", tt, i, len(row), cap(row), c.K(i))
			}
			for k, v := range row {
				share := 1 - p.InteractiveShare*(1+p.DiurnalDepth*day)
				share *= 1 + p.Jitter*rng.NormFloat64()
				share = math.Min(math.Max(share, p.MinShare), 1)
				if want := p.Base[i][k] * share; math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("slot %d site %d type %d: %v, per-slot build gives %v", tt, i, k, v, want)
				}
			}
		}
	}
}
