package workload

import (
	"math"
	"math/rand"
	"testing"

	"grefar/internal/model"
)

// TestTraceWrapReturnsStoredRow: Arrivals wraps at the end of the trace and
// hands out the stored row itself, without copying it.
func TestTraceWrapReturnsStoredRow(t *testing.T) {
	tr := &Trace{Counts: [][]int{{1, 2}, {3, 4}}}
	if got := tr.Arrivals(2); got[0] != 1 || got[1] != 2 {
		t.Errorf("wrap failed: %v", got)
	}
	if got := tr.Arrivals(-1); &got[0] != &tr.Counts[1][0] {
		t.Error("Arrivals(-1) is not the stored last row")
	}
	if n := testing.AllocsPerRun(100, func() { _ = tr.Arrivals(3) }); n != 0 {
		t.Errorf("Arrivals allocates %v times", n)
	}
	if (&Trace{}).Arrivals(0) != nil {
		t.Error("empty trace should return nil")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestGenerateValidation(t *testing.T) {
	c := model.NewReferenceCluster()
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(rng, c, 0, ReferenceProfiles()); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := Generate(rng, c, 10, ReferenceProfiles()[:3]); err == nil {
		t.Error("wrong profile count accepted")
	}
	bad := ReferenceProfiles()
	bad[0].MeanPerSlot = -1
	if _, err := Generate(rng, c, 10, bad); err == nil {
		t.Error("negative mean accepted")
	}
	bad = ReferenceProfiles()
	bad[1].DiurnalDepth = 1.5
	if _, err := Generate(rng, c, 10, bad); err == nil {
		t.Error("diurnal depth > 1 accepted")
	}
	bad = ReferenceProfiles()
	bad[2].BurstProb = 2
	if _, err := Generate(rng, c, 10, bad); err == nil {
		t.Error("burst prob > 1 accepted")
	}
}

func TestGenerateRespectsArrivalBounds(t *testing.T) {
	// Boundedness (paper eq. 1) is the only assumption the analysis makes
	// about arrivals, so it must hold unconditionally.
	c := model.NewReferenceCluster()
	tr, err := NewReferenceWorkload(42, c, 24*200)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < tr.Len(); t2++ {
		for j, a := range tr.Arrivals(t2) {
			if a < 0 {
				t.Fatalf("negative arrivals at %d,%d", t2, j)
			}
			if max := c.JobTypes[j].MaxArrival; max > 0 && a > max {
				t.Fatalf("arrivals %d exceed bound %d at slot %d job %d", a, max, t2, j)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := model.NewReferenceCluster()
	a, err := NewReferenceWorkload(7, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReferenceWorkload(7, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < 100; t2++ {
		ra, rb := a.Arrivals(t2), b.Arrivals(t2)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("same seed differs at %d,%d", t2, j)
			}
		}
	}
}

func TestGenerateDiurnalShape(t *testing.T) {
	// Afternoon (4pm) volume must comfortably exceed night (4am) volume for
	// a strongly diurnal profile, averaged over many days.
	c := model.NewReferenceCluster()
	profiles := make([]Profile, c.J())
	for j := range profiles {
		profiles[j] = Profile{MeanPerSlot: 8, DiurnalDepth: 0.8}
	}
	rng := rand.New(rand.NewSource(3))
	tr, err := Generate(rng, c, 24*300, profiles)
	if err != nil {
		t.Fatal(err)
	}
	var night, day float64
	for d := 0; d < 300; d++ {
		for _, a := range tr.Arrivals(24*d + 4) {
			night += float64(a)
		}
		for _, a := range tr.Arrivals(24*d + 16) {
			day += float64(a)
		}
	}
	if day < 2*night {
		t.Errorf("day volume %v not >> night volume %v", day, night)
	}
}

func TestAccountWorkSkew(t *testing.T) {
	// The reference workload deliberately deviates from the 40/30/15/15
	// fairness targets (org1 over-submits ~47%, org2 under-submits ~20%),
	// so that fairness-blind scheduling realizes an unfair allocation.
	c := model.NewReferenceCluster()
	tr, err := NewReferenceWorkload(2012, c, 24*400)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]float64, c.M())
	var sum float64
	for t2 := 0; t2 < tr.Len(); t2++ {
		for m, w := range tr.AccountWork(c, t2) {
			totals[m] += w
			sum += w
		}
	}
	wants := []float64{0.478, 0.207, 0.174, 0.141}
	for m, want := range wants {
		share := totals[m] / sum
		if math.Abs(share-want) > 0.06 {
			t.Errorf("account %d share = %v, want ~%v", m, share, want)
		}
	}
	// The whole point: org1's share must be well above its 40% target and
	// org2's well below its 30% target.
	if totals[0]/sum < 0.43 {
		t.Errorf("org1 share %v should exceed its 0.40 target by a margin", totals[0]/sum)
	}
	if totals[1]/sum > 0.26 {
		t.Errorf("org2 share %v should fall short of its 0.30 target", totals[1]/sum)
	}
}

func TestTotalWorkMatchesHandComputation(t *testing.T) {
	c := model.NewReferenceCluster()
	counts := make([][]int, 1)
	counts[0] = make([]int, c.J())
	counts[0][0] = 2 // demand 1
	counts[0][1] = 3 // demand 4
	tr := &Trace{Counts: counts}
	if got, want := tr.TotalWork(c, 0), 14.0; got != want {
		t.Errorf("TotalWork = %v, want %v", got, want)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rate := range []float64{0.5, 4, 25, 60} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, rate))
		}
		mean := sum / n
		if math.Abs(mean-rate) > 0.08*rate+0.05 {
			t.Errorf("poisson(%v) mean = %v", rate, mean)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive rate should yield 0")
	}
}

func TestNonStationarity(t *testing.T) {
	// With weekly drift, week-over-week volumes differ measurably.
	c := model.NewReferenceCluster()
	tr, err := NewReferenceWorkload(5, c, 24*7*4)
	if err != nil {
		t.Fatal(err)
	}
	weekly := make([]float64, 4)
	for w := 0; w < 4; w++ {
		for h := 0; h < 24*7; h++ {
			weekly[w] += tr.TotalWork(c, 24*7*w+h)
		}
	}
	var min, max = weekly[0], weekly[0]
	for _, v := range weekly {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if (max-min)/max < 0.01 {
		t.Errorf("weekly volumes suspiciously flat: %v", weekly)
	}
}
