package price

import (
	"math"
	"math/rand"
	"testing"
)

func TestConstant(t *testing.T) {
	c := Constant(0.42)
	if c.At(0) != 0.42 || c.At(999) != 0.42 {
		t.Error("constant source not constant")
	}
}

func TestTraceWrapsAround(t *testing.T) {
	tr := &Trace{Values: []float64{1, 2, 3}}
	if tr.At(0) != 1 || tr.At(4) != 2 || tr.At(3) != 1 {
		t.Errorf("wrap-around broken: %v %v %v", tr.At(0), tr.At(4), tr.At(3))
	}
	if tr.At(-1) != 3 {
		t.Errorf("negative index: got %v, want 3", tr.At(-1))
	}
	empty := &Trace{}
	if empty.At(5) != 0 {
		t.Error("empty trace should read 0")
	}
}

func TestTraceStats(t *testing.T) {
	tr := &Trace{Values: []float64{1, 2, 3, 6}}
	mean, min, max := tr.Stats()
	if mean != 3 || min != 1 || max != 6 {
		t.Errorf("Stats = %v,%v,%v, want 3,1,6", mean, min, max)
	}
	mean, min, max = (&Trace{}).Stats()
	if mean != 0 || min != 0 || max != 0 {
		t.Error("empty Stats should be zeros")
	}
}

func TestGenerateDiurnalValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateDiurnal(rng, 0, DiurnalParams{Mean: 1}); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := GenerateDiurnal(rng, 10, DiurnalParams{Mean: 0}); err == nil {
		t.Error("zero mean accepted")
	}
	if _, err := GenerateDiurnal(rng, 10, DiurnalParams{Mean: 1, Amplitude: -1}); err == nil {
		t.Error("negative amplitude accepted")
	}
}

func TestGenerateDiurnalMeanAndPositivity(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	p := DiurnalParams{Mean: 0.45, Amplitude: 0.06, NoiseSigma: 0.015}
	tr, err := GenerateDiurnal(rng, 24*365, p)
	if err != nil {
		t.Fatal(err)
	}
	mean, min, _ := tr.Stats()
	if math.Abs(mean-0.45) > 0.02 {
		t.Errorf("mean = %v, want ~0.45", mean)
	}
	if min <= 0 {
		t.Errorf("min = %v, want positive", min)
	}
}

func TestGenerateDiurnalHasDailyCycle(t *testing.T) {
	// Without noise, the 4am price must be the daily trough and the 4pm
	// price the daily peak.
	rng := rand.New(rand.NewSource(1))
	tr, err := GenerateDiurnal(rng, 48, DiurnalParams{Mean: 0.5, Amplitude: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.At(4)-0.4) > 1e-9 {
		t.Errorf("trough price = %v, want 0.4", tr.At(4))
	}
	if math.Abs(tr.At(16)-0.6) > 1e-9 {
		t.Errorf("peak price = %v, want 0.6", tr.At(16))
	}
	// Periodicity.
	if math.Abs(tr.At(4)-tr.At(28)) > 1e-9 {
		t.Error("daily cycle not periodic")
	}
}

func TestPhaseShiftsCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, _ := GenerateDiurnal(rng, 24, DiurnalParams{Mean: 0.5, Amplitude: 0.1})
	b, _ := GenerateDiurnal(rng, 24, DiurnalParams{Mean: 0.5, Amplitude: 0.1, PhaseHours: 6})
	// b at slot t equals a at slot t+6.
	for t2 := 0; t2 < 18; t2++ {
		if math.Abs(b.At(t2)-a.At(t2+6)) > 1e-9 {
			t.Fatalf("phase shift wrong at %d: %v vs %v", t2, b.At(t2), a.At(t2+6))
		}
	}
}

func TestGenerateDiurnalDeterministic(t *testing.T) {
	a, err := NewReferenceSources(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReferenceSources(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for t2 := 0; t2 < 100; t2++ {
			if a[i].At(t2) != b[i].At(t2) {
				t.Fatalf("same seed produced different traces at %d,%d", i, t2)
			}
		}
	}
}

func TestReferenceSourcesMatchTableI(t *testing.T) {
	// Table I average prices: 0.392, 0.433, 0.548.
	srcs, err := NewReferenceSources(2012, 24*2000)
	if err != nil {
		t.Fatal(err)
	}
	wants := []float64{0.392, 0.433, 0.548}
	for i, want := range wants {
		mean, min, max := srcs[i].Stats()
		if math.Abs(mean-want) > 0.015 {
			t.Errorf("location %d mean = %v, want ~%v", i, mean, want)
		}
		if min <= 0 {
			t.Errorf("location %d has non-positive prices", i)
		}
		if max-min < 0.05 {
			t.Errorf("location %d barely varies (%v..%v); arbitrage needs variation", i, min, max)
		}
	}
}

func TestFloorRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr, err := GenerateDiurnal(rng, 5000, DiurnalParams{Mean: 0.2, Amplitude: 0.25, NoiseSigma: 0.1, Floor: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	_, min, _ := tr.Stats()
	if min < 0.05-1e-12 {
		t.Errorf("floor violated: min %v", min)
	}
}

// TestGenerateDiurnalShapeTable holds the tabulated daily shape to the
// per-slot cosine it replaced, bit for bit, where the table is partial: a
// negative phase (a negative hour until the first wrap), periods other than
// 24, and a period longer than the run.
func TestGenerateDiurnalShapeTable(t *testing.T) {
	cases := []struct {
		n             int
		phase, period int
	}{
		{100, 0, 24}, {100, -3, 24}, {100, -30, 7}, {100, 5, 7}, {100, 0, 1}, {50, -120, 100}, {50, 13, 100},
	}
	for _, tc := range cases {
		p := DiurnalParams{Mean: 0.4, Amplitude: 0.05, PhaseHours: tc.phase, PeriodHours: tc.period, NoiseSigma: 0.05}
		got, err := GenerateDiurnal(rand.New(rand.NewSource(3)), tc.n, p)
		if err != nil {
			t.Fatal(err)
		}
		p = p.withDefaults()
		rng := rand.New(rand.NewSource(3))
		var ou float64
		for tt, v := range got.Values {
			hour := float64((tt + p.PhaseHours) % p.PeriodHours)
			shape := -math.Cos(2 * math.Pi * (hour - 4) / float64(p.PeriodHours))
			ou += p.Reversion*(0-ou) + p.NoiseSigma*rng.NormFloat64()
			want := math.Max(p.Mean+p.Amplitude*shape+ou, p.Floor)
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("phase %d period %d slot %d: %v, per-slot cosine gives %v", tc.phase, tc.period, tt, v, want)
			}
		}
	}
}
