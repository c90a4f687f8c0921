package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortedExchange is the reference greedy exchange: stable-sort every job by
// descending reward density, then walk the whole list. greedyExchange must
// reproduce it bit for bit.
func sortedExchange(segs []segment, jobs []jobDemand, h, b []float64, value float64) float64 {
	slices.SortStableFunc(jobs, func(x, y jobDemand) int {
		switch {
		case x.density > y.density:
			return -1
		case x.density < y.density:
			return 1
		}
		return 0
	})
	seg := 0
	for _, jd := range jobs {
		remaining := jd.work
		for remaining > 1e-15 && seg < len(segs) {
			s := &segs[seg]
			if jd.density <= s.density {
				break
			}
			take := remaining
			if take > s.cap {
				take = s.cap
			}
			h[jd.job] += take / jd.demand
			b[s.serverType] += take / s.speed
			value += take * (s.density - jd.density)
			s.cap -= take
			remaining -= take
			if s.cap <= 1e-15 {
				seg++
			}
		}
		if seg >= len(segs) {
			break
		}
	}
	return value
}

// FuzzGreedyExchange pins the lazy exchange to the sort-then-exchange
// reference on random sites: densities drawn from a few shared levels so
// ties are common, works and capacities that are sometimes below the 1e-15
// epsilon, and job indices that skip (as compact indices do). The vertex and
// the value must be bit-equal.
func FuzzGreedyExchange(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 2012} {
		f.Add(seed, uint8(9), uint8(3))
	}
	f.Add(int64(5), uint8(0), uint8(2))
	f.Add(int64(6), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nJobs, nSegs uint8) {
		rng := rand.New(rand.NewSource(seed))
		nj, ns := int(nJobs%32), int(nSegs%6)
		levels := []float64{0.25, 1, 1, 1.5, 4}
		density := func() float64 {
			if rng.Intn(3) == 0 {
				return rng.Float64() * 5
			}
			return levels[rng.Intn(len(levels))]
		}
		amount := func() float64 {
			if rng.Intn(6) == 0 {
				return rng.Float64() * 2e-15
			}
			return rng.Float64() * 40
		}
		segs := make([]segment, ns)
		for k := range segs {
			segs[k] = segment{serverType: k, cap: amount(), density: density(), speed: 0.5 + rng.Float64()*2}
		}
		sortSegsByDensity(segs)
		jobs := make([]jobDemand, nj)
		next := 0
		for x := range jobs {
			next += 1 + rng.Intn(3)
			jobs[x] = jobDemand{job: next, work: amount(), density: density(), demand: 0.5 + rng.Float64()*2}
		}
		v0 := rng.Float64() - 0.5

		wantH, wantB := make([]float64, next+1), make([]float64, ns)
		want := sortedExchange(slices.Clone(segs), slices.Clone(jobs), wantH, wantB, v0)
		gotH, gotB := make([]float64, next+1), make([]float64, ns)
		got := greedyExchange(slices.Clone(segs), slices.Clone(jobs), gotH, gotB, v0)

		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("value %v, sorted exchange %v", got, want)
		}
		for j := range wantH {
			if math.Float64bits(gotH[j]) != math.Float64bits(wantH[j]) {
				t.Fatalf("h[%d] = %v, sorted exchange %v", j, gotH[j], wantH[j])
			}
		}
		for k := range wantB {
			if math.Float64bits(gotB[k]) != math.Float64bits(wantB[k]) {
				t.Fatalf("b[%d] = %v, sorted exchange %v", k, gotB[k], wantB[k])
			}
		}
	})
}
