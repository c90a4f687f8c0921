package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"grefar/internal/model"
	"grefar/internal/queue"
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

// TestGreedyThresholdIsStrict pins the paper's threshold rule at its edge:
// a site processes type j on server type k only while q_{i,j}/d_j >
// V*phi_i*p_k/s_k, so at exact equality it processes nothing. Here the
// pricey server's density V*phi*p/s = 1*1.5*2/1 = 3 equals q/d = 6/2.
func TestGreedyThresholdIsStrict(t *testing.T) {
	c := &model.Cluster{
		DataCenters: []model.DataCenter{{Name: "dc", Servers: []model.ServerType{
			{Name: "cheap", Speed: 1, Power: 1},
			{Name: "pricey", Speed: 1, Power: 2},
		}}},
		JobTypes: []model.JobType{{Name: "j", Demand: 2, Eligible: []int{0}}},
		Accounts: []model.Account{{Name: "a", Weight: 1}},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	q := queue.Lengths{Central: []float64{0}, Local: [][]float64{{6}}}
	for _, tc := range []struct {
		name  string
		cheap float64 // cheap servers available
		want  float64 // jobs processed
	}{
		// Only the server at the threshold: nothing.
		{"at-threshold", 0, 0},
		// One cheap server (1 work unit, half a job), then the threshold.
		{"cheap-then-threshold", 1, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := model.NewState(c)
			st.Price[0] = 1.5
			st.Avail[0][0], st.Avail[0][1] = tc.cheap, 10
			g, err := New(c, Config{V: 1})
			if err != nil {
				t.Fatal(err)
			}
			act, err := g.Decide(0, st, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := act.Process[0][0]; got != tc.want {
				t.Errorf("processed %v jobs, want %v", got, tc.want)
			}
			if act.Busy[0][1] != 0 {
				t.Errorf("%v servers busy at the threshold price, want 0", act.Busy[0][1])
			}
		})
	}
}

// TestGreedySegmentExhaustedAtEpsilon pins the exchange's exhaustion test: a
// capacity segment left with exactly 1e-15 work units counts as used up, so
// the next job takes nothing from it.
func TestGreedySegmentExhaustedAtEpsilon(t *testing.T) {
	w, eps := 2e-15, 1e-15 // variables: the sum must round at run time
	capacity := w + eps
	if capacity-w != 1e-15 {
		t.Fatalf("test setup: %v - %v leaves %v, not 1e-15", capacity, w, capacity-w)
	}
	segs := []segment{{serverType: 0, cap: capacity, density: 0, speed: 1}}
	jobs := []jobDemand{
		{job: 0, work: w, density: 2, demand: 1},
		{job: 1, work: 1, density: 1, demand: 1},
	}
	h, b := make([]float64, 2), make([]float64, 1)
	greedyExchange(segs, jobs, h, b, 0)
	if h[0] != w || h[1] != 0 || b[0] != w {
		t.Errorf("h = %v, b = %v; want h = [%v 0], b = [%v]", h, b, w, w)
	}
}
