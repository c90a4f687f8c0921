package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"grefar/internal/model"
	"grefar/internal/queue"
)

// referenceRouting is decideRouting as it first stood, fully sorting every
// candidate list: site indices ordered by an insertion sort that reads
// the backlogs through q.Local. It is the oracle TestRoutingMatchesReference
// holds the production routing to.
func referenceRouting(c *model.Cluster, rule RoutingRule, q queue.Lengths) [][]int {
	route := model.NewAction(c).Route
	for j := 0; j < c.J(); j++ {
		jt := c.JobTypes[j]
		qj := q.Central[j]
		available := int(qj)
		if available <= 0 {
			continue
		}
		var order []int
		for _, i := range jt.Eligible {
			if q.Local[i][j] < qj {
				order = append(order, i)
			}
		}
		for a := 1; a < len(order); a++ {
			for b := a; b > 0; b-- {
				qa, qb := q.Local[order[b]][j], q.Local[order[b-1]][j]
				if qa > qb || (qa == qb && order[b] > order[b-1]) {
					break
				}
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		budget := routeBudgetFor(&jt)
		for a := 0; a < len(order) && available > 0; {
			b := a + 1
			for b < len(order) && q.Local[order[b]][j] == q.Local[order[a]][j] {
				b++
			}
			group := order[a:b]
			if rule == FirstSiteWins {
				group = group[:1]
			}
			for g, remaining := 0, available; g < len(group); g++ {
				share := remaining / len(group)
				if g < remaining%len(group) {
					share++
				}
				if share > budget {
					share = budget
				}
				route[group[g]][j] = share
				available -= share
			}
			a = b
		}
	}
	return route
}

// routingCluster builds n one-server sites and one job type per entry of
// eligible, each eligible at that many sites listed in shuffled (unsorted)
// order, with maxRoute[j%len(maxRoute)] as its routing bound.
func routingCluster(tb testing.TB, rng *rand.Rand, n int, eligible, maxRoute []int) *model.Cluster {
	tb.Helper()
	c := &model.Cluster{Accounts: []model.Account{{Name: "a", Weight: 1}}}
	for i := 0; i < n; i++ {
		c.DataCenters = append(c.DataCenters, model.DataCenter{
			Name:    fmt.Sprintf("dc%d", i),
			Servers: []model.ServerType{{Speed: 1, Power: 1}},
		})
	}
	for j, e := range eligible {
		c.JobTypes = append(c.JobTypes, model.JobType{
			Name:     fmt.Sprintf("t%d", j),
			Demand:   1,
			Eligible: rng.Perm(n)[:e],
			MaxRoute: maxRoute[j%len(maxRoute)],
		})
	}
	if err := c.Validate(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// tiedLengths draws integer backlogs from [0, levels): with levels far below
// the site count nearly every site shares its backlog with many others, so
// the order within tie groups — and the even split across them — is decided
// by the site-index tie-break alone.
func tiedLengths(rng *rand.Rand, c *model.Cluster, levels int) queue.Lengths {
	l := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for j := range l.Central {
		// Sometimes below every backlog level, sometimes above all of them,
		// sometimes fewer jobs than candidate sites.
		l.Central[j] = float64(rng.Intn(3 * levels))
		if rng.Intn(4) == 0 {
			l.Central[j] = float64(levels + rng.Intn(50*c.N()))
		}
	}
	for i := range l.Local {
		l.Local[i] = make([]float64, c.J())
		for j := range l.Local[i] {
			l.Local[i][j] = float64(rng.Intn(levels))
		}
	}
	return l
}

// TestRoutingMatchesReference requires decideRouting to produce exactly the
// Route matrix of the insertion-sort reference: eligible-set sizes from one
// site to the whole fleet, unsorted Eligible lists, heavy ties, both tie
// rules, and MaxRoute both unbounded (the least-backlogged tie group takes
// everything) and bounded (the heap serves the groups after it).
func TestRoutingMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 20, 500, 1, 2, 20, 500}
	maxRoutes := []int{0, 0, 0, 0, 3, 3, 3, 3}
	for _, rule := range []RoutingRule{SplitTies, FirstSiteWins} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := routingCluster(t, rng, 500, sizes, maxRoutes)
			g, err := New(c, Config{V: 1, Routing: rule})
			if err != nil {
				t.Fatal(err)
			}
			for _, levels := range []int{1, 2, 5, 40, 100000} {
				for rep := 0; rep < 8; rep++ {
					q := tiedLengths(rng, c, levels)
					act := model.NewAction(c)
					g.decideRouting(q, act)
					if want := referenceRouting(c, rule, q); !reflect.DeepEqual(act.Route, want) {
						t.Fatalf("rule %d seed %d levels %d rep %d: Route differs from the insertion-sort reference", rule, seed, levels, rep)
					}
				}
			}
		}
	}
}

// TestRoutingDoesNotAllocate pins the other half of the contract: routing
// over a 500-site candidate list costs no allocation, with the first tie
// group taking everything and with a bound sending it through the heap.
func TestRoutingDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := routingCluster(t, rng, 500, []int{20, 500, 20, 500}, []int{0, 0, 3, 3})
	g, err := New(c, Config{V: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := tiedLengths(rng, c, 40)
	for j := range q.Central {
		q.Central[j] = 1e6 // every site is a candidate
	}
	act := model.NewAction(c)
	if got := testing.AllocsPerRun(50, func() { g.decideRouting(q, act) }); got != 0 {
		t.Errorf("decideRouting allocates %.1f times per call, want 0", got)
	}
}

// BenchmarkDecideRouting measures the routing half of a slot decision at the
// two candidate-list lengths the tracked workloads have: 20 sites per job
// type (solve-large: N=200, J=100, striped placement) and 500 (the hollow
// fleet: J=3, every site eligible). Backlogs are integers spread over
// [0, 400) with four in five sites below the central queue, so ties are few
// and most sites are candidates.
func BenchmarkDecideRouting(b *testing.B) {
	for _, tc := range []struct{ sites, n, j int }{{20, 200, 100}, {500, 500, 3}} {
		b.Run(fmt.Sprintf("sites=%d", tc.sites), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2012))
			eligible := make([]int, tc.j)
			for j := range eligible {
				eligible[j] = tc.sites
			}
			c := routingCluster(b, rng, tc.n, eligible, []int{0})
			g, err := New(c, Config{V: 1})
			if err != nil {
				b.Fatal(err)
			}
			q := randomLengths(rng, c, 400)
			for j := range q.Central {
				q.Central[j] = math.Floor(300 + 100*rng.Float64())
			}
			act := model.NewAction(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.decideRouting(q, act)
			}
		})
	}
}
