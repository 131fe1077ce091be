package query

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"elastichtap/internal/olap"
	"elastichtap/internal/topology"
)

// TestFusedMatchesStagedExactly pins the staged fallback's contract: for
// every kernel shape — each specialized loop, the generic fused loops,
// and the post-aggregation stages (avg, having, ordered top-k) — forcing
// the staged path must reproduce the fused result bitwise (DeepEqual on
// float64 rows is bitwise equality). The staged path only runs in
// production for shapes the fuser rejects, so without this test a drift
// in its arithmetic order would go unnoticed until such a shape appears.
func TestFusedMatchesStagedExactly(t *testing.T) {
	cat, e := newBenchCatalog(t)
	cases := []struct {
		name string
		plan *Plan
	}{
		{"filter-count-int64", Scan("bfact").
			Filter(Between("qty", 10, 40), Ge("gid", 8)).
			Agg(Count())},
		{"filter-count-float64", Scan("bfact").
			Filter(Between("amount", 20.0, 100.0)).
			Agg(Count())},
		{"filter-count-dict", Scan("bfact").
			Filter(Eq("tag", "web")).
			Agg(Count())},
		{"filter-probe-sum", Scan("bfact").
			Filter(Between("qty", 5, 45)).
			SemiJoin("bdim1", "k1", "id", Between("w", 1, 60)).
			Agg(Sum("amount").As("rev"))},
		{"filter-probe-group-sum", Scan("bfact").
			Filter(Between("qty", 5, 45)).
			Join("bdimc", "jk", "jk", "pay").
			On("k2", "k2").
			GroupBy("pay").
			Agg(Sum("amount").As("rev"))},
		{"probe-group-sum-spill", Scan("bfact").
			Join("bdimc", "jk", "jk", "pay").
			On("k2", "k2").
			GroupBy("jk", "pay").
			Agg(Sum("amount").As("rev"))},
		{"dense-group-sum-int-float", Scan("bfact").
			Filter(Between("qty", 5, 45)).
			GroupBy("gid").
			Agg(Sum("qty").As("sq"), Sum("amount").As("sa"))},
		{"avg-having-topk", Scan("bfact").
			Filter(Ge("qty", 3)).
			GroupBy("gid").
			Agg(Sum("amount").As("rev"), Avg("amount").As("avg_amt"), Count().As("n")).
			Having(Gt("rev", 100)).
			OrderBy("rev", true).
			Limit(20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := tc.plan.Bind(cat)
			if err != nil {
				t.Fatal(err)
			}
			fused := run(t, e, q)
			disableFusion.Store(true)
			defer disableFusion.Store(false)
			staged := run(t, e, q)
			if !reflect.DeepEqual(fused, staged) {
				t.Fatalf("staged result diverges from fused:\nfused:  %+v\nstaged: %+v", fused, staged)
			}
		})
	}
}

// TestOrderedMergeMatchesStaged pins the fused ordered finish — one pass
// in merge-table order with Having and a copy-on-admit top-k, no key sort
// — against the staged merge, which sorts every key and emits every row
// first. Q3- and Q18-shaped plans (many multi-key groups, revenue order)
// run across limits that cut inside, at and past the group count, with
// and without Having, on several pool sizes; the whole result, SortedRows
// included, must be DeepEqual.
func TestOrderedMergeMatchesStaged(t *testing.T) {
	cat, e := newBenchCatalog(t)
	shapes := []struct {
		name string
		plan func(having bool) *Plan
	}{
		{"q3", func(having bool) *Plan {
			p := Scan("bfact").
				Filter(Between("qty", 5, 45), Lt("k1", 20000)).
				Join("bdimc", "jk", "jk", "pay").
				On("k2", "k2").
				GroupBy("k1", "jk", "pay").
				Agg(Sum("amount").As("revenue"), Count().As("n"))
			if having {
				p = p.Having(Gt("revenue", 150.0))
			}
			return p.OrderBy("revenue", true)
		}},
		{"q18", func(having bool) *Plan {
			p := Scan("bfact").
				Filter(Lt("k1", 20000)).
				GroupBy("k1", "jk").
				Agg(Sum("amount").As("revenue"), Sum("qty").As("sq"))
			if having {
				p = p.Having(Gt("revenue", 150.0))
			}
			return p.OrderBy("revenue", true)
		}},
	}
	tab := e.Table("bfact").Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "test",
	}}}
	for _, workers := range []int{1, 2, 4} {
		eng := olap.NewEngine(1)
		eng.SetPlacement(topology.Placement{PerSocket: []int{workers}})
		exec := func(t *testing.T, p *Plan, staged bool) olap.Result {
			t.Helper()
			q, err := p.Bind(cat)
			if err != nil {
				t.Fatal(err)
			}
			disableFusion.Store(staged)
			defer disableFusion.Store(false)
			res, _, err := eng.ExecuteContext(context.Background(), q, src)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		for _, sh := range shapes {
			groups := len(exec(t, sh.plan(false), false).Rows)
			if groups < 1000 {
				t.Fatalf("%s: %d groups, want a many-group shape", sh.name, groups)
			}
			for _, having := range []bool{false, true} {
				for _, limit := range []int{0, 1, 10, groups, groups + 5} {
					name := fmt.Sprintf("%s/workers=%d/having=%v/limit=%d", sh.name, workers, having, limit)
					t.Run(name, func(t *testing.T) {
						p := sh.plan(having)
						if limit > 0 {
							p = p.Limit(limit)
						}
						fused, staged := exec(t, p, false), exec(t, p, true)
						if !reflect.DeepEqual(fused, staged) {
							t.Fatalf("fused ordered merge diverges from staged:\nfused:  %d rows, sorted %d\nstaged: %d rows, sorted %d",
								len(fused.Rows), fused.SortedRows, len(staged.Rows), staged.SortedRows)
						}
						if fused.SortedRows == 0 {
							t.Fatal("no rows reached the ordered merge")
						}
					})
				}
			}
		}
		eng.Close()
	}
}
