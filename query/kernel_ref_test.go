package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
)

// newTestEngine returns an OLAP engine with workers workers on one
// socket, closed when the test ends.
func newTestEngine(t *testing.T, workers int) *olap.Engine {
	t.Helper()
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{workers}})
	t.Cleanup(eng.Close)
	return eng
}

// TestFusedMatchesStagedExactly pins every kernel shape — each
// specialized loop, the generic fused loops, and the post-aggregation
// stages (avg, having, ordered top-k) — against the row-at-a-time
// reference executor (ref_test.go), bitwise (DeepEqual on float64 rows
// is bitwise equality).
func TestFusedMatchesStagedExactly(t *testing.T) {
	cat, e := newBenchCatalog(t)
	eng := newTestEngine(t, 1)
	fact := Rel("bfact")
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
			JoinGraph(JoinOn(fact, Rel("bdim1").Filter(Between("w", 1, 60)), "k1", "id")).
			Agg(Sum("amount").As("rev"))},
		{"filter-probe-group-sum", Scan("bfact").
			Filter(Between("qty", 5, 45)).
			JoinGraph(JoinOn(fact, Rel("bdimc"), "jk", "jk", "k2", "k2")).
			GroupBy("pay").
			Agg(Sum("amount").As("rev"))},
		// The fact-side group key is jks (jk scaled ×1000): a bare "jk"
		// names both the fact column and the relation's key column, which
		// the graph resolves as ambiguous.
		{"probe-group-sum-spill", Scan("bfact").
			JoinGraph(JoinOn(fact, Rel("bdimc"), "jk", "jk", "k2", "k2")).
			GroupBy("jks", "pay").
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
			fused, ref := execute(t, eng, e, q, false, 1), execute(t, eng, e, q, true, 1)
			if !reflect.DeepEqual(fused, ref) {
				t.Fatalf("fused result diverges from the reference:\nfused: %+v\nref:   %+v", fused, ref)
			}
		})
	}
}

// TestOrderedMergeMatchesStaged pins the fused ordered finish — one pass
// in merge-table order with Having and a copy-on-admit top-k, no key sort
// — against the reference, which sorts every key and emits every row
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
				JoinGraph(JoinOn(Rel("bfact"), Rel("bdimc"), "jk", "jk", "k2", "k2")).
				GroupBy("k1", "jks", "pay").
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
	for _, workers := range []int{1, 2, 4} {
		eng := newTestEngine(t, workers)
		exec := func(t *testing.T, p *Plan, ref bool) olap.Result {
			t.Helper()
			q, err := p.Bind(cat)
			if err != nil {
				t.Fatal(err)
			}
			return execute(t, eng, e, q, ref, 1)
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
						fused, ref := exec(t, p, false), exec(t, p, true)
						if !reflect.DeepEqual(fused, ref) {
							t.Fatalf("fused ordered merge diverges from the reference:\nfused: %d rows, sorted %d\nref:   %d rows, sorted %d",
								len(fused.Rows), fused.SortedRows, len(ref.Rows), ref.SortedRows)
						}
						if fused.SortedRows == 0 {
							t.Fatal("no rows reached the ordered merge")
						}
					})
				}
			}
		}
	}
}

// TestWidePlansFuse runs plans past any fixed kernel width — ten filters
// over int, float and dictionary columns, and 34 physical accumulators
// (Sum, Min and Max over every numeric column plus ten CountIfs) — through
// the fused kernel, global and grouped on dense and spilled keys, and
// requires each result DeepEqual to the reference.
func TestWidePlansFuse(t *testing.T) {
	cat, e := newBenchCatalog(t)
	eng := newTestEngine(t, 2)
	numeric := []string{"k1", "jk", "k2", "gid", "qty", "amount", "jks", "k2s"}
	var aggs []Agg
	for _, col := range numeric {
		aggs = append(aggs, Sum(col), Min(col), Max(col))
	}
	for i := 0; i < 10; i++ {
		aggs = append(aggs, CountIf(Ge("qty", 5*i)).As(fmt.Sprintf("qty_ge_%d", 5*i)))
	}
	filters := []Pred{
		Between("qty", 3, 48), Ge("k1", 10), Lt("k1", 90000), Ne("gid", 7),
		Not(Between("k2", 20, 22)), Le("jk", 97), Gt("jks", 0),
		Between("amount", 1.0, 140.0), Ne("amount", 5.0), Ne("tag", "phone"),
	}
	for _, groups := range [][]string{nil, {"gid"}, {"gid", "k2"}} {
		t.Run(fmt.Sprintf("groups=%v", groups), func(t *testing.T) {
			p := Scan("bfact").Filter(filters...).Agg(aggs...)
			if groups != nil {
				p = p.GroupBy(groups...)
			}
			q, err := p.Bind(cat)
			if err != nil {
				t.Fatal(err)
			}
			ex, _ := q.Prepare()
			fe, ok := ex.(*fexec)
			if !ok {
				t.Fatalf("Prepare returned %T, want the fused kernel", ex)
			}
			if len(q.filters) < 9 || len(fe.sh.accs) < 33 {
				t.Fatalf("plan has %d filters and %d accumulators, want at least 9 and 33",
					len(q.filters), len(fe.sh.accs))
			}
			fused, ref := execute(t, eng, e, q, false, 1), execute(t, eng, e, q, true, 1)
			if len(fused.Rows) == 0 || fused.Rows[0][len(groups)] == 0 {
				t.Fatalf("no rows survive the filters: %v", fused.Rows)
			}
			if !reflect.DeepEqual(fused, ref) {
				t.Fatalf("wide fused plan diverges from the reference:\nfused: %v\nref:   %v", fused.Rows, ref.Rows)
			}
		})
	}
}

// newPropCatalog loads the randomized plans' tables: a fact table with
// int, float and dictionary columns, a dimension keyed by d1 with
// duplicate keys (the last row wins), a composite-keyed dimension, and a
// small relation one hop past the first dimension. Column names are
// unique across tables, so every name resolves unambiguously.
func newPropCatalog(r *rand.Rand) (Catalog, *oltp.Engine) {
	e := oltp.NewEngine()
	load := func(name string, cols []columnar.ColumnDef, n int, row func(i int) []any) {
		tab := e.CreateTable(columnar.Schema{Name: name, Columns: cols}, 0, false).Table()
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = tab.EncodeRow(row(i)...)
		}
		tab.AppendRows(rows, 0)
	}
	ints := func(names ...string) []columnar.ColumnDef {
		var defs []columnar.ColumnDef
		for _, n := range names {
			defs = append(defs, columnar.ColumnDef{Name: n, Type: columnar.Int64})
		}
		return defs
	}
	tags := []string{"web", "store", "phone", "mail"}
	load("pf", append(ints("a", "b", "c", "d1", "d2a", "d2b"),
		columnar.ColumnDef{Name: "f", Type: columnar.Float64},
		columnar.ColumnDef{Name: "g", Type: columnar.Float64},
		columnar.ColumnDef{Name: "tag", Type: columnar.String}), 6000, func(i int) []any {
		return []any{r.Int63n(40), r.Int63n(5000) - 50, r.Int63n(10), r.Int63n(60),
			r.Int63n(12), r.Int63n(22), float64(r.Intn(100000)) / 7, r.NormFloat64() * 1e6,
			tags[r.Intn(len(tags))]}
	})
	load("pd1", append(ints("id", "x", "dk"), columnar.ColumnDef{Name: "y", Type: columnar.Float64}), 70,
		func(i int) []any {
			return []any{r.Int63n(50), r.Int63n(2000), r.Int63n(8), float64(r.Intn(1000)) / 3}
		})
	load("pd2", append(ints("ka", "kb", "z"), columnar.ColumnDef{Name: "u", Type: columnar.Float64}), 150,
		func(i int) []any { return []any{int64(i / 15), int64(i % 15 * 2), r.Int63n(30), r.Float64() * 50} })
	load("pd3", ints("hk", "hv"), 6, func(i int) []any { return []any{int64(i), r.Int63n(4)} })
	return testCatalog{e}, e
}

// propCol is one column the randomized plans may reference: where it
// lives, its type and a value range to draw literals from.
type propCol struct {
	rel, name string
	typ       columnar.Type
	lo, hi    float64
}

var propCols = []propCol{
	{"pf", "a", columnar.Int64, 0, 40}, {"pf", "b", columnar.Int64, -50, 4950},
	{"pf", "c", columnar.Int64, 0, 10}, {"pf", "f", columnar.Float64, 0, 14300},
	{"pf", "g", columnar.Float64, -3e6, 3e6}, {"pf", "tag", columnar.String, 0, 0},
	{"pd1", "x", columnar.Int64, 0, 2000}, {"pd1", "y", columnar.Float64, 0, 333},
	{"pd2", "z", columnar.Int64, 0, 30}, {"pd2", "u", columnar.Float64, 0, 50},
	{"pd3", "hv", columnar.Int64, 0, 4},
}

// propPred draws a predicate over col: every comparison, inverted and
// impossible ranges, and known and unknown dictionary strings.
func propPred(r *rand.Rand, col propCol) Pred {
	if col.typ == columnar.String {
		s := []string{"web", "store", "phone", "mail", "fax"}[r.Intn(5)]
		if r.Intn(2) == 0 {
			return Eq(col.name, s)
		}
		return Ne(col.name, s)
	}
	val := func() any {
		v := col.lo + r.Float64()*(col.hi-col.lo)
		if col.typ == columnar.Int64 {
			return int64(math.Floor(v))
		}
		return v
	}
	switch r.Intn(11) {
	case 0:
		return Eq(col.name, val())
	case 1:
		return Ne(col.name, val())
	case 2:
		return Gt(col.name, val())
	case 3:
		return Ge(col.name, val())
	case 4:
		return Lt(col.name, val())
	case 5:
		return Le(col.name, val())
	case 6:
		return Not(Between(col.name, val(), val()))
	case 7: // never matches: an empty range or a bound past the type's end
		if col.typ == columnar.Int64 {
			if r.Intn(2) == 0 {
				return Gt(col.name, int64(math.MaxInt64))
			}
			return Lt(col.name, int64(math.MinInt64))
		}
		return Between(col.name, col.hi+1, col.lo-1)
	default:
		return Between(col.name, val(), val())
	}
}

// propPlan draws one random plan over the property catalog: 0–2 join
// edges (a fact→dimension edge, a composite-key edge, or a hop past the
// first dimension), relation and fact filters, 0–3 group keys, a mix of
// aggregates, and optional Having, OrderBy and Limit.
func propPlan(r *rand.Rand) *Plan {
	fact := Rel("pf")
	rels := map[string]bool{"pf": true}
	relOf := map[string]*Relation{"pf": fact, "pd1": Rel("pd1"), "pd2": Rel("pd2"), "pd3": Rel("pd3")}
	var edges []JoinEdge
	switch r.Intn(5) {
	case 1:
		edges = append(edges, JoinOn(fact, relOf["pd1"], "d1", "id"))
	case 2:
		edges = append(edges, JoinOn(fact, relOf["pd2"], "d2a", "ka", "d2b", "kb"))
	case 3:
		edges = append(edges, JoinOn(fact, relOf["pd1"], "d1", "id"),
			JoinOn(fact, relOf["pd2"], "d2a", "ka", "d2b", "kb"))
	case 4:
		edges = append(edges, JoinOn(fact, relOf["pd1"], "d1", "id"), JoinOn(relOf["pd1"], relOf["pd3"], "dk", "hk"))
	}
	for _, ed := range edges {
		rels[ed.to.name] = true
	}
	var cols, ints []propCol
	for _, c := range propCols {
		if rels[c.rel] {
			cols = append(cols, c)
			if c.typ == columnar.Int64 {
				ints = append(ints, c)
			}
		}
	}
	p := Scan("pf")
	for _, c := range cols {
		if r.Intn(4) == 0 {
			pr := propPred(r, c)
			if c.rel == "pf" {
				p.Filter(pr)
			} else {
				relOf[c.rel].Filter(pr)
			}
		}
	}
	if len(edges) > 0 {
		p.JoinGraph(edges...)
	}
	var groups []string
	for _, i := range r.Perm(len(ints))[:r.Intn(4)] {
		groups = append(groups, ints[i].name)
	}
	if len(groups) > 0 {
		p.GroupBy(groups...)
	}
	out := append([]string(nil), groups...)
	for n := 1 + r.Intn(5); n > 0; n-- {
		c := cols[r.Intn(len(cols))]
		var a Agg
		switch k := r.Intn(6); {
		case k == 4 || c.typ == columnar.String:
			a = Count()
		case k == 5:
			a = CountIf(propPred(r, cols[r.Intn(len(cols))]))
		default:
			a = []func(string) Agg{Sum, Avg, Min, Max}[k](c.name)
		}
		a = a.As(fmt.Sprintf("o%d", len(out)))
		p.Agg(a)
		out = append(out, a.outName())
	}
	if r.Intn(3) == 0 {
		p.Having(Gt(out[r.Intn(len(out))], r.NormFloat64()*100))
	}
	if r.Intn(2) == 0 {
		p.OrderBy(out[r.Intn(len(out))], r.Intn(2) == 0)
		if r.Intn(2) == 0 {
			p.Limit(1 + r.Intn(10))
		}
	}
	return p
}

// TestRandomPlansMatchReference is the plan-vs-reference property test:
// seeded random plans — filters of every kind, 0–2 join edges, 0–3
// group keys, every aggregate, Having, OrderBy with and without Limit —
// must produce results DeepEqual to the reference on 1, 2 and 4 workers,
// over a source split into several morsels.
func TestRandomPlansMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	cat, e := newPropCatalog(r)
	engs := []*olap.Engine{newTestEngine(t, 1), newTestEngine(t, 2), newTestEngine(t, 4)}
	for i := 0; i < 300; i++ {
		p := propPlan(r)
		q, err := p.Bind(cat)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		ref := execute(t, engs[0], e, q, true, 5)
		for _, eng := range engs {
			if got := execute(t, eng, e, q, false, 5); !reflect.DeepEqual(got, ref) {
				t.Fatalf("plan %d (out=%v filters=%+v joins=%d groups=%d) diverges from the reference:\nfused: %v\nref:   %v",
					i, q.outCols, q.filters, len(q.joins), len(q.groups), got, ref)
			}
		}
	}
}
