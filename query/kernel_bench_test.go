package query

import (
	"context"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
)

// Micro-benchmarks for the fused kernel stages in isolation — filter
// only, filter+probe, filter+probe+aggregate — across the column shapes
// the specializer distinguishes (int64 ranges, float64 ranges, dict-coded
// equality). Each fixes one plan shape so a regression in a single loop
// (or a spec that silently stops matching its shape) shows up as a
// per-row cost change in that benchmark alone, instead of being averaged
// into the end-to-end CH query numbers in the root bench suite.

const benchRows = 1 << 17

// newBenchCatalog loads a synthetic fact table and two dimension tables
// sized so every kernel stage has work: ~20% of fact rows survive the
// semi-join, the composite join matches every row, and the dense group
// domain stays well inside the flat fast path.
func newBenchCatalog(tb testing.TB) (Catalog, *oltp.Engine) {
	tb.Helper()
	e := oltp.NewEngine()
	fact := e.CreateTable(columnar.Schema{Name: "bfact", Columns: []columnar.ColumnDef{
		{Name: "k1", Type: columnar.Int64},
		{Name: "jk", Type: columnar.Int64},
		{Name: "k2", Type: columnar.Int64},
		{Name: "gid", Type: columnar.Int64},
		{Name: "qty", Type: columnar.Int64},
		{Name: "amount", Type: columnar.Float64},
		{Name: "tag", Type: columnar.String},
		{Name: "jks", Type: columnar.Int64},
		{Name: "k2s", Type: columnar.Int64},
	}}, 16, false)
	ft := fact.Table()
	tags := []string{"web", "store", "phone"}
	rows := make([][]int64, 0, benchRows)
	for i := 0; i < benchRows; i++ {
		rows = append(rows, ft.EncodeRow(
			int64(i%100000),    // k1: semi-join key, sparse dim coverage
			int64(i%100),       // jk: composite join key 1, full coverage
			int64(i%50),        // k2: composite join key 2, full coverage
			int64(i%64),        // gid: dense group domain
			int64(i%50+1),      // qty
			float64(i%997)/7.0, // amount
			tags[i%len(tags)],  // tag: dict-coded
			int64(i%100)*1000,  // jks: jk scattered ×1000
			int64(i%50)*1000,   // k2s: k2 scattered ×1000
		))
	}
	ft.AppendRows(rows, 0)

	// dim1 covers every fifth k1 value, so the semi-join keeps ~20%.
	dim1 := e.CreateTable(columnar.Schema{Name: "bdim1", Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "w", Type: columnar.Float64},
	}}, 16, false)
	dt := dim1.Table()
	drows := make([][]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		drows = append(drows, dt.EncodeRow(int64(i*5), float64(i%90)+1))
	}
	dt.AppendRows(drows, 0)

	// dimc covers the full (jk, k2) cross product with an integer payload.
	dimc := e.CreateTable(columnar.Schema{Name: "bdimc", Columns: []columnar.ColumnDef{
		{Name: "jk", Type: columnar.Int64},
		{Name: "k2", Type: columnar.Int64},
		{Name: "pay", Type: columnar.Int64},
	}}, 16, false)
	ct := dimc.Table()
	crows := make([][]int64, 0, 100*50)
	for a := 0; a < 100; a++ {
		for c := 0; c < 50; c++ {
			crows = append(crows, ct.EncodeRow(int64(a), int64(c), int64((a+c)%32)))
		}
	}
	ct.AppendRows(crows, 0)

	// dims is dimc with both key columns scattered ×1000: the same join,
	// but its key domain is far wider than its row count.
	dims := e.CreateTable(columnar.Schema{Name: "bdims", Columns: []columnar.ColumnDef{
		{Name: "sjk", Type: columnar.Int64},
		{Name: "sk2", Type: columnar.Int64},
		{Name: "spay", Type: columnar.Int64},
	}}, 16, false)
	st := dims.Table()
	srows := make([][]int64, 0, 100*50)
	for a := 0; a < 100; a++ {
		for c := 0; c < 50; c++ {
			srows = append(srows, st.EncodeRow(int64(a)*1000, int64(c)*1000, int64((a+c)%32)))
		}
	}
	st.AppendRows(srows, 0)
	return testCatalog{e}, e
}

// runKernelBench binds the plan once, then measures end-to-end morsel
// execution on a single worker so per-row kernel cost is the only
// variable.
func runKernelBench(b *testing.B, p *Plan, touched int64) {
	b.Helper()
	cat, e := newBenchCatalog(b)
	q, err := p.Bind(cat)
	if err != nil {
		b.Fatal(err)
	}
	tab := e.Table(q.FactTable()).Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "bench",
	}}}
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{1}})
	defer eng.Close()
	b.SetBytes(benchRows * touched * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFilterCountInt64: two int64 range brackets feeding a
// bare count — the branchless integer filter loop with no probe or
// per-group work.
func BenchmarkKernelFilterCountInt64(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("qty", 10, 40), Ge("gid", 8)).
		Agg(Count()), 2)
}

// BenchmarkKernelFilterCountFloat64: a float64 range bracket — the
// decode-compare filter loop (floats never take the branchless raw-word
// path).
func BenchmarkKernelFilterCountFloat64(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("amount", 20.0, 100.0)).
		Agg(Count()), 1)
}

// BenchmarkKernelFilterCountDict: dict-coded string equality — the
// predicate resolves to a code compare at bind time.
func BenchmarkKernelFilterCountDict(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Eq("tag", "web")).
		Agg(Count()), 1)
}

// BenchmarkKernelFilterProbeSum: one int64 bracket plus a single-key
// existence probe into the selective dimension, summing a float — the
// specGlobalSemiSumF shape (inlined open-addressed probe).
func BenchmarkKernelFilterProbeSum(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("qty", 5, 45)).
		JoinGraph(JoinOn(Rel("bfact"), Rel("bdim1").Filter(Between("w", 1, 60)), "k1", "id")).
		Agg(Sum("amount").As("rev")), 3)
}

// BenchmarkKernelFilterProbeGroupSum: filter, composite-key payload
// probe, then grouping on the projected payload — the generic fused
// join+group loop (the fact-side filter keeps specSpillSumF out).
func BenchmarkKernelFilterProbeGroupSum(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("qty", 5, 45)).
		JoinGraph(JoinOn(Rel("bfact"), Rel("bdimc"), "jk", "jk", "k2", "k2")).
		GroupBy("pay").
		Agg(Sum("amount").As("rev")), 4)
}

// BenchmarkKernelProbeGroupSumSpill: unfiltered composite-key payload
// probe with composite grouping — the specSpillSumF shape (unrolled key
// gather, inlined hash chain, open-addressed group table). It groups on
// jks, the fact key scaled ×1000: a bare "jk" names the relation's key
// column too, which the graph resolves as ambiguous.
func BenchmarkKernelProbeGroupSumSpill(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		JoinGraph(JoinOn(Rel("bfact"), Rel("bdimc"), "jk", "jk", "k2", "k2")).
		GroupBy("jks", "pay").
		Agg(Sum("amount").As("rev")), 4)
}

// BenchmarkKernelDenseGroupSumIntFloat: one bracket and a dense
// single-key group with int-sum + float-sum — the specDenseSumIF shape
// (one 24-byte cell update per qualifying row).
func BenchmarkKernelDenseGroupSumIntFloat(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("qty", 5, 45)).
		GroupBy("gid").
		Agg(Sum("qty").As("sq"), Sum("amount").As("sa")), 4)
}

// BenchmarkKernelProbeGroupSumDense and BenchmarkKernelProbeGroupSumSparse
// run one plan — an unfiltered composite-key payload probe grouped on the
// payload — over the same 100×50 build, once on its dense keys (the
// direct-address join table) and once with both key columns scattered
// ×1000 (the open-addressed fallback), so each table form is measured on
// its own.
func BenchmarkKernelProbeGroupSumDense(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		JoinGraph(JoinOn(Rel("bfact"), Rel("bdimc"), "jk", "jk", "k2", "k2")).
		GroupBy("pay").
		Agg(Sum("amount").As("rev")), 3)
}

func BenchmarkKernelProbeGroupSumSparse(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		JoinGraph(JoinOn(Rel("bfact"), Rel("bdims"), "jks", "sjk", "k2s", "sk2")).
		GroupBy("spay").
		Agg(Sum("amount").As("rev")), 3)
}
