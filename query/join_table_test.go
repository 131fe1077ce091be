package query

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
)

// The fused kernels' join tables pick a direct-address array when the
// build keys are dense and an open-addressed table otherwise. These tests
// drive both forms through every probe site against references that
// share none of that code: the reference executor's Go-map builds for
// whole executions (ref_test.go), and a Go map for single lookups.

// jtRow is one build-side row: its key words, payload and predicate
// column (the relation passes rows with w < cut).
type jtRow struct {
	key    jkey
	pay, w int64
}

// jtShapes are the build-key shapes. Each generator returns the build
// rows for nkey key columns and the relation's predicate cut.
var jtShapes = []struct {
	name string
	gen  func(r *rand.Rand, nkey int) ([]jtRow, int64)
}{
	{"dense", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		return jtDomain(r, nkey, 1, jtOffsets(r, nkey, 0, 100), 1), jtCut(r)
	}},
	{"sparse", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		return jtDomain(r, nkey, 1000, jtOffsets(r, nkey, 0, 100), 1), jtCut(r)
	}},
	{"negative", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		return jtDomain(r, nkey, 1, jtOffsets(r, nkey, -1_000_000, -10), 1), jtCut(r)
	}},
	{"int64-edges", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		// Dense runs ending at MaxInt64 and starting at MinInt64: probes
		// from the far end wrap k-lo and must still miss.
		var lo jkey
		for d := range lo {
			lo[d] = math.MinInt64
			if d%2 == 0 {
				lo[d] = math.MaxInt64 - 300
			}
		}
		return jtDomain(r, nkey, 1, lo, 1), jtCut(r)
	}},
	{"int64-extremes", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		// MinInt64 and MaxInt64 in one column: hi-lo overflows int64.
		rows := jtDomain(r, nkey, 1, jtOffsets(r, nkey, -50, 50), 1)
		for _, v := range []int64{math.MinInt64, math.MaxInt64} {
			var k jkey
			for d := 0; d < nkey; d++ {
				k[d] = v
			}
			rows = append(rows, jtRow{key: k, pay: r.Int63n(24)})
		}
		r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		return rows, jtCut(r)
	}},
	{"duplicates", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		return jtDomain(r, nkey, 1, jtOffsets(r, nkey, 0, 100), 3), jtCut(r)
	}},
	{"empty", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		return nil, 10
	}},
	{"all-filtered", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		return jtDomain(r, nkey, 1, jtOffsets(r, nkey, 0, 100), 1), 0
	}},
	{"one-row", func(r *rand.Rand, nkey int) ([]jtRow, int64) {
		var k jkey
		for d := 0; d < nkey; d++ {
			k[d] = r.Int63() - r.Int63()
		}
		return []jtRow{{key: k, pay: r.Int63n(24)}}, 10
	}},
}

// jtDomain enumerates ~70% of a per-column domain's cross product (key
// word d = lo[d] + scale·i), each key repeated up to reps times with
// distinct payloads, in shuffled order.
func jtDomain(r *rand.Rand, nkey int, scale int64, lo jkey, reps int) []jtRow {
	size := []int{0, 40 + r.Intn(160), 4 + r.Intn(12), 2 + r.Intn(5)}[nkey]
	var rows []jtRow
	var idx [maxJoinCols]int
	for {
		if r.Intn(10) < 7 {
			var k jkey
			for d := 0; d < nkey; d++ {
				k[d] = lo[d] + scale*int64(idx[d])
			}
			for n := 1 + r.Intn(reps); n > 0; n-- {
				rows = append(rows, jtRow{key: k, pay: r.Int63n(24), w: r.Int63n(10)})
			}
		}
		d := 0
		for ; d < nkey; d++ {
			if idx[d]++; idx[d] < size {
				break
			}
			idx[d] = 0
		}
		if d == nkey {
			break
		}
	}
	r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

func jtOffsets(r *rand.Rand, nkey int, lo, hi int64) jkey {
	var k jkey
	for d := 0; d < nkey; d++ {
		k[d] = lo + r.Int63n(hi-lo+1)
	}
	return k
}

// jtCut passes every row or about 60% of them.
func jtCut(r *rand.Rand) int64 { return []int64{10, 6}[r.Intn(2)] }

// jtProbeKey draws a probe key: mostly a build key (hits, unless its row
// is filtered or shadowed), else per-word mixes of build words, their
// neighbours, the int64 extremes and random words (misses inside and
// outside every column's range).
func jtProbeKey(r *rand.Rand, rows []jtRow, nkey int) jkey {
	if len(rows) > 0 && r.Intn(10) < 6 {
		return rows[r.Intn(len(rows))].key
	}
	var k jkey
	for d := 0; d < nkey; d++ {
		var w int64
		if len(rows) > 0 {
			w = rows[r.Intn(len(rows))].key[d]
		}
		switch r.Intn(6) {
		case 0, 1:
		case 2:
			w++
		case 3:
			w--
		case 4:
			w = []int64{math.MinInt64, math.MaxInt64, 0, -1}[r.Intn(4)]
		default:
			w = r.Int63() - r.Int63()
		}
		k[d] = w
	}
	return k
}

var (
	jtFactKeys = []string{"fa", "fb", "fc"}
	jtDimKeys  = []string{"dx", "dy", "dz"}
)

// jtCatalog loads the fact table, the build relation and a second
// dense relation keyed by pk for the multi-join plans.
func jtCatalog(r *rand.Rand, rows []jtRow, nkey int) (Catalog, *oltp.Engine) {
	e := oltp.NewEngine()
	fact := e.CreateTable(columnar.Schema{Name: "jfact", Columns: []columnar.ColumnDef{
		{Name: "fa", Type: columnar.Int64},
		{Name: "fb", Type: columnar.Int64},
		{Name: "fc", Type: columnar.Int64},
		{Name: "fg", Type: columnar.Int64},
		{Name: "qty", Type: columnar.Int64},
		{Name: "amount", Type: columnar.Float64},
	}}, 0, false)
	ft := fact.Table()
	var frows [][]int64
	for i := 0; i < 1500; i++ {
		k := jtProbeKey(r, rows, nkey)
		frows = append(frows, ft.EncodeRow(k[0], k[1], k[2], r.Int63n(8), r.Int63n(50), float64(r.Intn(10000))/8))
	}
	ft.AppendRows(frows, 0)

	dim := e.CreateTable(columnar.Schema{Name: "jdim", Columns: []columnar.ColumnDef{
		{Name: "dx", Type: columnar.Int64},
		{Name: "dy", Type: columnar.Int64},
		{Name: "dz", Type: columnar.Int64},
		{Name: "pay", Type: columnar.Int64},
		{Name: "w", Type: columnar.Int64},
	}}, 0, false)
	dt := dim.Table()
	var drows [][]int64
	for _, row := range rows {
		drows = append(drows, dt.EncodeRow(row.key[0], row.key[1], row.key[2], row.pay, row.w))
	}
	dt.AppendRows(drows, 0)

	dim2 := e.CreateTable(columnar.Schema{Name: "jdim2", Columns: []columnar.ColumnDef{
		{Name: "pk", Type: columnar.Int64},
		{Name: "pv", Type: columnar.Int64},
	}}, 0, false)
	d2 := dim2.Table()
	var rows2 [][]int64
	for pk := int64(0); pk < 24; pk++ {
		if r.Intn(10) < 7 {
			rows2 = append(rows2, d2.EncodeRow(pk, r.Int63n(5)))
		}
	}
	d2.AppendRows(rows2, 0)
	return testCatalog{e}, e
}

// jtPlan builds one of the probe-site templates over an nkey-word join
// of jfact into jdim (relation predicate w < cut). withPay makes the
// plan demand jdim's payload column.
func jtPlan(tmpl string, nkey int, withPay bool, cut int64) *Plan {
	fact, dim, dim2 := Rel("jfact"), Rel("jdim").Filter(Lt("w", cut)), Rel("jdim2")
	var on []string
	for d := 0; d < nkey; d++ {
		on = append(on, jtFactKeys[d], jtDimKeys[d])
	}
	edge := JoinOn(fact, dim, on...)
	p := Scan("jfact")
	switch tmpl {
	case "probe": // generic loops: probe over jOne/jMany
		p = p.JoinGraph(edge)
		if withPay {
			return p.GroupBy("pay").Agg(Sum("amount").As("s"), Count().As("n"))
		}
		return p.Agg(Sum("amount").As("s"), Count().As("n"), Max("qty").As("m"))
	case "semi-sum": // specGlobalSemiSumF when single-key and payload-free
		p = p.JoinGraph(edge).Filter(Between("qty", 5, 45))
		if withPay {
			return p.Agg(Sum("amount").As("s"), Max("pay").As("m"))
		}
		return p.Agg(Sum("amount").As("s"))
	case "spill": // specSpillSumF when composite-key
		p = p.JoinGraph(edge)
		if withPay {
			return p.GroupBy("fg", "pay").Agg(Sum("amount").As("s"))
		}
		return p.GroupBy("fg", "qty").Agg(Sum("amount").As("s"))
	default: // "multi": probeMulti
		if withPay {
			return p.JoinGraph(edge, JoinOn(dim, dim2, "pay", "pk")).
				GroupBy("pv").Agg(Sum("amount").As("s"), Count().As("n"))
		}
		return p.JoinGraph(edge, JoinOn(fact, dim2, "fg", "pk")).
			Agg(Sum("amount").As("s"), Count().As("n"))
	}
}

// jtWantDense is the direct-address rule computed independently in
// arbitrary precision: the product of the passing keys' per-column spans
// is at most 4n+64 entries (an empty build counts as dense).
func jtWantDense(rows []jtRow, nkey int, cut int64) bool {
	var pass []jtRow
	for _, row := range rows {
		if row.w < cut {
			pass = append(pass, row)
		}
	}
	if len(pass) == 0 {
		return true
	}
	prod := big.NewInt(1)
	for d := 0; d < nkey; d++ {
		lo, hi := pass[0].key[d], pass[0].key[d]
		for _, row := range pass {
			lo, hi = min(lo, row.key[d]), max(hi, row.key[d])
		}
		span := new(big.Int).Sub(big.NewInt(hi), big.NewInt(lo))
		prod.Mul(prod, span.Add(span, big.NewInt(1)))
	}
	return prod.Cmp(big.NewInt(int64(4*len(pass)+64))) <= 0
}

// TestDenseJoinTablesMatchStaged runs randomized single- and composite-key
// join plans through every fused probe site — probe (jOne, jMany), both
// arms of probeMulti, runGlobalSemiSumF and runSpillSumF — over dense,
// sparse, negative, int64-edge, overflowing, duplicate, empty,
// all-filtered and one-row builds, with and without payload, and requires
// each result DeepEqual to the reference executor's map-backed joins.
func TestDenseJoinTablesMatchStaged(t *testing.T) {
	eng := newTestEngine(t, 2)
	modes := map[string]map[bool]int{}
	for _, sh := range jtShapes {
		modes[sh.name] = map[bool]int{}
		for nkey := 1; nkey <= maxJoinCols; nkey++ {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed*100 + int64(nkey)))
				rows, cut := sh.gen(r, nkey)
				cat, e := jtCatalog(r, rows, nkey)
				wantDense := jtWantDense(rows, nkey, cut)
				for _, tmpl := range []string{"probe", "semi-sum", "spill", "multi"} {
					for _, withPay := range []bool{false, true} {
						name := fmt.Sprintf("%s/nkey=%d/seed=%d/%s/pay=%v", sh.name, nkey, seed, tmpl, withPay)
						t.Run(name, func(t *testing.T) {
							q, err := jtPlan(tmpl, nkey, withPay, cut).Bind(cat)
							if err != nil {
								t.Fatal(err)
							}
							ex, _ := q.Prepare()
							fe := ex.(*fexec)
							switch {
							case tmpl == "semi-sum" && nkey == 1 && !withPay && fe.spec != specGlobalSemiSumF,
								tmpl == "spill" && nkey > 1 && fe.spec != specSpillSumF:
								t.Fatalf("template %s did not select its specialized loop (spec %d)", tmpl, fe.spec)
							}
							switch fe.jkind {
							case jOne:
								if fe.j1.dense != wantDense {
									t.Fatalf("single-key table dense=%v, want %v", fe.j1.dense, wantDense)
								}
								modes[sh.name][wantDense]++
							case jMany:
								if fe.jK.dense != wantDense {
									t.Fatalf("composite-key table dense=%v, want %v", fe.jK.dense, wantDense)
								}
								modes[sh.name][wantDense]++
							case jMulti:
							default:
								t.Fatalf("join kind %d, want a join", fe.jkind)
							}
							fused, ref := execute(t, eng, e, q, false, 1), execute(t, eng, e, q, true, 1)
							if !reflect.DeepEqual(fused, ref) {
								t.Fatalf("fused join diverges from the reference:\nfused: %+v\nref:   %+v", fused, ref)
							}
						})
					}
				}
			}
		}
	}
	// Each shape must land in the table form it is there to exercise.
	for shape, wantDense := range map[string]bool{
		"dense": true, "negative": true, "int64-edges": true, "duplicates": true,
		"empty": true, "all-filtered": true, "one-row": true,
		"sparse": false, "int64-extremes": false,
	} {
		if modes[shape][!wantDense] > 0 || modes[shape][wantDense] == 0 {
			t.Errorf("shape %s built tables dense=%d hashed=%d, want only dense=%v",
				shape, modes[shape][true], modes[shape][false], wantDense)
		}
	}
}

// TestJoinTableLookupMatchesMap probes built tables directly, key by key,
// against a Go map holding the passing build rows (last row wins), for
// build keys, their neighbours, the int64 extremes and random words.
func TestJoinTableLookupMatchesMap(t *testing.T) {
	for _, sh := range jtShapes {
		for nkey := 1; nkey <= maxJoinCols; nkey++ {
			for _, withPay := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/nkey=%d/pay=%v", sh.name, nkey, withPay), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(7*nkey) + 1))
					rows, cut := sh.gen(r, nkey)
					cat, _ := jtCatalog(r, rows, nkey)
					ref := map[jkey]int64{}
					for _, row := range rows {
						if row.w < cut {
							ref[row.key] = row.pay
						}
					}
					q, err := jtPlan("probe", nkey, withPay, cut).Bind(cat)
					if err != nil {
						t.Fatal(err)
					}
					ex, _ := q.Prepare()
					fe := ex.(*fexec)
					slots := fe.probeSlots
					if fe.jkind == jOne {
						slots = []int{fe.probeSlot}
					}
					const n = 4000
					cols := make([][]int64, fe.nscan)
					keys := make([]jkey, n)
					for d, s := range slots {
						cols[s] = make([]int64, n)
						for i := range keys {
							if d == 0 {
								keys[i] = jtProbeKey(r, rows, nkey)
							}
							cols[s][i] = keys[i][d]
						}
					}
					hits := 0
					for i, k := range keys {
						var pay []int64
						got := fe.probe(cols, i, &pay)
						want, ok := ref[k]
						if got != ok {
							t.Fatalf("key %v: probe matched=%v, map has=%v", k[:nkey], got, ok)
						}
						if ok {
							hits++
							if withPay && (len(pay) != 1 || pay[0] != want) {
								t.Fatalf("key %v: payload %v, want [%d]", k[:nkey], pay, want)
							}
						}
					}
					if len(ref) > 0 && hits == 0 {
						t.Fatal("no probe key hit the build")
					}
				})
			}
		}
	}
}
