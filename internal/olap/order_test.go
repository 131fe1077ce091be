package olap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randomRows(rng *rand.Rand, n, cols, domain int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, cols)
		for c := range r {
			r[c] = float64(rng.Intn(domain))
		}
		rows[i] = r
	}
	return rows
}

// referenceSort is the obviously-correct full sort under the same total
// order.
func referenceSort(rows [][]float64, ord Order) [][]float64 {
	out := make([][]float64, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool { return ord.before(out[i], out[j]) })
	return out
}

func TestSortRowsMatchesReferenceAcrossLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		rows := randomRows(rng, n, 3, 6) // small domain forces ties
		ord := Order{Col: rng.Intn(3), Desc: rng.Intn(2) == 0}
		want := referenceSort(rows, ord)
		for _, limit := range []int{0, 1, 2, n / 2, n - 1, n, n + 5} {
			in := make([][]float64, n)
			copy(in, rows)
			got := SortRows(in, ord, limit)
			wantK := want
			if limit > 0 && limit < len(want) {
				wantK = want[:limit]
			}
			if !reflect.DeepEqual(got, wantK) {
				t.Fatalf("trial %d limit %d ord %+v:\n got %v\nwant %v", trial, limit, ord, got, wantK)
			}
		}
	}
}

// TestSortRowsDeterministicUnderPermutation pins the property the ordered
// merge relies on: any input permutation yields the identical output, so
// morsel interleaving can never show through a sorted result.
func TestSortRowsDeterministicUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, 30, 3, 4)
	// Deduplicate identical rows: the order is total only on distinct rows
	// (grouped results always are).
	seen := map[[3]float64]bool{}
	distinct := rows[:0]
	for _, r := range rows {
		k := [3]float64{r[0], r[1], r[2]}
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, r)
		}
	}
	ord := Order{Col: 1, Desc: true}
	base := make([][]float64, len(distinct))
	copy(base, distinct)
	want := SortRows(base, ord, 5)
	for trial := 0; trial < 20; trial++ {
		in := make([][]float64, len(distinct))
		copy(in, distinct)
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		got := SortRows(in, ord, 5)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permutation changed the top-k:\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestSortRowsEmptyAndSingle(t *testing.T) {
	if got := SortRows(nil, Order{}, 3); len(got) != 0 {
		t.Fatalf("nil rows sorted to %v", got)
	}
	one := [][]float64{{42, 1}}
	if got := SortRows(one, Order{Col: 0, Desc: true}, 1); !reflect.DeepEqual(got, one) {
		t.Fatalf("single row mangled: %v", got)
	}
}

// TestTopKMatchesReferenceAcrossLimits checks the copying top-k against
// the reference sort across limits, with ties forced by a small domain,
// offering every row through one reused scratch row.
func TestTopKMatchesReferenceAcrossLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		rows := randomRows(rng, n, 3, 6)
		ord := Order{Col: rng.Intn(3), Desc: rng.Intn(2) == 0}
		want := referenceSort(rows, ord)
		for _, limit := range []int{0, 1, n / 2, n, n + 5} {
			top := NewTopK(ord, limit, n)
			scratch := make([]float64, 3)
			for _, r := range rows {
				copy(scratch, r)
				top.Offer(scratch)
			}
			got := top.Rows()
			wantK := want
			if limit > 0 && limit < len(want) {
				wantK = want[:limit]
			}
			if !reflect.DeepEqual(got, wantK) {
				t.Fatalf("trial %d limit %d ord %+v:\n got %v\nwant %v", trial, limit, ord, got, wantK)
			}
		}
	}
}

// TestTopKCopiesOnAdmit: a row mutated after Offer must not change the
// kept rows — Offer copies what it keeps, and an evicted row's storage
// is reused without aliasing the caller's row.
func TestTopKCopiesOnAdmit(t *testing.T) {
	ord := Order{Col: 0, Desc: true}
	top := NewTopK(ord, 2, 0)
	row := []float64{1, 10}
	for _, v := range []float64{5, 3, 9, 7, 1} {
		row[0], row[1] = v, v*10
		top.Offer(row)
	}
	row[0], row[1] = 100, 100
	want := [][]float64{{9, 90}, {7, 70}}
	if got := top.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept rows changed with the offered row: got %v, want %v", got, want)
	}
	for _, r := range top.Rows() {
		if &r[0] == &row[0] {
			t.Fatal("a kept row aliases the offered row")
		}
	}
}
