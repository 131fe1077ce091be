package olap

import "sort"

// Order is a deterministic total order over result rows: the order column
// compares first (descending when Desc), and ties break on the remaining
// columns ascending, left to right. Whenever rows are distinct — grouped
// results always are, their group keys differ — the order is total, so a
// sort under it is reproducible bit for bit regardless of the input
// permutation. That is what lets ordered and top-k queries stay
// deterministic under work stealing and mid-query pool resizes, and what
// lets the compiled grouped merge offer groups to a TopK in its merge
// table's order with no key sort: this order alone fixes the output.
type Order struct {
	Col  int
	Desc bool
}

// before reports whether row a ranks ahead of row b.
func (o Order) before(a, b []float64) bool {
	av, bv := a[o.Col], b[o.Col]
	if av != bv {
		if o.Desc {
			return av > bv
		}
		return av < bv
	}
	for i := range a {
		if i == o.Col {
			continue
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TopK selects the first limit rows under an Order from rows offered one
// at a time (limit <= 0 keeps every row). Until limit rows are kept it
// only collects; from then on the kept rows form a bounded heap with the
// lowest-ranked kept row at the root, so each further candidate compares
// against the current cutoff in O(1) and displaces it in O(log k).
// Because Order is total over distinct rows, the kept set and Rows'
// output do not depend on the order rows were offered in.
//
// A TopK from NewTopK copies a row only when it admits it, so the caller
// may offer one reusable scratch row over and over: rows that never rank
// cost no allocation, and an evicted row's storage takes its successor.
type TopK struct {
	ord   Order
	limit int
	rows  [][]float64 // kept rows; a heap once len(rows) == limit
	slab  []float64   // unused backing for copied rows
	// borrow keeps the offered slices themselves instead of copies (the
	// in-place SortRows).
	borrow bool
}

// NewTopK returns an empty copying TopK. n is the number of rows the
// caller expects to offer; it sizes the kept rows' storage up front.
func NewTopK(ord Order, limit, n int) *TopK {
	if limit > 0 && limit < n {
		n = limit
	}
	return &TopK{ord: ord, limit: limit, rows: make([][]float64, 0, max(n, 0))}
}

// Offer considers row for the kept set. The TopK never retains row
// itself (unless borrowing), so the caller may overwrite it afterwards.
//
//htap:deterministic
func (t *TopK) Offer(row []float64) {
	if t.limit <= 0 || len(t.rows) < t.limit {
		t.rows = append(t.rows, t.keep(nil, row))
		if len(t.rows) == t.limit {
			for i := t.limit/2 - 1; i >= 0; i-- {
				siftDown(t.rows, i, t.ord)
			}
		}
		return
	}
	if t.ord.before(row, t.rows[0]) {
		t.rows[0] = t.keep(t.rows[0], row)
		siftDown(t.rows, 0, t.ord)
	}
}

// keep returns the slice to store for an admitted row: row itself when
// borrowing, else a copy — into the evicted row's storage dst when there
// is one, otherwise carved from a slab sized for every row still to fill.
func (t *TopK) keep(dst, row []float64) []float64 {
	switch {
	case t.borrow:
		return row
	case dst != nil:
		copy(dst, row)
		return dst
	}
	w := len(row)
	if len(t.slab) < w {
		t.slab = make([]float64, max(cap(t.rows)-len(t.rows), 1)*w)
	}
	dst, t.slab = t.slab[:w:w], t.slab[w:]
	copy(dst, row)
	return dst
}

// Rows returns the kept rows in order. The TopK takes no further offers.
//
//htap:deterministic
func (t *TopK) Rows() [][]float64 {
	sort.Slice(t.rows, func(i, j int) bool { return t.ord.before(t.rows[i], t.rows[j]) })
	return t.rows
}

// SortRows orders rows under ord and keeps the first limit of them
// (limit <= 0 keeps everything). The ordering happens merge-side, after
// per-morsel partial aggregates combine — a top-k cannot run earlier,
// because partial sums are not comparable before they are complete. It
// is a borrowing TopK over the rows: a genuine top-k (0 < limit <
// len(rows)) scans the input once in O(n log k), a full order sorts.
// Rows is reordered in place; the returned slice aliases it.
//
//htap:deterministic
func SortRows(rows [][]float64, ord Order, limit int) [][]float64 {
	// The kept prefix only ever writes rows[:len(kept)], behind the
	// offered index, so filling it from rows itself is safe.
	t := TopK{ord: ord, limit: limit, rows: rows[:0], borrow: true}
	for _, r := range rows {
		t.Offer(r)
	}
	return t.Rows()
}

// siftDown restores the heap property at index i: a parent must not rank
// ahead of either child (the root is the worst kept row).
func siftDown(h [][]float64, i int, ord Order) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && ord.before(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && ord.before(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
