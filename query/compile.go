package query

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
)

// ErrPredType reports a predicate literal whose Go type cannot compare
// against the bound column: a string against an int64 column, a float
// with a fractional part against an integer column, an int against a
// string column. Bind wraps it with the offending column and value, so
// errors.Is(err, ErrPredType) distinguishes literal-type mistakes from
// unknown-name errors.
var ErrPredType = errors.New("predicate literal type mismatch")

// Catalog resolves table names to storage handles. *ch.DB (re-exported as
// elastichtap.DB) satisfies it.
type Catalog interface {
	Handle(name string) *oltp.TableHandle
}

// fkind selects a filter evaluation strategy. Ordered predicates compile
// to canonical inclusive ranges (Gt v becomes [v+1, max] for integers and
// [nextafter(v), +inf] for floats), so block filtering runs as tight
// range loops with no per-row calls.
type fkind int8

const (
	fIntRange fkind = iota // also string dictionary codes
	fIntNe
	fIntNotRange
	fFloatRange
	fFloatNe
	fFloatNotRange
	fNever // statically unsatisfiable
)

// ftest is a compiled predicate test over raw column words.
type ftest struct {
	kind     fkind
	ilo, ihi int64
	flo, fhi float64
}

// match evaluates the test against one raw word: dimension builds, and
// the fused kernels' generic (non-range) filters and CountIf conditions.
func (t *ftest) match(w int64) bool {
	switch t.kind {
	case fIntRange:
		return w >= t.ilo && w <= t.ihi
	case fIntNe:
		return w != t.ilo
	case fIntNotRange:
		return w < t.ilo || w > t.ihi
	case fFloatRange:
		d := columnar.DecodeFloat(w)
		return d >= t.flo && d <= t.fhi
	case fFloatNe:
		return columnar.DecodeFloat(w) != t.flo
	case fFloatNotRange:
		d := columnar.DecodeFloat(w)
		return d < t.flo || d > t.fhi
	default:
		return false
	}
}

// fmatch evaluates the test against an already-decoded float64 — the cell
// type of emitted result rows (Having predicates).
func (t *ftest) fmatch(v float64) bool {
	switch t.kind {
	case fFloatRange:
		return v >= t.flo && v <= t.fhi
	case fFloatNe:
		return v != t.flo
	case fFloatNotRange:
		return v < t.flo || v > t.fhi
	default:
		return false
	}
}

// filter is a compiled predicate over one scanned column slot.
type filter struct {
	slot int
	ftest
}

// dimFilter is a compiled predicate over a dimension table's physical
// column (evaluated row-at-a-time during build).
type dimFilter struct {
	col int
	ftest
}

// aggPlan is one compiled aggregate: its kind, the column slot it reads
// (-1 for Count/CountIf; fact scan slots first, join payload slots after)
// and whether the raw word needs IEEE decoding. CountIf carries the
// compiled condition and the slot it tests.
type aggPlan struct {
	kind     aggKind
	slot     int
	decode   bool
	cond     *ftest
	condSlot int
}

// jkey is a composite join key (unused trailing slots stay zero; the key
// width is fixed per plan so they never collide).
type jkey [maxJoinCols]int64

// joinPlan is a compiled hash join: where to probe on the fact side and
// how to build the key→payload table from the dimension.
type joinPlan struct {
	dim        *oltp.TableHandle
	probeSlots []int // global slots of the key columns (fact scan, or an earlier join's payload)
	keyCols    []int // dimension physical columns of the keys
	payCols    []int // dimension physical columns of the projected payload
	preds      []dimFilter
	// payBase is the join's first global payload index: payload column i
	// occupies slot nscan+payBase+i, shared by every execution path.
	payBase int
	// words is the per-row broadcast width in 8-byte words — the distinct
	// dimension columns touched (keys, payload, predicate columns) —
	// charged to the cost model as build bytes.
	words int
}

// Compiled is a bound, executable plan. It implements olap.Query, so it
// runs through the engine and the adaptive scheduler exactly like the
// hand-written workload queries. A plan built with Param placeholders
// compiles to a prepared statement: Bind resolves names, types and
// kernels once, and WithArgs stamps values per execution (see params.go).
type Compiled struct {
	name    string
	class   costmodel.WorkClass
	fact    string
	factH   *oltp.TableHandle // fact handle; its secondary indexes drive morsel skipping
	cols    []int
	filters []filter
	// joins holds the compiled hash joins in execution order (greedy by
	// default; see order.go). Each probes the fact side — or an earlier
	// join's payload — against its dimension build table.
	joins []*joinPlan
	// npayTotal is the total projected payload width across all joins;
	// payload columns occupy global slots nscan..nscan+npayTotal-1.
	npayTotal int
	groups    []int // slots of the group-key columns (fact or payload)
	aggs      []aggPlan
	outCols   []string
	having    []havingFilter
	order     olap.Order
	ordered   bool
	limit     int
	// params are the predicate sites awaiting WithArgs values, names the
	// cached distinct placeholder names; stamped marks a statement
	// produced by WithArgs as executable.
	params  []paramSite
	names   []string
	stamped bool
	// cache memoizes the last WithArgs stamping. It is a shared pointer:
	// WithArgs copies the Compiled by value, and every copy must consult
	// (and feed) the same cache as the statement it was stamped from. Nil
	// for parameterless plans.
	cache *stmtCache
	// fuse is the Bind-time kernel shape (see kernel.go). It is shared
	// by every WithArgs clone: the shape is value-independent, and each
	// Prepare specializes a concrete kernel from the clone's stamped
	// predicate values.
	fuse *fuseShape
}

// havingFilter is a compiled post-aggregation predicate over one output
// column (by index into the emitted row).
type havingFilter struct {
	col int
	ftest
}

// Name implements olap.Query.
func (c *Compiled) Name() string { return c.name }

// Class implements olap.Query.
func (c *Compiled) Class() costmodel.WorkClass { return c.class }

// FactTable implements olap.Query.
func (c *Compiled) FactTable() string { return c.fact }

// Columns implements olap.Query.
func (c *Compiled) Columns() []int { return c.cols }

// indexedDimRows narrows one join's build-side scan through the
// dimension's secondary index: when an Eq predicate (an intact
// single-word range after stamping) is served by a complete index, the
// ascending posting rows replace the full scan. The remaining
// predicates still run per row — postings only shrink the candidate
// set, so the build side is identical to a full scan. Columns that have
// ever been updated in place are left alone: their postings can lag a
// concurrent writer, while a full ReadActive scan cannot.
func indexedDimRows(j *joinPlan) ([]int64, bool) {
	dh := j.dim
	if dh.Sec == nil {
		return nil, false
	}
	dt := dh.Table()
	for i := range j.preds {
		f := &j.preds[i]
		if f.kind != fIntRange || f.ilo != f.ihi {
			continue
		}
		if dt.ColumnUpdateCount(f.col) != 0 {
			continue
		}
		post, wm, ok := dh.Sec.Lookup(f.col, f.ilo)
		if !ok || wm != dt.Rows() {
			continue
		}
		rows := make([]int64, 0, post.Count())
		post.ForEach(func(r int64) { rows = append(rows, r) })
		return rows, true
	}
	return nil, false
}

// Bind compiles the plan against a catalog: table and column names resolve
// to physical indexes, predicates specialize to the column types, and the
// work class is fixed from the plan shape. Join payload columns resolve
// against the dimension's schema and occupy virtual slots after the fact
// scan list, so downstream group-by and aggregation address them exactly
// like scanned columns. The returned query is reusable across executions;
// the join build side is re-read at each Prepare.
func (p *Plan) Bind(cat Catalog) (*Compiled, error) {
	if p == nil {
		return nil, fmt.Errorf("query: nil plan")
	}
	if p.err != nil {
		return nil, p.err
	}
	if isNilCatalog(cat) {
		return nil, fmt.Errorf("query: nil catalog binding %q (no database loaded?)", p.Name())
	}
	h := cat.Handle(p.table)
	if h == nil {
		return nil, fmt.Errorf("query: unknown table %q", p.table)
	}
	tab := h.Table()
	schema := tab.Schema()
	if len(p.aggs) == 0 {
		return nil, fmt.Errorf("query: plan %q has no aggregates; add Agg(query.Count()) at minimum", p.Name())
	}

	// Resolve the join graph first so inferred payload names are settled
	// before the fact scan list forms, and the execution order is fixed (order.go).
	written, ordered, factPreds, err := p.resolveJoins(cat, schema)
	if err != nil {
		return nil, err
	}
	preds := p.preds
	if len(factPreds) > 0 {
		preds = append(append([]Pred(nil), p.preds...), factPreds...)
	}
	isPayload := map[string]bool{}
	payType := map[string]columnar.Type{}
	payOwner := map[string]*rjoin{}
	for _, rj := range written {
		for _, pc := range rj.spec.payload {
			idx := rj.schema.ColumnIndex(pc)
			if idx < 0 {
				return nil, fmt.Errorf("query: dimension %q has no column %q", rj.spec.dim, pc)
			}
			if rj.schema.Columns[idx].Type == columnar.String {
				return nil, fmt.Errorf("query: join payload column %q is a string; only int64 and float64 payloads project", pc)
			}
			if schema.ColumnIndex(pc) >= 0 {
				return nil, fmt.Errorf("%w: join payload column %q is ambiguous: fact table %q has a column of the same name",
					ErrAmbiguousColumn, pc, p.table)
			}
			if other, dup := payOwner[pc]; dup && other != rj {
				return nil, fmt.Errorf("%w: %q is reachable from relations %q and %q",
					ErrAmbiguousColumn, pc, other.spec.dim, rj.spec.dim)
			}
			isPayload[pc] = true
			payType[pc] = rj.schema.Columns[idx].Type
			payOwner[pc] = rj
		}
	}

	// Assemble the scan list: explicit projection order, or reference
	// order (filters, probe keys, group keys, aggregate inputs) over the
	// joins in written order — both ordering modes bind to an identical
	// scan layout. Join payload columns never scan — the probe
	// materializes them.
	var refs []string
	seen := map[string]bool{}
	addRef := func(col string) {
		if col != "" && !seen[col] && !isPayload[col] {
			seen[col] = true
			refs = append(refs, col)
		}
	}
	for _, pr := range preds {
		if isPayload[pr.col] {
			return nil, fmt.Errorf("query: Filter on join payload column %q; use Relation.Filter (build side) or Having (after aggregation)", pr.col)
		}
		addRef(pr.col)
	}
	for _, rj := range written {
		for i, fk := range rj.spec.factKeys {
			if rj.keySrc[i] != "" {
				continue // sourced from another relation's payload
			}
			addRef(fk)
		}
	}
	for _, g := range p.groups {
		addRef(g)
	}
	for _, a := range p.aggs {
		addRef(a.col)
	}
	scan := p.scanCols
	if len(scan) == 0 {
		scan = refs
	} else {
		listed := map[string]bool{}
		for _, c := range scan {
			listed[c] = true
		}
		for _, r := range refs {
			if !listed[r] {
				return nil, fmt.Errorf("query: plan %q references column %q missing from Scan's projection", p.Name(), r)
			}
		}
	}
	if len(scan) == 0 {
		return nil, fmt.Errorf("query: plan %q scans no columns", p.Name())
	}

	c := &Compiled{
		name:  p.Name(),
		fact:  p.table,
		factH: h,
		cols:  make([]int, len(scan)),
	}
	slots := map[string]int{}
	for i, name := range scan {
		idx := schema.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("query: table %q has no column %q", p.table, name)
		}
		c.cols[i] = idx
		slots[name] = i
	}
	// Payload columns take virtual slots after the scanned fact columns,
	// assigned in execution order so a later join can probe an earlier
	// join's payload; the probes fill their vectors per block.
	for _, rj := range ordered {
		rj.payBase = c.npayTotal
		for _, pc := range rj.spec.payload {
			slots[pc] = len(scan) + c.npayTotal
			c.npayTotal++
		}
	}

	for _, pr := range preds {
		if len(predParams(pr)) > 0 {
			idx := schema.ColumnIndex(pr.col) // resolved by the scan-list loop above
			if err := c.noteParams(pr, schema.Columns[idx].Type, tab.Dict(idx), siteFilter, len(c.filters), 0); err != nil {
				return nil, err
			}
			c.filters = append(c.filters, filter{slot: slots[pr.col], ftest: ftest{kind: fNever}})
			continue
		}
		test, err := compileTest(tab, schema, pr)
		if err != nil {
			return nil, err
		}
		c.filters = append(c.filters, filter{slot: slots[pr.col], ftest: test})
	}

	for ji, rj := range ordered {
		jp, err := compileJoin(c, rj, ji, schema, slots, payType)
		if err != nil {
			return nil, err
		}
		jp.payBase = rj.payBase
		c.joins = append(c.joins, jp)
	}
	switch {
	case c.npayTotal > 0:
		c.class = costmodel.JoinProject
	case len(c.joins) > 0:
		c.class = costmodel.JoinProbe
	case len(p.groups) > 0:
		c.class = costmodel.ScanGroupBy
	default:
		c.class = costmodel.ScanReduce
	}

	colType := func(name string) columnar.Type {
		if t, ok := payType[name]; ok {
			return t
		}
		return schema.Columns[c.cols[slots[name]]].Type
	}

	for _, g := range p.groups {
		idx, ok := slots[g]
		if !ok {
			return nil, fmt.Errorf("query: group column %q missing from the scan list", g)
		}
		if colType(g) != columnar.Int64 {
			return nil, fmt.Errorf("query: group column %q is %v; only int64 keys are supported", g, colType(g))
		}
		c.groups = append(c.groups, idx)
	}

	for _, g := range p.groups {
		c.outCols = append(c.outCols, g)
	}
	for _, a := range p.aggs {
		ap := aggPlan{kind: a.kind, slot: -1, condSlot: -1}
		switch a.kind {
		case aggCount:
		case aggCountIf:
			slot, ok := slots[a.cond.col]
			if !ok {
				return nil, fmt.Errorf("query: CountIf over unknown column %q", a.cond.col)
			}
			ctab, cschema := tab, schema
			if owner := payOwner[a.cond.col]; owner != nil {
				ctab, cschema = owner.dh.Table(), owner.schema
			}
			if len(predParams(*a.cond)) > 0 {
				idx := cschema.ColumnIndex(a.cond.col)
				if err := c.noteParams(*a.cond, cschema.Columns[idx].Type, ctab.Dict(idx), siteCond, len(c.aggs), 0); err != nil {
					return nil, err
				}
				ap.cond, ap.condSlot = &ftest{kind: fNever}, slot
				break
			}
			test, err := compileTest(ctab, cschema, *a.cond)
			if err != nil {
				return nil, err
			}
			ap.cond, ap.condSlot = &test, slot
		default:
			slot, ok := slots[a.col]
			if !ok {
				return nil, fmt.Errorf("query: aggregate %v over unknown column %q", a.kind, a.col)
			}
			switch colType(a.col) {
			case columnar.Int64:
			case columnar.Float64:
				ap.decode = true
			default:
				return nil, fmt.Errorf("query: cannot %v string column %q", a.kind, a.col)
			}
			ap.slot = slot
		}
		c.aggs = append(c.aggs, ap)
		c.outCols = append(c.outCols, a.outName())
	}

	outIndex := func(name string) int {
		for i, n := range c.outCols {
			if n == name {
				return i
			}
		}
		return -1
	}
	for _, pr := range p.having {
		col := outIndex(pr.col)
		if col < 0 {
			return nil, fmt.Errorf("query: Having column %q is not an output column (have %v)", pr.col, c.outCols)
		}
		if len(predParams(pr)) > 0 {
			if err := c.noteParams(pr, columnar.Float64, nil, siteHaving, len(c.having), 0); err != nil {
				return nil, err
			}
			c.having = append(c.having, havingFilter{col: col, ftest: ftest{kind: fNever}})
			continue
		}
		test, err := makeFloatTest(pr)
		if err != nil {
			return nil, err
		}
		c.having = append(c.having, havingFilter{col: col, ftest: test})
	}
	c.names = paramNames(c.params)
	if p.orderCol != "" {
		col := outIndex(p.orderCol)
		if col < 0 {
			return nil, fmt.Errorf("query: OrderBy column %q is not an output column (have %v)", p.orderCol, c.outCols)
		}
		c.ordered = true
		c.order = olap.Order{Col: col, Desc: p.orderDesc}
		c.limit = p.limit
	} else if p.limit > 0 {
		return nil, fmt.Errorf("query: Limit without OrderBy would be non-deterministic; add OrderBy")
	}
	if len(c.params) > 0 {
		c.cache = &stmtCache{}
	}
	c.fuse = buildFuseShape(c)
	return c, nil
}

// compileJoin resolves one join's dimension side: key columns (int64 on
// both sides — the fact side may be a fact scan column or an earlier
// join's payload), payload columns and build-side predicates.
// Parameterized build-side predicates record their stamping sites on c,
// keyed by the join's execution index.
func compileJoin(c *Compiled, rj *rjoin, jidx int, schema columnar.Schema, slots map[string]int, payType map[string]columnar.Type) (*joinPlan, error) {
	j := rj.spec
	dh := rj.dh
	dt := dh.Table()
	dschema := rj.schema
	jp := &joinPlan{dim: dh}
	touched := map[int]bool{}
	for i, fk := range j.factKeys {
		slot, ok := slots[fk]
		if !ok {
			return nil, fmt.Errorf("query: join fact key %q missing from the scan list", fk)
		}
		ftype, isPay := payType[fk]
		if !isPay {
			ftype = schema.Columns[schema.ColumnIndex(fk)].Type
		}
		if ftype != columnar.Int64 {
			return nil, fmt.Errorf("query: join fact key %q is not int64", fk)
		}
		kc := dschema.ColumnIndex(j.dimKeys[i])
		if kc < 0 {
			return nil, fmt.Errorf("query: dimension %q has no column %q", j.dim, j.dimKeys[i])
		}
		if dschema.Columns[kc].Type != columnar.Int64 {
			return nil, fmt.Errorf("query: join dimension key %q is not int64", j.dimKeys[i])
		}
		jp.probeSlots = append(jp.probeSlots, slot)
		jp.keyCols = append(jp.keyCols, kc)
		touched[kc] = true
	}
	for _, pc := range j.payload {
		col := dschema.ColumnIndex(pc) // validated in Bind
		jp.payCols = append(jp.payCols, col)
		touched[col] = true
	}
	for _, pr := range j.preds {
		col := dschema.ColumnIndex(pr.col)
		if col < 0 {
			return nil, fmt.Errorf("query: dimension %q has no column %q", j.dim, pr.col)
		}
		if len(predParams(pr)) > 0 {
			if err := c.noteParams(pr, dschema.Columns[col].Type, dt.Dict(col), siteJoin, len(jp.preds), jidx); err != nil {
				return nil, err
			}
			jp.preds = append(jp.preds, dimFilter{col: col, ftest: ftest{kind: fNever}})
			touched[col] = true
			continue
		}
		test, err := compileTest(dt, dschema, pr)
		if err != nil {
			return nil, err
		}
		jp.preds = append(jp.preds, dimFilter{col: col, ftest: test})
		touched[col] = true
	}
	jp.words = len(touched)
	return jp, nil
}

// compileTest specializes a predicate to the column's storage type: int64
// columns compare raw words, float64 columns compare decoded IEEE values,
// and string columns compare dictionary codes (equality only). Ordered
// comparisons canonicalize to inclusive ranges so the block path needs no
// per-row calls.
func compileTest(tab *columnar.Table, schema columnar.Schema, pr Pred) (ftest, error) {
	idx := schema.ColumnIndex(pr.col)
	if idx < 0 {
		return ftest{}, fmt.Errorf("query: table %q has no column %q", schema.Name, pr.col)
	}
	switch schema.Columns[idx].Type {
	case columnar.Int64:
		return makeIntTest(pr)
	case columnar.Float64:
		return makeFloatTest(pr)
	case columnar.String:
		return makeStringTest(tab.Dict(idx), pr)
	}
	return ftest{}, fmt.Errorf("query: unsupported predicate %v on column %q", pr.op, pr.col)
}

// makeIntTest canonicalizes a predicate over an int64 column into a raw
// word test. WithArgs re-runs only this step when stamping parameters, so
// stamped tests are identical to freshly compiled ones.
func makeIntTest(pr Pred) (ftest, error) {
	lo, err := toInt64(pr.col, pr.lo)
	if err != nil {
		return ftest{}, err
	}
	t := ftest{kind: fIntRange, ilo: math.MinInt64, ihi: math.MaxInt64}
	switch pr.op {
	case opEq:
		t.ilo, t.ihi = lo, lo
	case opNe:
		return ftest{kind: fIntNe, ilo: lo}, nil
	case opGt:
		if lo == math.MaxInt64 {
			return ftest{kind: fNever}, nil
		}
		t.ilo = lo + 1
	case opGe:
		t.ilo = lo
	case opLt:
		if lo == math.MinInt64 {
			return ftest{kind: fNever}, nil
		}
		t.ihi = lo - 1
	case opLe:
		t.ihi = lo
	case opBetween:
		hi, err := toInt64(pr.col, pr.hi)
		if err != nil {
			return ftest{}, err
		}
		t.ilo, t.ihi = lo, hi
	case opNotBetween:
		hi, err := toInt64(pr.col, pr.hi)
		if err != nil {
			return ftest{}, err
		}
		return ftest{kind: fIntNotRange, ilo: lo, ihi: hi}, nil
	}
	return t, nil
}

// makeFloatTest canonicalizes a predicate in IEEE float space — float64
// columns, and the Having path where every emitted cell (group keys
// included) is already a decoded float64.
func makeFloatTest(pr Pred) (ftest, error) {
	lo, err := toFloat64(pr.col, pr.lo)
	if err != nil {
		return ftest{}, err
	}
	t := ftest{kind: fFloatRange, flo: math.Inf(-1), fhi: math.Inf(1)}
	switch pr.op {
	case opEq:
		t.flo, t.fhi = lo, lo
	case opNe:
		return ftest{kind: fFloatNe, flo: lo}, nil
	case opGt:
		t.flo = math.Nextafter(lo, math.Inf(1))
	case opGe:
		t.flo = lo
	case opLt:
		t.fhi = math.Nextafter(lo, math.Inf(-1))
	case opLe:
		t.fhi = lo
	case opBetween, opNotBetween:
		hi, err := toFloat64(pr.col, pr.hi)
		if err != nil {
			return ftest{}, err
		}
		if pr.op == opNotBetween {
			return ftest{kind: fFloatNotRange, flo: lo, fhi: hi}, nil
		}
		t.flo, t.fhi = lo, hi
	}
	return t, nil
}

// makeStringTest resolves a string literal through the column's
// dictionary: equality against a known code, never-match for unknown
// strings (inequality then matches everything).
func makeStringTest(dict *columnar.Dict, pr Pred) (ftest, error) {
	s, ok := pr.lo.(string)
	if !ok {
		return ftest{}, fmt.Errorf("query: string column %q compared with %v (%T): %w", pr.col, pr.lo, pr.lo, ErrPredType)
	}
	if pr.op != opEq && pr.op != opNe {
		return ftest{}, fmt.Errorf("query: string column %q supports only Eq/Ne, got %v", pr.col, pr.op)
	}
	code, known := dict.Lookup(s)
	if pr.op == opEq {
		if !known {
			return ftest{kind: fNever}, nil
		}
		return ftest{kind: fIntRange, ilo: code, ihi: code}, nil
	}
	if !known {
		return ftest{kind: fIntRange, ilo: math.MinInt64, ihi: math.MaxInt64}, nil
	}
	return ftest{kind: fIntNe, ilo: code}, nil
}

func toInt64(col string, v any) (int64, error) {
	switch x := v.(type) {
	case int:
		return int64(x), nil
	case int8:
		return int64(x), nil
	case int16:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case int64:
		return x, nil
	case uint8:
		return int64(x), nil
	case uint16:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case float64:
		if x != float64(int64(x)) {
			return 0, fmt.Errorf("query: non-integral value %v for int64 column %q: %w", x, col, ErrPredType)
		}
		return int64(x), nil
	default:
		return 0, fmt.Errorf("query: value %v (%T) unusable for int64 column %q: %w", v, v, col, ErrPredType)
	}
}

func toFloat64(col string, v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("query: value %v (%T) unusable for float64 column %q: %w", v, v, col, ErrPredType)
	}
}

// isNilCatalog also catches a typed-nil *ch.DB stored in the interface.
func isNilCatalog(cat Catalog) bool {
	if cat == nil {
		return true
	}
	v := reflect.ValueOf(cat)
	return v.Kind() == reflect.Pointer && v.IsNil()
}

// --- shared kernel state ---

// gkey is a composite group key (unused trailing slots stay zero; the key
// width is fixed per plan so they never collide).
type gkey [maxGroupCols]int64

// denseLen bounds the dense fast path for single-column group keys: keys
// in [0, denseLen) index a flat accumulator array instead of a hash map
// (warehouse ids, line numbers, small dictionary codes); larger keys
// spill to the map.
const denseLen = 1024

// acc is one aggregate's partial state. Sum and Avg use sum+count, Min/Max
// use ext+seen, Count uses count alone.
type acc struct {
	sum   float64
	ext   float64
	count int64
	seen  bool
}

// finishRes applies the post-aggregation stages over materialized rows:
// Having, then the ordered (top-k) merge. Global and unordered grouped
// plans finish here; an ordered grouped plan fuses both stages into its
// merge pass (see finishOrdered).
//
//htap:deterministic
func finishRes(c *Compiled, res olap.Result) olap.Result {
	if len(c.having) > 0 {
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			if c.keeps(row) {
				kept = append(kept, row)
			}
		}
		res.Rows = kept
	}
	if c.ordered {
		res.SortedRows = int64(len(res.Rows))
		res.Rows = olap.SortRows(res.Rows, c.order, c.limit)
	}
	return res
}

// keeps reports whether an output row passes every Having predicate.
func (c *Compiled) keeps(row []float64) bool {
	for i := range c.having {
		h := &c.having[i]
		if !h.fmatch(row[h.col]) {
			return false
		}
	}
	return true
}
