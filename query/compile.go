package query

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

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

// match evaluates the test row-at-a-time (dimension builds; the fact-side
// block path uses the vectorized loops in filterAll/filterSel instead).
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
	// fuse is the Bind-time fusion decision (see kernel.go). It is shared
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

// Prepare implements olap.Query. Plans whose shape the fused compiler
// covers (see kernel.go) specialize into a single-pass kernel from the
// statement's current predicate values; the rest run the staged path
// below, which builds each join's key→payload table from the dimension's
// active instance (dimensions are static under the transactional
// workload) and reports its broadcast volume. Single-column keys hash
// raw int64 words; composite keys hash a fixed-width array. Payload
// rows share one slab so a large build side costs one allocation per
// growth, not one per key.
func (c *Compiled) Prepare() (olap.Exec, int64) {
	if c.fuse != nil && c.fuse.ok && !disableFusion.Load() {
		return c.prepareFused()
	}
	e := &exec{c: c}
	var buildBytes int64
	for _, j := range c.joins {
		bld, scanned := buildStaged(j)
		e.builds = append(e.builds, bld)
		buildBytes += scanned * int64(j.words) * columnar.WordBytes
	}
	return e, buildBytes
}

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

// buildStaged loads one join's map-backed build side, pre-filtered
// through the dimension's secondary index when an Eq predicate allows
// it. Returns the build and the number of dimension rows actually read
// (the broadcast volume the cost model is charged).
func buildStaged(j *joinPlan) (stagedBuild, int64) {
	dt := j.dim.Table()
	rows := dt.Rows()
	npay := len(j.payCols)
	single := len(j.keyCols) == 1
	var bld stagedBuild
	if single {
		bld.m1 = make(map[int64][]int64)
	} else {
		bld.mK = make(map[jkey][]int64)
	}
	cands, narrowed := indexedDimRows(j)
	scanned := rows
	if narrowed {
		scanned = int64(len(cands))
	}
	var slab []int64
	add := func(r int64) {
		for i := range j.preds {
			f := &j.preds[i]
			if !f.match(dt.ReadActive(r, f.col)) {
				return
			}
		}
		var pay []int64
		if npay > 0 {
			start := len(slab)
			for _, pc := range j.payCols {
				slab = append(slab, dt.ReadActive(r, pc))
			}
			pay = slab[start:len(slab):len(slab)]
		}
		if single {
			bld.m1[dt.ReadActive(r, j.keyCols[0])] = pay
		} else {
			var k jkey
			for d, kc := range j.keyCols {
				k[d] = dt.ReadActive(r, kc)
			}
			bld.mK[k] = pay
		}
	}
	if narrowed {
		for _, r := range cands {
			add(r)
		}
	} else {
		for r := int64(0); r < rows; r++ {
			add(r)
		}
	}
	return bld, scanned
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

	// Resolve the joins first — graph edges or the deprecated shims — so
	// payload names are settled (explicit or inferred) before the fact
	// scan list forms, and the execution order is fixed (order.go).
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
			return nil, fmt.Errorf("query: Filter on join payload column %q; use JoinFilter (build side) or Having (after aggregation)", pr.col)
		}
		addRef(pr.col)
	}
	for _, rj := range written {
		for i, fk := range rj.spec.factKeys {
			if rj.keySrc[i] != "" {
				continue // sourced from another relation's payload
			}
			if len(p.graph) == 0 && isPayload[fk] {
				return nil, fmt.Errorf("query: join fact key %q is itself a payload column", fk)
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
	if !c.fuse.ok {
		logFallback(c.name, c.fuse.reason)
	}
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

// --- execution kernels ---

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

// stagedBuild is one join's build side: single-column keys hash raw
// words (m1), composite keys hash fixed-width arrays (mK). Values are
// the projected payload words (nil for semi-joins).
type stagedBuild struct {
	m1 map[int64][]int64
	mK map[jkey][]int64
}

type exec struct {
	c *Compiled
	// builds holds one build side per compiled join, in execution order.
	builds []stagedBuild
	// scratch pools selection-vector, payload-vector and accumulator-row
	// buffers across the task's morsels and workers: locals are per-morsel
	// (for the engine's deterministic ordered merge), so reusable scratch
	// must live with the exec, not the local.
	scratch sync.Pool
}

// scratchBufs is transient per-block working memory; contents never
// outlive one Consume call, so pooling cannot affect results.
type scratchBufs struct {
	sel  []int32
	rows [][]acc
	pay  [][]int64
	cols [][]int64
}

func (e *exec) getScratch() *scratchBufs {
	if s, ok := e.scratch.Get().(*scratchBufs); ok {
		return s
	}
	return &scratchBufs{}
}

// payloadVecs returns npay vectors of length n for the probe to fill at
// surviving row indexes; downstream kernels index them like block columns.
func (s *scratchBufs) payloadVecs(npay, n int) [][]int64 {
	if cap(s.pay) < npay {
		s.pay = make([][]int64, npay)
	}
	s.pay = s.pay[:npay]
	for k := range s.pay {
		if cap(s.pay[k]) < n {
			s.pay[k] = make([]int64, n)
		}
		s.pay[k] = s.pay[k][:n]
	}
	return s.pay
}

type local struct {
	e       *exec
	global  []acc          // ungrouped accumulators
	flat    []acc          // single-key fast path: flat[key*naggs+j]
	present []bool         // flat occupancy, indexed by key
	dense   bool           // single-key plan: flat path enabled
	groups  map[gkey][]acc // grouped accumulators (spill / composite keys)

	// spillKeys records groups insertion order so Merge can walk the
	// spilled keys deterministically instead of ranging the map.
	spillKeys []gkey
}

// NewLocal implements olap.Exec. Locals are per-morsel (the engine merges
// them in morsel order for deterministic results), so group state
// allocates lazily, sized to the key domain each morsel actually touches.
func (e *exec) NewLocal() olap.Local {
	l := &local{e: e, dense: len(e.c.groups) == 1}
	if len(e.c.groups) == 0 {
		l.global = make([]acc, len(e.c.aggs))
	}
	return l
}

// ensureDense grows the flat accumulator array to cover key k. Growth
// doubles, so a morsel touching only small keys (Q1's 15 line numbers, a
// handful of warehouse ids) pays for a few dozen slots, not denseLen.
func (l *local) ensureDense(k int64, nagg int) {
	if int(k) < len(l.present) {
		return
	}
	n := 16
	for n <= int(k) {
		n *= 2
	}
	if n > denseLen {
		n = denseLen
	}
	flat := make([]acc, n*nagg)
	copy(flat, l.flat)
	present := make([]bool, n)
	copy(present, l.present)
	l.flat, l.present = flat, present
}

// Consume implements olap.Local with exec-pooled scratch — the path for
// callers that drive Locals directly, without an engine worker.
func (l *local) Consume(b olap.Block) {
	sc := l.e.getScratch()
	l.consume(b, sc)
	l.e.scratch.Put(sc)
}

// ConsumeScratch implements olap.ScratchConsumer: scratch comes from the
// claiming pool worker (or inline drainer), which owns it for its whole
// lifetime — so concurrent morsels never bounce scratch between cores
// and a warmed worker allocates nothing here.
func (l *local) ConsumeScratch(b olap.Block, ws *olap.Scratch) {
	sc, ok := ws.Kernel.(*scratchBufs)
	if !ok {
		sc = &scratchBufs{}
		ws.Kernel = sc
	}
	l.consume(b, sc)
}

// consume is the staged pipeline: each filter runs as a tight range loop
// producing/compacting a selection vector, the hash join probes the
// surviving rows (materializing payload vectors for full joins), and
// each aggregate then updates in its own pass — so per-row work never
// dispatches through interfaces or closures (the pushdown the builder
// promises).
func (l *local) consume(b olap.Block, sc *scratchBufs) {
	c := l.e.c
	sel := sc.sel[:0]
	if len(c.filters) == 0 {
		for i := 0; i < b.N; i++ {
			sel = append(sel, int32(i))
		}
	} else {
		for fi := range c.filters {
			f := &c.filters[fi]
			vec := b.Cols[f.slot]
			if fi == 0 {
				sel = filterAll(&f.ftest, vec, b.N, sel)
			} else {
				sel = filterSel(&f.ftest, vec, sel)
			}
		}
	}
	if len(sel) == 0 {
		sc.sel = sel // retain scratch capacity
		return
	}
	cols := b.Cols
	if len(c.joins) > 0 {
		// Assemble the full column view (fact scan + every payload vector)
		// up front: a later join may probe an earlier join's payload slot,
		// so all virtual slots must be addressable before the first probe.
		var pay [][]int64
		if c.npayTotal > 0 {
			pay = sc.payloadVecs(c.npayTotal, b.N)
			cols = append(sc.cols[:0], b.Cols...)
			cols = append(cols, pay...)
			sc.cols = cols[:0]
		}
		for ji := range c.joins {
			j := c.joins[ji]
			bld := &l.e.builds[ji]
			npay := len(j.payCols)
			out := sel[:0]
			if len(j.probeSlots) == 1 {
				vec := cols[j.probeSlots[0]]
				for _, i := range sel {
					v, ok := bld.m1[vec[i]]
					if !ok {
						continue
					}
					for k := 0; k < npay; k++ {
						pay[j.payBase+k][i] = v[k]
					}
					out = append(out, i)
				}
			} else {
				for _, i := range sel {
					var k jkey
					for d, s := range j.probeSlots {
						k[d] = cols[s][i]
					}
					v, ok := bld.mK[k]
					if !ok {
						continue
					}
					for pi := 0; pi < npay; pi++ {
						pay[j.payBase+pi][i] = v[pi]
					}
					out = append(out, i)
				}
			}
			sel = out
			if len(sel) == 0 {
				break
			}
		}
	}
	sc.sel = sel // retain scratch capacity
	if len(sel) == 0 {
		return
	}

	if l.global != nil {
		l.updateAccs(cols, sel, nil)
		return
	}
	if l.dense {
		l.updateDense(cols, sel)
		return
	}
	// Composite keys: resolve each selected row's accumulator row once,
	// then update aggregate-by-aggregate.
	rows := sc.rows[:0]
	for _, i := range sel {
		var k gkey
		for j, s := range c.groups {
			k[j] = cols[s][i]
		}
		rows = append(rows, l.lookupSpill(k))
	}
	sc.rows = rows
	l.updateAccs(cols, sel, rows)
}

// denseAt returns the j-th accumulator of key k: flat-array for keys the
// occupancy pass covered, spill map otherwise.
func (l *local) denseAt(k int64, j, nagg int) *acc {
	if uint64(k) < uint64(len(l.present)) {
		return &l.flat[int(k)*nagg+j]
	}
	return &l.lookupSpill(gkey{k})[j]
}

// updateDense is the single-key group path: accumulators live in one flat
// array indexed by key*naggs, out-of-range keys spill to the map. The
// aggregate kind dispatch is hoisted out of the row loops.
func (l *local) updateDense(cols [][]int64, sel []int32) {
	c := l.e.c
	nagg := len(c.aggs)
	kvec := cols[c.groups[0]]
	maxk := int64(-1)
	for _, i := range sel {
		if k := kvec[i]; uint64(k) < denseLen && k > maxk {
			maxk = k
		}
	}
	if maxk >= 0 {
		l.ensureDense(maxk, nagg)
	}
	for _, i := range sel {
		if k := kvec[i]; uint64(k) < uint64(len(l.present)) {
			l.present[k] = true
		}
	}
	for j := range c.aggs {
		a := &c.aggs[j]
		switch {
		case a.kind == aggCount:
			for _, i := range sel {
				l.denseAt(kvec[i], j, nagg).count++
			}
		case a.kind == aggCountIf:
			cvec := cols[a.condSlot]
			for _, i := range sel {
				// Touch the accumulator unconditionally: a spill-range
				// group whose rows all fail the condition must still
				// exist (and emit 0), exactly like a dense-range one.
				st := l.denseAt(kvec[i], j, nagg)
				if a.cond.match(cvec[i]) {
					st.count++
				}
			}
		case a.kind == aggSum || a.kind == aggAvg:
			vec := cols[a.slot]
			if a.decode {
				for _, i := range sel {
					st := l.denseAt(kvec[i], j, nagg)
					st.sum += columnar.DecodeFloat(vec[i])
					st.count++
				}
			} else {
				for _, i := range sel {
					st := l.denseAt(kvec[i], j, nagg)
					st.sum += float64(vec[i])
					st.count++
				}
			}
		default: // aggMin, aggMax
			vec := cols[a.slot]
			isMin := a.kind == aggMin
			for _, i := range sel {
				st := l.denseAt(kvec[i], j, nagg)
				v := float64(vec[i])
				if a.decode {
					v = columnar.DecodeFloat(vec[i])
				}
				if !st.seen || (isMin && v < st.ext) || (!isMin && v > st.ext) {
					st.ext = v
					st.seen = true
				}
			}
		}
	}
}

func (l *local) lookupSpill(k gkey) []acc {
	if l.groups == nil {
		l.groups = make(map[gkey][]acc)
	}
	accs := l.groups[k]
	if accs == nil {
		accs = make([]acc, len(l.e.c.aggs))
		l.groups[k] = accs
		l.spillKeys = append(l.spillKeys, k)
	}
	return accs
}

// updateAccs applies every aggregate over the selected rows. rows[ri] is
// the accumulator row for sel[ri]; nil rows means the ungrouped global
// accumulators. Each accumulator sees its updates in row order, so totals
// are bit-identical to a row-at-a-time evaluation.
func (l *local) updateAccs(cols [][]int64, sel []int32, rows [][]acc) {
	c := l.e.c
	for j := range c.aggs {
		a := &c.aggs[j]
		if rows == nil {
			l.updateGlobal(cols, sel, j)
			continue
		}
		if a.kind == aggCount {
			for ri := range sel {
				rows[ri][j].count++
			}
			continue
		}
		if a.kind == aggCountIf {
			cvec := cols[a.condSlot]
			for ri, i := range sel {
				if a.cond.match(cvec[i]) {
					rows[ri][j].count++
				}
			}
			continue
		}
		vec := cols[a.slot]
		for ri, i := range sel {
			st := &rows[ri][j]
			v := float64(vec[i])
			if a.decode {
				v = columnar.DecodeFloat(vec[i])
			}
			switch a.kind {
			case aggSum, aggAvg:
				st.sum += v
				st.count++
			case aggMin:
				if !st.seen || v < st.ext {
					st.ext = v
					st.seen = true
				}
			case aggMax:
				if !st.seen || v > st.ext {
					st.ext = v
					st.seen = true
				}
			}
		}
	}
}

// updateGlobal streams one ungrouped aggregate over the selection with
// register accumulation (the hot path for ScanReduce plans like Q6).
func (l *local) updateGlobal(cols [][]int64, sel []int32, j int) {
	a := &l.e.c.aggs[j]
	st := &l.global[j]
	switch a.kind {
	case aggCount:
		st.count += int64(len(sel))
	case aggCountIf:
		cvec := cols[a.condSlot]
		for _, i := range sel {
			if a.cond.match(cvec[i]) {
				st.count++
			}
		}
	case aggSum, aggAvg:
		vec := cols[a.slot]
		s := st.sum
		if a.decode {
			for _, i := range sel {
				s += columnar.DecodeFloat(vec[i])
			}
		} else {
			for _, i := range sel {
				s += float64(vec[i])
			}
		}
		st.sum = s
		st.count += int64(len(sel))
	case aggMin:
		vec := cols[a.slot]
		for _, i := range sel {
			v := float64(vec[i])
			if a.decode {
				v = columnar.DecodeFloat(vec[i])
			}
			if !st.seen || v < st.ext {
				st.ext = v
				st.seen = true
			}
		}
	case aggMax:
		vec := cols[a.slot]
		for _, i := range sel {
			v := float64(vec[i])
			if a.decode {
				v = columnar.DecodeFloat(vec[i])
			}
			if !st.seen || v > st.ext {
				st.ext = v
				st.seen = true
			}
		}
	}
}

// filterAll scans the whole block through one test, appending survivors.
func filterAll(t *ftest, vec []int64, n int, sel []int32) []int32 {
	switch t.kind {
	case fIntRange:
		lo, hi := t.ilo, t.ihi
		for i := 0; i < n; i++ {
			if w := vec[i]; w >= lo && w <= hi {
				sel = append(sel, int32(i))
			}
		}
	case fIntNe:
		v := t.ilo
		for i := 0; i < n; i++ {
			if vec[i] != v {
				sel = append(sel, int32(i))
			}
		}
	case fIntNotRange:
		lo, hi := t.ilo, t.ihi
		for i := 0; i < n; i++ {
			if w := vec[i]; w < lo || w > hi {
				sel = append(sel, int32(i))
			}
		}
	case fFloatRange:
		lo, hi := t.flo, t.fhi
		for i := 0; i < n; i++ {
			if d := columnar.DecodeFloat(vec[i]); d >= lo && d <= hi {
				sel = append(sel, int32(i))
			}
		}
	case fFloatNe:
		v := t.flo
		for i := 0; i < n; i++ {
			if columnar.DecodeFloat(vec[i]) != v {
				sel = append(sel, int32(i))
			}
		}
	case fFloatNotRange:
		lo, hi := t.flo, t.fhi
		for i := 0; i < n; i++ {
			if d := columnar.DecodeFloat(vec[i]); d < lo || d > hi {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// filterSel compacts an existing selection in place through one test.
func filterSel(t *ftest, vec []int64, sel []int32) []int32 {
	out := sel[:0]
	switch t.kind {
	case fIntRange:
		lo, hi := t.ilo, t.ihi
		for _, i := range sel {
			if w := vec[i]; w >= lo && w <= hi {
				out = append(out, i)
			}
		}
	case fIntNe:
		v := t.ilo
		for _, i := range sel {
			if vec[i] != v {
				out = append(out, i)
			}
		}
	case fIntNotRange:
		lo, hi := t.ilo, t.ihi
		for _, i := range sel {
			if w := vec[i]; w < lo || w > hi {
				out = append(out, i)
			}
		}
	case fFloatRange:
		lo, hi := t.flo, t.fhi
		for _, i := range sel {
			if d := columnar.DecodeFloat(vec[i]); d >= lo && d <= hi {
				out = append(out, i)
			}
		}
	case fFloatNe:
		v := t.flo
		for _, i := range sel {
			if columnar.DecodeFloat(vec[i]) != v {
				out = append(out, i)
			}
		}
	case fFloatNotRange:
		lo, hi := t.flo, t.fhi
		for _, i := range sel {
			if d := columnar.DecodeFloat(vec[i]); d < lo || d > hi {
				out = append(out, i)
			}
		}
	}
	return out
}

// Merge implements olap.Exec: the engine passes per-morsel partials in
// morsel order, so combining them in slice order yields bit-identical
// float totals across runs, worker counts and work stealing; grouped
// rows emit sorted ascending by key for a stable output order. Having
// predicates then drop rows, and an OrderBy re-sorts the survivors under
// the plan's total order (bounded-heap top-k when Limit is set) — both
// over fully merged, deterministic values, so ordered results stay
// bitwise reproducible too.
//
//htap:deterministic
func (e *exec) Merge(locals []olap.Local) olap.Result {
	c := e.c
	res := olap.Result{Cols: c.outCols}
	if len(c.groups) == 0 {
		total := make([]acc, len(c.aggs))
		for _, li := range locals {
			mergeAccs(total, li.(*local).global, c.aggs)
		}
		res.Rows = [][]float64{emitRow(c, gkey{}, total)}
		return finishRes(c, res)
	}
	total := make(map[gkey][]acc)
	var keys []gkey
	merge := func(k gkey, accs []acc) {
		t := total[k]
		if t == nil {
			t = make([]acc, len(c.aggs))
			total[k] = t
			keys = append(keys, k)
		}
		mergeAccs(t, accs, c.aggs)
	}
	for _, li := range locals {
		ll := li.(*local)
		if ll.flat != nil {
			nagg := len(c.aggs)
			for kv, on := range ll.present {
				if on {
					merge(gkey{int64(kv)}, ll.flat[kv*nagg:(kv+1)*nagg])
				}
			}
		}
		for _, k := range ll.spillKeys {
			merge(k, ll.groups[k])
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		for d := 0; d < len(c.groups); d++ {
			if keys[i][d] != keys[j][d] {
				return keys[i][d] < keys[j][d]
			}
		}
		return false
	})
	for _, k := range keys {
		res.Rows = append(res.Rows, emitRow(c, k, total[k]))
	}
	return finishRes(c, res)
}

// finishRes applies the post-aggregation stages over materialized rows:
// Having, then the ordered (top-k) merge. The staged path finishes every
// plan here; the fused path only its global and unordered grouped plans
// (an ordered grouped plan fuses both stages into its merge pass).
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

//htap:deterministic
func mergeAccs(dst, src []acc, aggs []aggPlan) {
	for j := range aggs {
		switch aggs[j].kind {
		case aggCount, aggCountIf:
			dst[j].count += src[j].count
		case aggSum, aggAvg:
			dst[j].sum += src[j].sum
			dst[j].count += src[j].count
		case aggMin:
			if src[j].seen && (!dst[j].seen || src[j].ext < dst[j].ext) {
				dst[j].ext = src[j].ext
				dst[j].seen = true
			}
		case aggMax:
			if src[j].seen && (!dst[j].seen || src[j].ext > dst[j].ext) {
				dst[j].ext = src[j].ext
				dst[j].seen = true
			}
		}
	}
}

//htap:deterministic
func emitRow(c *Compiled, k gkey, accs []acc) []float64 {
	row := make([]float64, 0, len(c.groups)+len(c.aggs))
	for d := range c.groups {
		row = append(row, float64(k[d]))
	}
	for j, a := range c.aggs {
		st := accs[j]
		switch a.kind {
		case aggCount, aggCountIf:
			row = append(row, float64(st.count))
		case aggSum:
			row = append(row, st.sum)
		case aggAvg:
			if st.count == 0 {
				row = append(row, 0)
			} else {
				row = append(row, st.sum/float64(st.count))
			}
		case aggMin, aggMax:
			row = append(row, st.ext)
		}
	}
	return row
}
