// Package query is a declarative, logical-plan query builder for
// elastichtap. A Plan describes an analytical query as relational-algebra
// steps over one fact table — scan, filter (σ), an inner or semi hash join
// against a dimension, group-by (γ), aggregate, post-aggregation filter
// (HAVING) and an ordered top-k — and compiles onto the OLAP engine's
// generic executor with predicate pushdown into block consumption and
// per-morsel partial aggregates merged deterministically at the end.
//
// Plans are built fluently, with joins expressed as a graph of edges
// between relations (see graph.go):
//
//	ol := query.Rel("orderline")
//	orders := query.Rel("orders").Filter(query.Eq("o_carrier_id", 0))
//	p := query.Scan("orderline").
//		JoinGraph(query.JoinOn(ol, orders,
//			"ol_w_id", "o_w_id", "ol_d_id", "o_d_id", "ol_o_id", "o_id")).
//		GroupBy("ol_w_id", "ol_d_id", "ol_o_id", "o_entry_d").
//		Agg(query.Sum("ol_amount").As("revenue")).
//		OrderBy("revenue", true).
//		Limit(10)
//	q, err := p.Bind(db) // db is any Catalog, e.g. *ch.DB
//
// The compiled query implements olap.Query, so it flows through the
// adaptive scheduler like the hand-written CH-benCHmark queries: the work
// class for the cost model (Algorithm 2's state choice) is inferred from
// the plan shape — JoinProject for a payload-projecting join, JoinProbe
// for an existence-only semi-join, ScanGroupBy when grouped, ScanReduce
// otherwise — and the ordered merge's sort volume is charged per row.
//
// Construction errors (unknown columns, type mismatches) accumulate in the
// plan and surface at Bind, so fluent chains never need mid-expression
// error checks.
package query

import (
	"fmt"

	"elastichtap/internal/costmodel"
)

// maxGroupCols bounds the composite group key width.
const maxGroupCols = 4

// maxJoinCols bounds the composite join key width (TPC-C primary keys use
// at most three columns: warehouse, district, sequence).
const maxJoinCols = 3

// op enumerates predicate comparisons.
type op int8

const (
	opEq op = iota
	opNe
	opGt
	opGe
	opLt
	opLe
	opBetween
	opNotBetween
)

func (o op) String() string {
	switch o {
	case opEq:
		return "="
	case opNe:
		return "!="
	case opGt:
		return ">"
	case opGe:
		return ">="
	case opLt:
		return "<"
	case opLe:
		return "<="
	case opBetween:
		return "between"
	case opNotBetween:
		return "not between"
	default:
		return fmt.Sprintf("op(%d)", int8(o))
	}
}

// Pred is one column predicate. Build with Eq, Ne, Gt, Ge, Lt, Le or
// Between; values may be any Go integer, float64, or (for Eq/Ne on string
// columns) a string. Predicates compile against the bound table's column
// types, so an int64 column is compared in integer space and a float64
// column in IEEE space.
type Pred struct {
	col    string
	op     op
	lo, hi any
}

// Col returns the column the predicate tests.
func (p Pred) Col() string { return p.col }

func (p Pred) String() string {
	if p.op == opBetween || p.op == opNotBetween {
		return fmt.Sprintf("%s %v %v and %v", p.col, p.op, p.lo, p.hi)
	}
	return fmt.Sprintf("%s %v %v", p.col, p.op, p.lo)
}

// Eq matches rows where col equals v.
func Eq(col string, v any) Pred { return Pred{col: col, op: opEq, lo: v} }

// Ne matches rows where col differs from v.
func Ne(col string, v any) Pred { return Pred{col: col, op: opNe, lo: v} }

// Gt matches rows where col is strictly greater than v.
func Gt(col string, v any) Pred { return Pred{col: col, op: opGt, lo: v} }

// Ge matches rows where col is at least v.
func Ge(col string, v any) Pred { return Pred{col: col, op: opGe, lo: v} }

// Lt matches rows where col is strictly less than v.
func Lt(col string, v any) Pred { return Pred{col: col, op: opLt, lo: v} }

// Le matches rows where col is at most v.
func Le(col string, v any) Pred { return Pred{col: col, op: opLe, lo: v} }

// Between matches rows where lo <= col <= hi (both ends inclusive).
func Between(col string, lo, hi any) Pred { return Pred{col: col, op: opBetween, lo: lo, hi: hi} }

// Not negates a predicate. Ordered comparisons flip (Not(Gt) is Le),
// equality flips to inequality and vice versa, and Between becomes an
// outside-the-range test.
func Not(p Pred) Pred {
	switch p.op {
	case opEq:
		p.op = opNe
	case opNe:
		p.op = opEq
	case opGt:
		p.op = opLe
	case opGe:
		p.op = opLt
	case opLt:
		p.op = opGe
	case opLe:
		p.op = opGt
	case opBetween:
		p.op = opNotBetween
	case opNotBetween:
		p.op = opBetween
	}
	return p
}

// aggKind enumerates aggregate functions.
type aggKind int8

const (
	aggSum aggKind = iota
	aggAvg
	aggMin
	aggMax
	aggCount
	aggCountIf
)

func (k aggKind) String() string {
	switch k {
	case aggSum:
		return "sum"
	case aggAvg:
		return "avg"
	case aggMin:
		return "min"
	case aggMax:
		return "max"
	case aggCount:
		return "count"
	case aggCountIf:
		return "count_if"
	default:
		return fmt.Sprintf("agg(%d)", int8(k))
	}
}

// Agg is one aggregate output column. Build with Sum, Avg, Min, Max,
// Count or CountIf, and optionally rename with As.
type Agg struct {
	kind aggKind
	col  string
	name string
	cond *Pred // aggCountIf: counted only where cond holds
}

// Sum totals a numeric column over each group.
func Sum(col string) Agg { return Agg{kind: aggSum, col: col} }

// Avg averages a numeric column over each group.
func Avg(col string) Agg { return Agg{kind: aggAvg, col: col} }

// Min tracks the minimum of a numeric column over each group.
func Min(col string) Agg { return Agg{kind: aggMin, col: col} }

// Max tracks the maximum of a numeric column over each group.
func Max(col string) Agg { return Agg{kind: aggMax, col: col} }

// Count counts the rows in each group.
func Count() Agg { return Agg{kind: aggCount} }

// CountIf counts the rows in each group satisfying cond — SQL's
// COUNT(CASE WHEN cond THEN 1 END). The condition may test a scanned fact
// column or a join payload column; combine with Not for the complement
// bucket.
func CountIf(cond Pred) Agg { return Agg{kind: aggCountIf, col: cond.col, cond: &cond} }

// As renames the aggregate's output column.
func (a Agg) As(name string) Agg { a.name = name; return a }

// outName returns the result-column name for the aggregate.
func (a Agg) outName() string {
	if a.name != "" {
		return a.name
	}
	if a.kind == aggCount {
		return "count"
	}
	return fmt.Sprintf("%s_%s", a.kind, a.col)
}

// joinSpec is one relation's resolved join step (see resolveGraph): fact
// rows whose factKeys match dimKeys in some dimension row passing preds
// survive. With an empty payload the join keeps existence only (a
// semi-join); a non-empty payload additionally projects the matched
// dimension row's columns into the downstream group-by and aggregation.
type joinSpec struct {
	dim      string
	factKeys []string
	dimKeys  []string
	payload  []string
	preds    []Pred
}

// Plan is a logical analytical query under construction. The zero value is
// unusable; start from Scan. Methods return the receiver for chaining and
// record the first construction error for Bind to surface.
type Plan struct {
	name      string
	table     string
	scanCols  []string
	preds     []Pred
	graph     []JoinEdge
	joinOrder JoinOrder
	groups    []string
	aggs      []Agg
	having    []Pred
	orderCol  string
	orderDesc bool
	limit     int
	err       error
}

// Scan starts a plan over a fact table. The optional cols fix the scan's
// column order (every column the plan references must be listed); when
// omitted, the scan list is inferred from the plan in reference order.
func Scan(table string, cols ...string) *Plan {
	p := &Plan{table: table, scanCols: cols}
	if table == "" {
		p.fail(fmt.Errorf("query: Scan with empty table name"))
	}
	return p
}

func (p *Plan) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// Named sets the query's display name (QueryReport.Query); the default is
// "scan(<table>)".
func (p *Plan) Named(name string) *Plan {
	p.name = name
	return p
}

// Filter appends predicates; all must hold for a row to survive (σ). The
// predicates are pushed into block consumption, so rejected rows never
// reach the join probe or the aggregation kernels.
func (p *Plan) Filter(preds ...Pred) *Plan {
	for _, pr := range preds {
		if pr.col == "" {
			p.fail(fmt.Errorf("query: predicate with empty column name"))
		}
	}
	p.preds = append(p.preds, preds...)
	return p
}

// GroupBy sets the grouping keys (γ). Group columns must be int64-typed
// (ids, dates, codes); result rows carry the key values first, ordered
// ascending by key.
func (p *Plan) GroupBy(cols ...string) *Plan {
	if len(p.groups) > 0 {
		p.fail(fmt.Errorf("query: GroupBy called twice"))
		return p
	}
	if len(cols) > maxGroupCols {
		p.fail(fmt.Errorf("query: %d group columns, max %d", len(cols), maxGroupCols))
		return p
	}
	for _, c := range cols {
		if c == "" {
			p.fail(fmt.Errorf("query: GroupBy with empty column name"))
			return p
		}
	}
	p.groups = cols
	return p
}

// Agg appends aggregate outputs. Every plan needs at least one.
func (p *Plan) Agg(aggs ...Agg) *Plan {
	p.aggs = append(p.aggs, aggs...)
	return p
}

// Having appends post-aggregation predicates over output columns — group
// keys or aggregate names (after As renaming). Rows failing any predicate
// are dropped after the merge, before OrderBy and Limit. Comparisons run
// in float64 space, the type of every emitted cell.
func (p *Plan) Having(preds ...Pred) *Plan {
	for _, pr := range preds {
		if pr.col == "" {
			p.fail(fmt.Errorf("query: Having predicate with empty column name"))
		}
	}
	p.having = append(p.having, preds...)
	return p
}

// OrderBy sorts the result by an output column — a group key or an
// aggregate name (after As renaming) — descending when desc is true. Ties
// break on the remaining output columns ascending, left to right, so the
// order is total whenever group keys are distinct (always, for grouped
// plans) and results stay bitwise deterministic under work stealing and
// mid-query pool resizes.
func (p *Plan) OrderBy(col string, desc bool) *Plan {
	if p.orderCol != "" {
		p.fail(fmt.Errorf("query: OrderBy called twice"))
		return p
	}
	if col == "" {
		p.fail(fmt.Errorf("query: OrderBy with empty column name"))
		return p
	}
	p.orderCol, p.orderDesc = col, desc
	return p
}

// Limit keeps only the first n rows of the ordered result (top-k). It
// requires OrderBy — an unordered limit would make results depend on
// morsel interleaving.
func (p *Plan) Limit(n int) *Plan {
	if p.limit > 0 {
		p.fail(fmt.Errorf("query: Limit called twice"))
		return p
	}
	if n <= 0 {
		p.fail(fmt.Errorf("query: Limit %d, need > 0", n))
		return p
	}
	p.limit = n
	return p
}

// Name returns the display name the compiled query will carry.
func (p *Plan) Name() string {
	if p.name != "" {
		return p.name
	}
	return fmt.Sprintf("scan(%s)", p.table)
}

// Class infers the cost-model work class from the plan shape: a
// payload-projecting join materializes dimension columns per matched row
// (JoinProject, the heaviest pipeline), an existence-only semi-join probes
// per row (JoinProbe), grouping hashes per row (ScanGroupBy), and a bare
// filtered aggregation streams (ScanReduce). The scheduler's Algorithm 2
// uses this to time the pipeline when choosing S1/S2/S3; the ordered
// merge's sort volume is charged separately per merged row.
func (p *Plan) Class() costmodel.WorkClass {
	switch {
	case len(p.graph) > 0:
		// Payloads are inferred at Bind; until then the heavier class is
		// assumed (Bind fixes the compiled class exactly).
		return costmodel.JoinProject
	case len(p.groups) > 0:
		return costmodel.ScanGroupBy
	default:
		return costmodel.ScanReduce
	}
}

// Err returns the first construction error, if any, without binding.
func (p *Plan) Err() error { return p.err }
