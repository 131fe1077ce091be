package query

// A deliberately naive reference executor for bound plans. It shares the
// compiled plan's metadata (slots, compiled predicate tests, join and
// aggregate lists) with the fused kernels but none of their execution
// code: builds are full ReadActive scans into Go maps, every row is
// evaluated on its own through one slot vector, groups live in a Go map,
// and Having and OrderBy run over the merged rows. The arithmetic order
// is the contract the fused kernels promise — each (group, aggregate)
// pair accumulates in ascending row order within a morsel, and morsel
// partials merge in morsel order — so results must be DeepEqual, which
// on float64 rows is bitwise equality.

import (
	"context"
	"sort"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
)

// refQuery runs a bound plan through the reference executor; every other
// olap.Query method is the compiled plan's own.
type refQuery struct{ *Compiled }

// Prepare implements olap.Query with Go-map build sides: one map per
// join, keyed by the zero-padded composite key, holding the projected
// payload words. Duplicate keys keep the last row read.
func (q refQuery) Prepare() (olap.Exec, int64) {
	e := &refExec{c: q.Compiled}
	for _, j := range q.joins {
		dt := j.dim.Table()
		build := map[jkey][]int64{}
	rows:
		for r := int64(0); r < dt.Rows(); r++ {
			for _, f := range j.preds {
				if !f.match(dt.ReadActive(r, f.col)) {
					continue rows
				}
			}
			var k jkey
			for d, kc := range j.keyCols {
				k[d] = dt.ReadActive(r, kc)
			}
			pay := make([]int64, len(j.payCols))
			for i, pc := range j.payCols {
				pay[i] = dt.ReadActive(r, pc)
			}
			build[k] = pay
		}
		e.builds = append(e.builds, build)
	}
	return e, 0
}

type refExec struct {
	c      *Compiled
	builds []map[jkey][]int64
}

// refLocal is one morsel's partial state: accumulators per group, plus
// the groups in first-seen order so Merge never ranges the map.
type refLocal struct {
	e      *refExec
	groups map[gkey][]acc
	keys   []gkey
}

func (e *refExec) NewLocal() olap.Local {
	return &refLocal{e: e, groups: map[gkey][]acc{}}
}

// Consume evaluates the block one row at a time: fact columns and every
// join payload share one slot vector, laid out like the compiled plan's
// slots (fact scan first, payload after).
func (l *refLocal) Consume(b olap.Block) {
	c := l.e.c
	slots := make([]int64, len(c.cols)+c.npayTotal)
next:
	for i := 0; i < b.N; i++ {
		for s := range c.cols {
			slots[s] = b.Cols[s][i]
		}
		for _, f := range c.filters {
			if !f.match(slots[f.slot]) {
				continue next
			}
		}
		for ji, j := range c.joins {
			var k jkey
			for d, s := range j.probeSlots {
				k[d] = slots[s]
			}
			pay, ok := l.e.builds[ji][k]
			if !ok {
				continue next
			}
			copy(slots[len(c.cols)+j.payBase:], pay)
		}
		var k gkey
		for d, s := range c.groups {
			k[d] = slots[s]
		}
		accs, ok := l.groups[k]
		if !ok {
			accs = make([]acc, len(c.aggs))
			l.groups[k] = accs
			l.keys = append(l.keys, k)
		}
		for ai, a := range c.aggs {
			st := &accs[ai]
			switch a.kind {
			case aggCount:
				st.count++
				continue
			case aggCountIf:
				if a.cond.match(slots[a.condSlot]) {
					st.count++
				}
				continue
			}
			v := float64(slots[a.slot])
			if a.decode {
				v = columnar.DecodeFloat(slots[a.slot])
			}
			switch a.kind {
			case aggSum, aggAvg:
				st.sum += v
				st.count++
			case aggMin:
				if !st.seen || v < st.ext {
					st.ext, st.seen = v, true
				}
			case aggMax:
				if !st.seen || v > st.ext {
					st.ext, st.seen = v, true
				}
			}
		}
	}
}

// Merge folds the partials in morsel order, emits one row per group with
// keys ascending (a global plan always emits its one row), then drops
// rows failing Having and applies the plan's order and limit.
func (e *refExec) Merge(locals []olap.Local) olap.Result {
	c := e.c
	total := map[gkey][]acc{}
	var keys []gkey
	if len(c.groups) == 0 {
		total[gkey{}] = make([]acc, len(c.aggs))
		keys = append(keys, gkey{})
	}
	for _, li := range locals {
		l := li.(*refLocal)
		for _, k := range l.keys {
			dst, ok := total[k]
			if !ok {
				dst = make([]acc, len(c.aggs))
				total[k] = dst
				keys = append(keys, k)
			}
			for ai, src := range l.groups[k] {
				d := &dst[ai]
				d.sum += src.sum
				d.count += src.count
				if src.seen && (!d.seen ||
					(c.aggs[ai].kind == aggMin && src.ext < d.ext) ||
					(c.aggs[ai].kind == aggMax && src.ext > d.ext)) {
					d.ext, d.seen = src.ext, true
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		for d := range c.groups {
			if keys[i][d] != keys[j][d] {
				return keys[i][d] < keys[j][d]
			}
		}
		return false
	})
	res := olap.Result{Cols: c.outCols}
	for _, k := range keys {
		row := make([]float64, 0, len(c.outCols))
		for d := range c.groups {
			row = append(row, float64(k[d]))
		}
		for ai, a := range c.aggs {
			st := total[k][ai]
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
			default:
				row = append(row, st.ext)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	if len(c.having) > 0 {
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			pass := true
			for _, h := range c.having {
				pass = pass && h.fmatch(row[h.col])
			}
			if pass {
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

// execute runs q over the fact table's active instance on eng, through
// the fused kernels or, with ref, through the reference executor. The
// rows split into parts equal ranges, each at least one morsel, so small
// tables still merge several partials.
func execute(t *testing.T, eng *olap.Engine, e *oltp.Engine, q *Compiled, ref bool, parts int) olap.Result {
	t.Helper()
	tab := e.Table(q.FactTable()).Table()
	src := olap.Source{Table: tab}
	for p, n := int64(0), int64(parts); p < n; p++ {
		src.Parts = append(src.Parts, olap.Part{
			Data: tab.Active(), Lo: tab.Rows() * p / n, Hi: tab.Rows() * (p + 1) / n, Label: "test",
		})
	}
	var oq olap.Query = q
	if ref {
		oq = refQuery{q}
	}
	res, _, err := eng.ExecuteContext(context.Background(), oq, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
