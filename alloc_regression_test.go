package elastichtap

import (
	"context"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
	"elastichtap/internal/wal"
)

// The fused kernels keep all per-morsel state in per-worker scratch and
// warmed locals, so steady-state execution must not allocate per row or
// per morsel. These tests pin that property with testing.AllocsPerRun
// (its built-in warmup run absorbs one-time group-state growth).

// fusedBlock builds one morsel-shaped block over the fact table's first
// rows for the compiled query's scan columns.
func fusedBlock(db *ch.DB, cols []int) (olap.Block, int64) {
	tab := db.OrderLine.Table()
	rows := tab.Rows()
	if rows > 16384 {
		rows = 16384 // stay inside one chunk, like an engine morsel
	}
	blk := olap.Block{N: int(rows), Cols: make([][]int64, len(cols))}
	inst := tab.Active()
	for k, c := range cols {
		blk.Cols[k] = inst.Col(c).Slice(0, rows)
	}
	return blk, rows
}

// TestFusedConsumeZeroAllocsPerMorsel drives a warmed fused local
// directly: consuming a morsel must be allocation-free for both the
// ungrouped (Q6) and dense-grouped (Q1) kernels.
func TestFusedConsumeZeroAllocsPerMorsel(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 1)
	for _, p := range []struct {
		name string
		bind func() (olap.Query, error)
	}{
		{"Q1", func() (olap.Query, error) { q, err := ch.Q1Plan(0).Bind(db); return q, err }},
		{"Q6", func() (olap.Query, error) { q, err := ch.Q6Plan(0, 0, 0, 0).Bind(db); return q, err }},
	} {
		t.Run(p.name, func(t *testing.T) {
			q, err := p.bind()
			if err != nil {
				t.Fatal(err)
			}
			exec, _ := q.Prepare()
			local := exec.NewLocal()
			blk, _ := fusedBlock(db, q.Columns())
			if avg := testing.AllocsPerRun(20, func() { local.Consume(blk) }); avg != 0 {
				t.Fatalf("fused Consume allocates %.1f times per morsel, want 0", avg)
			}
		})
	}
}

// TestPreparedExecutionAllocBudget runs warmed prepared statements end to
// end through the pool and bounds the whole-execution allocation count:
// per-execution state (task bookkeeping, per-morsel locals, the merged
// result) is allowed, anything scaling with rows is not.
func TestPreparedExecutionAllocBudget(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 1)
	tab := db.OrderLine.Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "alloc",
	}}}
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{2}})
	defer eng.Close()

	for _, p := range []struct {
		name   string
		bind   func() (olap.Query, error)
		budget float64
	}{
		{"Q1", func() (olap.Query, error) { q, err := ch.Q1Plan(0).Bind(db); return q, err }, 64},
		{"Q6", func() (olap.Query, error) { q, err := ch.Q6Plan(0, 0, 0, 0).Bind(db); return q, err }, 64},
	} {
		t.Run(p.name, func(t *testing.T) {
			q, err := p.bind()
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(10, run); avg > p.budget {
				t.Fatalf("warmed prepared %s execution allocates %.1f, budget %.0f", p.name, avg, p.budget)
			}
		})
	}
}

// TestGraphJoinExecutionAllocBudget bounds warmed prepared executions of
// the graph-join queries Q2/Q5/Q7. Unlike the single-table queries above,
// each execution legitimately rebuilds its dimension join tables in
// Prepare (that cost is what BuildBytes reports and the planner costs),
// so the budgets absorb the build — but the build is sized by the
// dimension tables, never the fact scan, so a budget miss means either
// the per-row kernel path or the probe-side build started allocating
// with fact rows.
func TestGraphJoinExecutionAllocBudget(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 1)
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{2}})
	defer eng.Close()
	srcFor := func(table string) olap.Source {
		tab := db.Handle(table).Table()
		return olap.Source{Table: tab, Parts: []olap.Part{{
			Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "alloc",
		}}}
	}
	for _, p := range []struct {
		name   string
		fact   string
		bind   func() (olap.Query, error)
		budget float64
	}{
		// Measured 41/51/67 at tiny sizing; headroom for runner noise.
		{"Q2", ch.TStock, func() (olap.Query, error) { q, err := ch.Q2Plan(0, 0).Bind(db); return q, err }, 96},
		{"Q5", ch.TOrderLine, func() (olap.Query, error) { q, err := ch.Q5Plan(0).Bind(db); return q, err }, 96},
		{"Q7", ch.TOrderLine, func() (olap.Query, error) { q, err := ch.Q7Plan(0).Bind(db); return q, err }, 128},
	} {
		t.Run(p.name, func(t *testing.T) {
			q, err := p.bind()
			if err != nil {
				t.Fatal(err)
			}
			src := srcFor(p.fact)
			run := func() {
				if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(10, run); avg > p.budget {
				t.Fatalf("warmed prepared %s execution allocates %.1f, budget %.0f", p.name, avg, p.budget)
			}
		})
	}
}

// TestOrderedMergeAllocsFlatInGroups pins the ordered grouped merge's
// allocation shape: a warmed Q18 Merge sizes its merge table once from the
// locals' key counts, renders every group into one scratch row and
// materializes only the top-k it keeps, so its allocation count is the
// same at two database sizes whose group counts differ by 5x — nothing in
// it allocates per group.
func TestOrderedMergeAllocsFlatInGroups(t *testing.T) {
	const topN = 10
	merge := func(ordersPerDistrict int) (allocs float64, groups int64) {
		s := ch.TinySizing()
		s.OrdersPerDistrict = ordersPerDistrict
		db := ch.Load(oltp.NewEngine(), s, 1)
		q, err := ch.Q18Plan(1, topN).Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		exec, _ := q.Prepare()
		tab := db.OrderLine.Table()
		inst, rows := tab.Active(), tab.Rows()
		var locals []olap.Local
		for lo := int64(0); lo < rows; lo += columnar.ChunkSize {
			hi := min(lo+columnar.ChunkSize, rows)
			blk := olap.Block{Base: lo, N: int(hi - lo), Cols: make([][]int64, len(q.Columns()))}
			for k, c := range q.Columns() {
				blk.Cols[k] = inst.Col(c).Slice(lo, hi)
			}
			l := exec.NewLocal()
			l.Consume(blk)
			locals = append(locals, l)
		}
		if res := exec.Merge(locals); len(res.Rows) != topN {
			t.Fatalf("%d orders per district: Q18 kept %d rows, want a full top-%d", ordersPerDistrict, len(res.Rows), topN)
		}
		return testing.AllocsPerRun(10, func() { exec.Merge(locals) }), s.Orders()
	}
	smallAllocs, smallGroups := merge(100)
	largeAllocs, largeGroups := merge(500)
	if largeGroups < 4*smallGroups {
		t.Fatalf("group counts %d and %d differ by less than 4x", smallGroups, largeGroups)
	}
	if smallAllocs != largeAllocs {
		t.Fatalf("warmed Q18 Merge allocates %.1f times over %d groups but %.1f over %d: allocations scale with groups",
			smallAllocs, smallGroups, largeAllocs, largeGroups)
	}
}

// TestWALAppendAllocBudget pins the commit log's hot path: a warmed
// Append — encode buffer grown, file with capacity headroom — must not
// allocate per record beyond the filesystem's occasional slice growth
// (budget 1 absorbs an amortized doubling; the encode path itself is
// allocation-free, machine-checked by htaplint's hotalloc analyzer).
func TestWALAppendAllocBudget(t *testing.T) {
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, "wal.log", wal.SyncNever, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &wal.Record{TxnID: 1, CommitTS: 2, Ops: []wal.Op{
		{Kind: wal.OpUpdate, Table: "orderline", Row: 3, Col: 4, Val: 5},
		{Kind: wal.OpInsert, Table: "orderline", NRows: 1, Width: 4, Vals: []int64{1, 2, 3, 4}},
	}}
	apply := func() {}
	// Warm: grows the encode buffer and gives the backing file capacity.
	for i := 0; i < 4096; i++ {
		if _, err := l.Append(rec, apply); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(rec, apply); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("warmed WAL append allocates %.2f times per record, budget 1", avg)
	}
}
