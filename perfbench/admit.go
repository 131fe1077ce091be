package main

import (
	"context"
	"fmt"
	"sync"

	"elastichtap/internal/core"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
	"elastichtap/internal/rde"
	"elastichtap/internal/workload"
)

// outcome is the part of a query's report the scheduler determines from
// the seed alone; the traced pass must reproduce the untraced one exactly.
type outcome struct {
	Query     string
	State     core.State
	Method    rde.AccessMethod
	FreshRate float64
	ETLBytes  int64
}

func (o outcome) String() string {
	return fmt.Sprintf("%s %v %v fresh=%v etl=%d", o.Query, o.State, o.Method, o.FreshRate, o.ETLBytes)
}

// layerTotals sums what the traced admission path measured per layer,
// next to the cost model's prediction for the same unscaled bytes.
type layerTotals struct {
	syncRows             int64
	syncWall, syncModel  float64 // seconds
	etlBytes             int64
	etlWall, etlModel    float64
	etlMS                []float64 // per ETL that copied bytes
	execWall, execModel  float64
	morsels, stolen      int64
	rows, scanBytes      int64
	queries, s2, changes int
	last                 core.State
}

// admitter sends a query through the exported calls that
// core.System.RunQueryContext makes, in the same order, with a span
// around each: WM.Admit, X.SwitchAndSync, X.MeasureFreshness,
// Sched.Decide+MigrateTo, X.ETL, X.SourceFor+BeginScan and
// OLAPE.ExecuteTenantContext.
type admitter struct {
	c *core.System
	t *tracer

	// mu serializes admission, as the system's own admission lock does
	// for queries sent through its entry points.
	mu sync.Mutex

	totMu sync.Mutex
	tot   layerTotals
}

func (a *admitter) query(ctx context.Context, q olap.Query, force *core.State) (outcome, error) {
	c, t := a.c, a.t
	trace, root := t.id(), t.id()
	rootStart := t.now()
	tenant := workload.TenantFrom(ctx)

	s := t.now()
	grant, err := c.WM.Admit(ctx, tenant)
	t.record("workload.admit", trace, root, s, t.now())
	if err != nil {
		return outcome{}, fmt.Errorf("query %s: %w", q.Name(), err)
	}

	a.mu.Lock()
	tables := c.OLTPE.Tables()
	s = t.now()
	set := c.X.SwitchAndSync(tables)
	e := t.now()
	t.record("rde.switch_sync", trace, root, s, e)
	syncWall := secs(e - s)
	factSnap := set.Snap(q.FactTable())
	if factSnap == nil {
		a.mu.Unlock()
		grant.Release(0)
		return outcome{}, fmt.Errorf("query %s: no snapshot for fact table %q", q.Name(), q.FactTable())
	}

	s = t.now()
	fresh := c.X.MeasureFreshness(tables, q.FactTable(), len(q.Columns()))
	t.record("rde.freshness", trace, root, s, t.now())

	s = t.now()
	state := c.Sched.Decide(fresh, false)
	if force != nil {
		state = *force
	}
	c.Sched.MigrateTo(state)
	oltpPlace, olapPlace := c.Sched.Placements()
	t.record("core.decide_migrate", trace, root, s, t.now())

	var etl rde.ETLResult
	var etlWall float64
	if state == core.S2 {
		s = t.now()
		etl = c.X.ETL(set)
		e = t.now()
		t.record("rde.etl", trace, root, s, e)
		etlWall = secs(e - s)
	}

	s = t.now()
	method := accessMethod(c, state, fresh)
	src := c.X.SourceFor(method, factSnap)
	release := c.X.BeginScan(q.FactTable())
	t.record("rde.source", trace, root, s, t.now())
	a.mu.Unlock()

	tq := &tracedQuery{Query: q, t: t, trace: trace, parent: root}
	s = t.now()
	res, stats, err := c.OLAPE.ExecuteTenantContext(ctx, tq, src,
		olap.TenantInfo{Name: tenant, Weight: c.WM.Weight(tenant)})
	e = t.now()
	release()
	t.record("olap.execute", trace, root, s, e)
	if err != nil {
		grant.Release(0)
		return outcome{}, err
	}
	scanned := sum(stats.BytesAt)
	grant.Release(int64(float64(scanned) * c.Cfg.ByteScale))
	t.add(span{ID: root, Trace: trace, Name: "query", Start: rootStart, End: t.now()})

	// The model's prediction for the bytes actually moved, unscaled, with
	// the placements this query was admitted under.
	base := c.Model.OLTPThroughput(costmodel.OLTPLoad{Workers: oltpPlace, HomeSocket: c.Cfg.OLTPSocket})
	scan := c.Model.OLAPScan(costmodel.ScanRequest{
		Class:                 q.Class(),
		BytesAt:               stats.BytesAt,
		Workers:               olapPlace,
		Background:            base.Usage,
		BroadcastBytes:        stats.BuildBytes,
		MeasuredRemoteBytesAt: stats.StolenBytesAt,
		SortRows:              res.SortedRows,
	})

	a.totMu.Lock()
	tot := &a.tot
	tot.syncRows += set.CopiedRows
	tot.syncWall += syncWall
	tot.syncModel += set.SyncSeconds
	tot.etlBytes += etl.Bytes
	tot.etlWall += etlWall
	if etl.Bytes > 0 {
		tot.etlMS = append(tot.etlMS, etlWall*1e3)
	}
	tot.etlModel += c.Model.ETLTime(etl.Bytes, olapPlace.On(c.Cfg.OLAPSocket))
	tot.execWall += secs(e - s)
	tot.execModel += scan.Seconds
	tot.morsels += int64(stats.Morsels)
	tot.stolen += stats.StolenMorsels
	tot.rows += stats.RowsScanned
	tot.scanBytes += scanned
	if tot.queries > 0 && state != tot.last {
		tot.changes++
	}
	tot.queries++
	if state == core.S2 {
		tot.s2++
	}
	tot.last = state
	a.totMu.Unlock()

	return outcome{Query: q.Name(), State: state, Method: method, FreshRate: fresh.Rate, ETLBytes: etl.Bytes}, nil
}

// accessMethod restates the scheduler's access-path rule for a state:
// S2 reads the ETL'd replica, S1 the snapshot, and the hybrid states read
// split when split access is on and the fact table has no updated rows.
// The equivalence check fails if it ever disagrees with the system's.
func accessMethod(c *core.System, st core.State, f rde.Freshness) rde.AccessMethod {
	switch st {
	case core.S2:
		return rde.ReadReplica
	case core.S1:
		return rde.ReadSnapshot
	}
	if c.Sched.Config().SplitAccess && f.QueryUpdatedRows == 0 {
		return rde.ReadSplit
	}
	return rde.ReadSnapshot
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}
