// Package elastichtap is an in-memory HTAP (Hybrid Transactional/Analytical
// Processing) system with elastic resource scheduling, reproducing Raza et
// al., "Adaptive HTAP through Elastic Resource Scheduling" (SIGMOD 2020).
//
// The system couples three engines over a modeled NUMA machine:
//
//   - an OLTP engine: twin-instance columnar storage, MV2PL snapshot
//     isolation, cuckoo-hash indexes, an elastic worker pool;
//   - an OLAP engine: a persistent, elastic worker pool — one goroutine
//     per allocated core, per-socket morsel queues with socket-affine
//     dispatch and cross-socket work stealing — running morsel-parallel
//     columnar scans with pluggable access paths (contiguous, split
//     fresh/cold);
//   - an RDE (Resource and Data Exchange) engine that owns cores and
//     memory, switches the OLTP active instance, synchronizes the twins,
//     and ETLs fresh deltas into the OLAP replicas.
//
// A freshness-driven scheduler (the paper's Algorithms 1 and 2) migrates
// the system between states S1 (co-located), S2 (isolated + ETL), S3-IS
// (hybrid isolated) and S3-NI (hybrid non-isolated) per query.
//
// The public surface is a session API in the shape Go database clients
// expect — contexts everywhere, asynchronous submission, and prepared
// statements:
//
//   - QueryContext / QueryBatchContext / QueryInStateContext thread a
//     context through the whole per-query protocol. Cancellation and
//     deadlines are observed between admission phases (switch,
//     migration, ETL) and, once executing, at morsel boundaries — the
//     same granularity at which the paper's elasticity intervenes — so a
//     cancelled query returns an error wrapping ErrCancelled and the
//     context's cause within one morsel's work, with partial state
//     discarded and the pool and placement left fully consistent.
//   - Submit(ctx, q) enqueues a query asynchronously and returns a
//     Handle with Wait, Done, Report and Cancel. Many client goroutines
//     submit concurrently: admission — snapshot switch, freshness
//     measurement, migration, ETL — stays serialized, while executions
//     interleave their morsels on the shared elastic worker pool.
//   - Prepare(plan) binds a logical plan carrying query.Param
//     placeholders once — catalog lookup, predicate typing, kernel
//     selection — and returns a Stmt whose Query(ctx, Args{...}) stamps
//     values into the compiled predicate tests per execution, bitwise
//     identical to rebinding with the values inlined.
//
// A multi-tenant workload manager (internal/workload) arbitrates between
// sessions before any query reaches the scheduler. Tenants register with
// a priority weight and resource quotas, and every query runs as some
// tenant — the implicit "default" tenant (weight 1, no quotas) unless the
// context says otherwise:
//
//	sys.RegisterTenant("dashboards", elastichtap.TenantConfig{
//		Weight:         4,                 // 4x the morsel share of a weight-1 tenant
//		MaxConcurrent:  8,                 // admission gate
//		MaxQueueDepth:  32,                // waiting room; beyond it: ErrOverloaded
//		BytesPerWindow: 64 << 20,          // scanned-bytes budget
//		Window:         time.Second,
//	})
//	ctx := elastichtap.WithTenant(ctx, "dashboards")
//	rep, err := sys.QueryContext(ctx, q)
//
// Under contention the elastic pool's deficit-round-robin dispatcher
// divides morsel throughput between backlogged tenants in proportion to
// their weights; an overloaded tenant's admissions fail fast with a typed
// *OverloadError (errors.Is ErrOverloaded) carrying retry-after metadata
// instead of queueing unboundedly. Per-tenant occupancy, admission waits,
// morsel dispatch and scanned bytes appear in Metrics and TenantStats.
//
// Each migration resizes the pool mid-query: workers park or wake as the
// scheduler moves cores between the engines, and Stats.Workers reports
// how many actually participated. Results are nonetheless bitwise
// deterministic — per-morsel partials merge in morsel order, so float
// aggregates never depend on worker interleaving or work stealing.
//
// Systems are configured with functional options, which distinguish unset
// knobs from explicit zeros (WithAlpha(0) really means α=0):
//
//	sys, _ := elastichtap.New(
//		elastichtap.WithAlpha(0.7),
//		elastichtap.WithByteScale(300/0.01),
//	)
//	defer sys.Close()
//	db := sys.LoadCH(0.01, 42)          // CH-benCHmark at SF 0.01
//	sys.StartWorkload(0)                // NewOrder-only mix
//	sys.Run(1000)                       // execute 1000 transactions
//	rep, _ := sys.QueryContext(ctx, elastichtap.Q6(db))
//	fmt.Println(rep.State, rep.ResponseSeconds, rep.Result.Rows)
//
// Analytical queries beyond the built-in CH-benCHmark set are expressed
// declaratively with the query builder (package elastichtap/query): a
// logical plan — scan, filter, inner/semi hash join with payload
// projection, group-by, aggregate (including conditional counts), having,
// order-by and top-k — compiles onto the OLAP engine's generic kernels
// and flows through the adaptive scheduler with a work class inferred
// from the plan shape. Any literal position takes a query.Param
// placeholder, turning the plan into a reusable prepared statement:
//
//	plan := query.Scan("orderline").
//		Filter(query.Ge("ol_delivery_d", query.Param("since"))).
//		GroupBy("ol_w_id").
//		Agg(query.Sum("ol_amount").As("revenue"), query.Count()).
//		OrderBy("revenue", true).
//		Limit(5)
//	stmt, _ := sys.Prepare(plan)                              // bind once
//	rep, _ = stmt.Query(ctx, elastichtap.Args{"since": day})  // stamp per run
//
// The built-in Q1, Q3, Q6, Q12, Q18 and Q19 are themselves prepared
// statements, bound once per database and stamped with their default
// arguments; hand-coded executors remain in internal/ch as golden
// references for the compiler's correctness tests.
package elastichtap

import (
	"errors"
	"fmt"
	"io"

	"elastichtap/internal/ch"
	"elastichtap/internal/checkpoint"
	"elastichtap/internal/columnar"
	"elastichtap/internal/core"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/metrics"
	"elastichtap/internal/olap"
	"elastichtap/query"
)

// ErrNoDatabase is returned by workload and query entry points invoked
// before LoadCH.
var ErrNoDatabase = errors.New("elastichtap: no database loaded; call LoadCH first")

// options collects the functional-option settings. Pointer fields
// distinguish "unset" (keep the default) from an explicit zero.
type options struct {
	sockets, coresPerSocket *int
	localBW, interconnectBW *float64
	alpha                   *float64
	elasticity              *bool
	preferColocation        *bool
	elasticCores            *int
	byteScale               *float64
	splitAccess             *bool
}

// Option configures a System under construction. Options validate in New;
// an invalid value (α outside [0,1], non-positive core counts) fails New
// with a descriptive error instead of being silently ignored.
type Option func(*options)

// WithTopology sets the modeled machine: socket count and cores per
// socket. The default is the paper's 2x14-core server.
func WithTopology(sockets, coresPerSocket int) Option {
	return func(o *options) { o.sockets, o.coresPerSocket = &sockets, &coresPerSocket }
}

// WithBandwidth sets the modeled local DRAM and cross-socket interconnect
// bandwidths in bytes per second.
func WithBandwidth(localBW, interconnectBW float64) Option {
	return func(o *options) { o.localBW, o.interconnectBW = &localBW, &interconnectBW }
}

// WithAlpha sets the scheduler's ETL sensitivity α ∈ [0,1] (§4.2). Smaller
// values ETL more eagerly; 0 means every fresh byte triggers S2.
func WithAlpha(a float64) Option {
	return func(o *options) { o.alpha = &a }
}

// WithElasticity enables or disables compute exchange between the engines
// (Algorithm 2's Fel flag). Enabled by default.
func WithElasticity(on bool) Option {
	return func(o *options) { o.elasticity = &on }
}

// WithColocationPreference selects S1 over S3-NI when elasticity is
// available (Algorithm 2's Mel knob). Off by default (prefer S3-NI).
func WithColocationPreference(on bool) Option {
	return func(o *options) { o.preferColocation = &on }
}

// WithElasticCores bounds how many cores migrations move between engines.
func WithElasticCores(n int) Option {
	return func(o *options) { o.elasticCores = &n }
}

// WithByteScale multiplies measured bytes before the cost model, letting a
// small loaded database emulate a larger scale factor's timings (shapes
// depend on ratios, which the scale preserves).
func WithByteScale(x float64) Option {
	return func(o *options) { o.byteScale = &x }
}

// WithEmulatedScale is WithByteScale expressed as intent: report timings
// as if the loaded scale factor were target (e.g. the paper's SF 300).
func WithEmulatedScale(loadedSF, targetSF float64) Option {
	return func(o *options) {
		x := 0.0
		if loadedSF > 0 {
			x = targetSF / loadedSF
		}
		o.byteScale = &x
	}
}

// WithSplitAccess toggles the split access-path optimization in hybrid
// states for insert-only fact tables (§5.2). Enabled by default.
func WithSplitAccess(on bool) Option {
	return func(o *options) { o.splitAccess = &on }
}

// State re-exports the scheduler states for report inspection.
type State = core.State

// The four system states (§3.4).
const (
	S1   = core.S1
	S2   = core.S2
	S3IS = core.S3IS
	S3NI = core.S3NI
)

// QueryReport re-exports the per-query scheduling outcome.
type QueryReport = core.QueryReport

// Query is any analytical query the OLAP engine can execute.
type Query = olap.Query

// Plan re-exports the declarative builder's logical plan; construct with
// package elastichtap/query and compile with System.Build.
type Plan = query.Plan

// DB is a loaded CH-benCHmark database.
type DB = ch.DB

// System is the assembled HTAP system.
type System struct {
	inner *core.System
	db    *ch.DB
}

// New builds a system, starting from the paper's evaluation setup (a
// 2x14-core server, α=0.5, hybrid elasticity with 4 elastic cores) and
// applying the options. Invalid option values fail with an error.
func New(opts ...Option) (*System, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}

	sysCfg := core.DefaultSystemConfig()
	if o.sockets != nil {
		if *o.sockets < 1 {
			return nil, fmt.Errorf("elastichtap: WithTopology sockets %d, need >= 1", *o.sockets)
		}
		sysCfg.Topology.Sockets = *o.sockets
	}
	if o.coresPerSocket != nil {
		if *o.coresPerSocket < 1 {
			return nil, fmt.Errorf("elastichtap: WithTopology cores per socket %d, need >= 1", *o.coresPerSocket)
		}
		sysCfg.Topology.CoresPerSocket = *o.coresPerSocket
	}
	if o.localBW != nil {
		if *o.localBW <= 0 || *o.interconnectBW <= 0 {
			return nil, fmt.Errorf("elastichtap: WithBandwidth needs positive bandwidths, got %v and %v",
				*o.localBW, *o.interconnectBW)
		}
		sysCfg.Topology.LocalBW = *o.localBW
		sysCfg.Topology.InterconnectBW = *o.interconnectBW
	}
	// Scheduler defaults derive from the (possibly overridden) topology.
	sysCfg.Scheduler = core.DefaultConfig(sysCfg.Topology.Sockets, sysCfg.Topology.CoresPerSocket)
	if o.alpha != nil {
		if *o.alpha < 0 || *o.alpha > 1 {
			return nil, fmt.Errorf("elastichtap: WithAlpha %v outside [0,1]", *o.alpha)
		}
		sysCfg.Scheduler.Alpha = *o.alpha
	}
	if o.elasticity != nil {
		sysCfg.Scheduler.Elasticity = *o.elasticity
	}
	if o.preferColocation != nil && *o.preferColocation {
		sysCfg.Scheduler.Mode = core.ModeColocation
	}
	if o.elasticCores != nil {
		if *o.elasticCores < 0 {
			return nil, fmt.Errorf("elastichtap: WithElasticCores %d, need >= 0", *o.elasticCores)
		}
		sysCfg.Scheduler.ElasticCores = *o.elasticCores
	}
	if o.splitAccess != nil {
		sysCfg.Scheduler.SplitAccess = *o.splitAccess
	}
	if o.byteScale != nil {
		if *o.byteScale <= 0 {
			return nil, fmt.Errorf("elastichtap: byte scale %v, need > 0", *o.byteScale)
		}
		sysCfg.ByteScale = *o.byteScale
	}

	inner, err := core.NewSystem(sysCfg)
	if err != nil {
		return nil, err
	}
	return &System{inner: inner}, nil
}

// Core exposes the underlying system for advanced use (experiments,
// custom workloads, direct engine access).
func (s *System) Core() *core.System { return s.inner }

// LoadCH generates and loads a CH-benCHmark database at the given scale
// factor with a deterministic seed, then synchronizes the OLAP replicas
// (freshness-rate 1).
func (s *System) LoadCH(scaleFactor float64, seed int64) *DB {
	s.db = ch.Load(s.inner.OLTPE, ch.SizingForScale(scaleFactor), seed)
	s.inner.PrimeReplicas()
	return s.db
}

// DB returns the loaded database, or nil.
func (s *System) DB() *DB { return s.db }

// StartWorkload installs the TPC-C transaction mix: paymentPct percent
// Payment, the rest NewOrder, one warehouse per worker (§5.1). It fails
// with ErrNoDatabase before LoadCH.
func (s *System) StartWorkload(paymentPct int) error {
	if s.db == nil {
		return fmt.Errorf("elastichtap: StartWorkload: %w", ErrNoDatabase)
	}
	s.inner.OLTPE.Workers().SetWorkload(ch.NewMix(s.db, paymentPct, 1))
	return nil
}

// Run synchronously executes n transactions across the OLTP worker pool.
func (s *System) Run(n int) { s.inner.InjectTransactions(n) }

// Build compiles a logical plan (package elastichtap/query) against the
// loaded database into an executable Query.
func (s *System) Build(p *Plan) (Query, error) {
	if s.db == nil {
		return nil, fmt.Errorf("elastichtap: Build: %w", ErrNoDatabase)
	}
	return p.Bind(s.db)
}

// OLTPThroughput reports the modeled transactional throughput with the
// current placement and no analytical interference.
func (s *System) OLTPThroughput() float64 { return s.inner.OLTPThroughputNow() }

// CurrentState returns the scheduler's current state.
func (s *System) CurrentState() State { return s.inner.Sched.State() }

// Freshness reports the system-wide freshness-rate metric (1 = replicas
// fully synchronized, measured across every table) and the total
// outstanding fresh bytes an ETL of the whole database would copy. For
// the staleness of one table — the number a non-orderline workload
// actually cares about — use TableFreshness.
func (s *System) Freshness() (rate float64, freshBytes int64) {
	f := s.inner.X.MeasureFreshness(s.inner.OLTPE.Tables(), "", 0)
	return f.Rate, f.Nft
}

// Q1 through Q19 build the CH-benCHmark evaluation queries over a
// database — the paper's trio, the join/ordered/top-k mix, and the
// graph-join trio Q2/Q5/Q7 planned by greedy join ordering — with their
// default parameter values. Each is a prepared statement bound once per
// database (internal/ch parameterized plans) and stamped here with the
// defaults, so repeated construction never re-runs compilation; a nil db
// yields a query that fails with a descriptive error when run.
func Q1(db *DB) Query  { return prepared(db, "Q1", ch.Q1Args(0)) }
func Q2(db *DB) Query  { return prepared(db, "Q2", ch.Q2Args(0, 0)) }
func Q3(db *DB) Query  { return prepared(db, "Q3", ch.Q3Args(0)) }
func Q5(db *DB) Query  { return prepared(db, "Q5", ch.Q5Args(0)) }
func Q6(db *DB) Query  { return prepared(db, "Q6", ch.Q6Args(0, 0, 0, 0)) }
func Q7(db *DB) Query  { return prepared(db, "Q7", ch.Q7Args(0)) }
func Q12(db *DB) Query { return prepared(db, "Q12", ch.Q12Args(0)) }
func Q18(db *DB) Query { return prepared(db, "Q18", ch.Q18Args(0)) }
func Q19(db *DB) Query { return prepared(db, "Q19", ch.Q19Args(0, 0, 0, 0)) }

// prepared stamps a cached per-DB prepared statement with args, deferring
// errors into the returned query so constructor-style call sites stay
// one-liners.
func prepared(db *DB, name string, args Args) Query {
	if db == nil {
		return olap.Invalid{QueryName: name, Reason: fmt.Errorf("elastichtap: %s: %w", name, ErrNoDatabase)}
	}
	return db.Stamped(name, args)
}

// WorkClasses re-exported for custom queries.
type WorkClass = costmodel.WorkClass

// Work classes for custom olap.Query implementations.
const (
	ScanReduce  = costmodel.ScanReduce
	ScanGroupBy = costmodel.ScanGroupBy
	JoinProbe   = costmodel.JoinProbe
	JoinProject = costmodel.JoinProject
)

// Checkpoint writes a consistent snapshot of the named table to w: the
// active instance is switched and the quiescent twin serialized while
// transactions continue (internal/checkpoint). Returns the rows written.
func (s *System) Checkpoint(w io.Writer, table string) (int64, error) {
	h := s.inner.OLTPE.Table(table)
	if h == nil {
		return 0, fmt.Errorf("elastichtap: unknown table %q", table)
	}
	// The serialization scan reads the snapshot instance without atomics;
	// the pin keeps a concurrent query's switch from re-activating it
	// mid-write for tables that take in-place updates.
	snap, release := s.inner.PinnedSnapshot(h)
	defer release()
	if snap.Rows == 0 {
		// A zero-row image of a populated table means the caller raced
		// the load (or named a never-loaded table); it used to serialize
		// silently and restore to nothing. Whole-database images, where
		// empty tables are legitimate, go through CheckpointDB.
		return 0, fmt.Errorf("elastichtap: Checkpoint %q: table snapshot has no rows (use CheckpointDB for whole-database images)", table)
	}
	if err := checkpoint.Write(w, h.Table(), snap.Inst, snap.Rows); err != nil {
		return 0, err
	}
	return snap.Rows, nil
}

// RestoreTable reads a checkpoint produced by Checkpoint into a fresh
// standalone table (not registered with the running system).
func RestoreTable(r io.Reader) (*columnar.Table, error) {
	return checkpoint.Read(r)
}

// Metrics returns a system-wide observability snapshot.
func (s *System) Metrics() metrics.Snapshot { return s.inner.Metrics() }

// Close releases the system's worker pools: the persistent OLAP pool
// drains queued work and its goroutines exit. Close is idempotent and
// safe to call concurrently with in-flight queries — already-admitted
// work drains to completion, while queries and submissions arriving
// after Close fail with an error wrapping ErrClosed. Call it when the
// system is no longer needed (long-running processes that build many
// systems would otherwise accumulate parked pool goroutines).
func (s *System) Close() { s.inner.Close() }
