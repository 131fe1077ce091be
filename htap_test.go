package elastichtap

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func newSystem(t *testing.T) (*System, *DB) {
	t.Helper()
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	db := sys.LoadCH(0.005, 1)
	if err := sys.StartWorkload(0); err != nil {
		t.Fatal(err)
	}
	return sys, db
}

func TestFacadeQuickstartFlow(t *testing.T) {
	sys, db := newSystem(t)
	if sys.DB() != db {
		t.Fatal("DB accessor broken")
	}
	rate, fresh := sys.Freshness()
	if rate < 0.999 || fresh != 0 {
		t.Fatalf("after load: rate=%v fresh=%d", rate, fresh)
	}
	sys.Run(100)
	rate, fresh = sys.Freshness()
	if rate >= 1 || fresh == 0 {
		t.Fatalf("after txns: rate=%v fresh=%d", rate, fresh)
	}
	rep, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.Rows) != 1 || rep.Result.Rows[0][1] <= 0 {
		t.Fatalf("Q6 result = %+v", rep.Result)
	}
	if sys.OLTPThroughput() <= 0 {
		t.Fatal("throughput model broken")
	}
}

func TestFacadeStaticStates(t *testing.T) {
	sys, db := newSystem(t)
	sys.Run(50)
	var counts []float64
	for _, st := range []State{S1, S2, S3IS, S3NI} {
		rep, err := sys.QueryInStateContext(context.Background(), Q1(db), st)
		if err != nil {
			t.Fatal(err)
		}
		if rep.State != st {
			t.Fatalf("state = %v, want %v", rep.State, st)
		}
		var c float64
		for _, row := range rep.Result.Rows {
			c += row[5]
		}
		counts = append(counts, c)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("states disagree: %v", counts)
		}
	}
	if sys.CurrentState() != S3NI {
		t.Fatalf("current state = %v", sys.CurrentState())
	}
}

func TestFacadeQueryBatch(t *testing.T) {
	sys, db := newSystem(t)
	sys.Run(50)
	reps, err := sys.QueryBatchContext(context.Background(), []Query{Q1(db), Q6(db), Q19(db)})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("reports = %d", len(reps))
	}
	// Batches go to S2 (Algorithm 2's QueryBatch branch).
	for _, rep := range reps {
		if rep.State != S2 {
			t.Fatalf("batch query state = %v, want S2", rep.State)
		}
	}
	// Only the first pays the switch+ETL; the rest reuse the snapshot.
	if reps[1].SyncSeconds != 0 || reps[2].SyncSeconds != 0 {
		t.Fatal("batch re-switched mid-flight")
	}
}

func TestFacadeOptionKnobs(t *testing.T) {
	sys, err := New(
		WithAlpha(0.9),
		WithElasticity(false),
		WithElasticCores(2),
		WithByteScale(1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.LoadCH(0.005, 2)
	if err := sys.StartWorkload(0); err != nil {
		t.Fatal(err)
	}
	sys.Run(30)
	rep, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	// Elasticity off: the hybrid branch of Algorithm 2 must pick S3-IS.
	if rep.State != S3IS && rep.State != S2 {
		t.Fatalf("state = %v, want S3-IS (or S2 past threshold)", rep.State)
	}

	sys2, err := New(WithColocationPreference(true), WithAlpha(0.95))
	if err != nil {
		t.Fatal(err)
	}
	db2 := sys2.LoadCH(0.005, 2)
	if err := sys2.StartWorkload(0); err != nil {
		t.Fatal(err)
	}
	sys2.Run(30)
	rep2, err := sys2.QueryContext(context.Background(), Q6(db2))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.State != S1 {
		t.Fatalf("co-location mode state = %v, want S1", rep2.State)
	}
}

func TestFacadeAlphaZeroIsHonored(t *testing.T) {
	// WithAlpha(0) is an explicit α=0, not an unset knob: every non-batch
	// query with any fresh data ETLs.
	sys, err := New(WithAlpha(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Core().Sched.Config().Alpha; got != 0 {
		t.Fatalf("WithAlpha(0) configured α=%v", got)
	}
	db := sys.LoadCH(0.005, 3)
	if err := sys.StartWorkload(0); err != nil {
		t.Fatal(err)
	}
	sys.Run(100)
	rep, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != S2 {
		t.Fatalf("alpha=0 state = %v, want S2 (eager ETL)", rep.State)
	}
}

func TestFacadeOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		want string
	}{
		{"alpha-high", WithAlpha(1.5), "WithAlpha"},
		{"alpha-negative", WithAlpha(-0.1), "WithAlpha"},
		{"topology", WithTopology(0, 14), "WithTopology"},
		{"bandwidth", WithBandwidth(-1, 1), "WithBandwidth"},
		{"elastic-cores", WithElasticCores(-1), "WithElasticCores"},
		{"byte-scale", WithByteScale(0), "byte scale"},
	}
	for _, tc := range cases {
		if _, err := New(tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestFacadeNoDatabaseErrors(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartWorkload(0); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("StartWorkload before LoadCH: err = %v", err)
	}
	if _, err := sys.QueryContext(context.Background(), Q6(nil)); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("Query before LoadCH: err = %v", err)
	}
	if _, err := sys.QueryInStateContext(context.Background(), Q1(nil), S2); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("QueryInState before LoadCH: err = %v", err)
	}
	if _, err := sys.QueryBatchContext(context.Background(), []Query{Q19(nil)}); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("QueryBatch before LoadCH: err = %v", err)
	}
	if _, err := sys.Build(nil); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("Build before LoadCH: err = %v", err)
	}

	// A query built from a nil DB must fail descriptively even on a loaded
	// system (the deferred-error path through olap.Invalid).
	sys.LoadCH(0.005, 1)
	if _, err := sys.QueryContext(context.Background(), Q6(nil)); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("Query with nil-DB query: err = %v", err)
	}
}

func TestFacadeCoreAccess(t *testing.T) {
	sys, _ := newSystem(t)
	if sys.Core() == nil || sys.Core().Sched == nil {
		t.Fatal("core access broken")
	}
	m := sys.Core().Metrics()
	if m.Tables == 0 {
		t.Fatal("metrics through facade broken")
	}
}

// TestConcurrentQueriesCheckpointsAndPayments drives the update-heavy
// concurrency triangle under -race: Payment transactions update rows in
// place, analytical queries scan the (insert-only) fact table, and
// checkpoints serialize snapshots of an updated table — all at once. The
// RDE scan latches must keep the non-atomic block reads race-free while
// queries over the insert-only fact table stay un-serialized.
func TestConcurrentQueriesCheckpointsAndPayments(t *testing.T) {
	sys, db := newSystem(t)
	if err := sys.StartWorkload(60); err != nil { // 60% Payment: in-place updates
		t.Fatal(err)
	}
	sys.Run(200)

	stop := make(chan struct{})
	var bg sync.WaitGroup

	// In-place updates + inserts while everything else runs.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sys.Run(20)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Checkpoints of an updated table: serializes a snapshot instance a
	// concurrent switch would otherwise re-activate and overwrite.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.Checkpoint(io.Discard, "district"); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := -1.0
			for i := 0; i < 5; i++ {
				rep, err := sys.QueryContext(context.Background(), Q6(db))
				if err != nil {
					t.Error(err)
					return
				}
				if count := rep.Result.Rows[0][1]; count < prev {
					t.Errorf("Q6 count shrank: %v -> %v", prev, count)
					return
				} else {
					prev = count
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	if sys.Metrics().Failed > 0 {
		t.Fatalf("abandoned transactions: %+v", sys.Metrics())
	}
}

// TestFacadeClose verifies Close drains the OLAP pool and later queries
// fail instead of hanging.
func TestFacadeClose(t *testing.T) {
	sys, db := newSystem(t)
	if _, err := sys.QueryContext(context.Background(), Q6(db)); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if sys.Metrics().OLAPPoolSize != 0 {
		t.Fatalf("pool size = %d after Close", sys.Metrics().OLAPPoolSize)
	}
	if _, err := sys.QueryContext(context.Background(), Q6(db)); err == nil {
		t.Fatal("query after Close must fail")
	}
}
