package main

import (
	"context"
	"fmt"
	"reflect"

	"elastichtap/internal/ch"
	"elastichtap/internal/ch/golden"
	"elastichtap/internal/core"
	"elastichtap/internal/olap"
	"elastichtap/internal/rde"
)

// checkPair is a query compiled from its logical plan and its hand-coded
// oracle.
type checkPair struct {
	built, oracle olap.Query
}

// checkPairs covers every query with an oracle in internal/ch/golden, at
// the default arguments the workloads run with.
func checkPairs(db *ch.DB) []checkPair {
	return []checkPair{
		{db.Stamped("Q1", ch.Q1Args(0)), &golden.Q1{DB: db}},
		{db.Stamped("Q2", ch.Q2Args(0, 0)), &golden.Q2{DB: db}},
		{db.Stamped("Q3", ch.Q3Args(0)), &golden.Q3{DB: db}},
		{db.Stamped("Q5", ch.Q5Args(0)), &golden.Q5{DB: db}},
		{db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), &golden.Q6{DB: db}},
		{db.Stamped("Q7", ch.Q7Args(0)), &golden.Q7{DB: db}},
		{db.Stamped("Q12", ch.Q12Args(0)), &golden.Q12{DB: db}},
		{db.Stamped("Q18", ch.Q18Args(0)), &golden.Q18{DB: db}},
		{db.Stamped("Q19", ch.Q19Args(0, 0, 0, 0)), &golden.Q19{DB: db}},
	}
}

// catchUp switches and syncs every table and ETLs the delta, so each
// OLAP replica equals its table; call it on a quiesced system.
func catchUp(c *core.System) *rde.SnapshotSet {
	set := c.X.SwitchAndSync(c.OLTPE.Tables())
	c.X.ETL(set)
	return set
}

// answer is one compiled query's result.
type answer struct {
	query string
	res   olap.Result
}

// replicaAnswers runs each compiled query on its fact table's replica
// after catchUp, and with withOracle also its oracle on the same source,
// failing on the first result that differs. It returns the compiled
// queries' answers.
func replicaAnswers(ctx context.Context, c *core.System, db *ch.DB, withOracle bool) ([]answer, error) {
	set := catchUp(c)
	var out []answer
	for _, p := range checkPairs(db) {
		src := c.X.SourceFor(rde.ReadReplica, set.Snap(p.built.FactTable()))
		got, _, err := c.OLAPE.ExecuteContext(ctx, p.built, src)
		if err != nil {
			return nil, fmt.Errorf("check %s: %w", p.built.Name(), err)
		}
		if withOracle {
			want, _, err := c.OLAPE.ExecuteContext(ctx, p.oracle, src)
			if err != nil {
				return nil, fmt.Errorf("check %s oracle: %w", p.built.Name(), err)
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				return nil, fmt.Errorf("check %s: compiled result differs from the golden oracle (%d rows, oracle %d)",
					p.built.Name(), len(got.Rows), len(want.Rows))
			}
		}
		out = append(out, answer{p.built.Name(), got})
	}
	return out, nil
}

// sameAnswers compares a recovered system's answers with the live ones.
func sameAnswers(live, recovered []answer) error {
	if len(live) != len(recovered) {
		return fmt.Errorf("recovered system answered %d queries, live %d", len(recovered), len(live))
	}
	for i, l := range live {
		r := recovered[i]
		if l.query != r.query || !reflect.DeepEqual(l.res.Cols, r.res.Cols) || !reflect.DeepEqual(l.res.Rows, r.res.Rows) {
			return fmt.Errorf("recovered system's %s differs from the live system's", l.query)
		}
	}
	return nil
}
