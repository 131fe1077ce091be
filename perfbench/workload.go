package main

import (
	"fmt"

	"elastichtap"
	"elastichtap/internal/ch"
	"elastichtap/internal/olap"
)

// spec sizes one workload. Every workload is closed loop: a client sends
// its next request only after the previous one returned, so the
// scheduler's input depends on the seed alone, never on how fast the
// previous request ran. Work is fixed per run (rounds or queries scale
// with --seconds, not with the clock), so two versions of the program do
// the same work and their metrics compare directly.
type spec struct {
	name       string
	sf         float64 // CH-benCHmark scale factor at load
	paymentPct int     // Payment share of the mix; the rest is NewOrder

	// Closed loops with transactions: rounds of txnsPerRound transactions,
	// each followed by the round's queries.
	rounds, txnsPerRound int
	// pinS2 runs every query in the static S2 schedule; queries then
	// rotates one query per round. Otherwise the whole set runs per round
	// under the adaptive scheduler.
	pinS2   bool
	queries func(db *ch.DB) []olap.Query

	// Read-only clients (olap-readonly): clients clients in lockstep, each
	// running perClient queries over the set in rotated order.
	clients, perClient int

	durable   bool // commit WAL under SyncAlways, checkpoints every ckptEvery rounds
	ckptEvery int

	// Epilogue after the timed phase: transactions for oltp_tps where the
	// timed phase runs none, and recovery repetitions.
	epilogueTxns       int
	recReps, setupReps int
}

// Every workload runs the paper's scheduler settings: α 0.6, elastic
// hybrid mode, timings emulating SF 30 (oltp-durable pins S2, so α does
// not act there).
const (
	alpha      = 0.6
	emulatedSF = 30
)

// paperSet is the scheduler sweep's query set: Q1, Q6, Q19, Q3, Q12, Q18.
func paperSet(db *ch.DB) []olap.Query { return db.QuerySet() }

// trio is the paper's evaluation trio, rotated one query per round.
func trio(db *ch.DB) []olap.Query {
	return []olap.Query{elastichtap.Q1(db), elastichtap.Q6(db), elastichtap.Q19(db)}
}

// readOnlySet is every compiled query that has a golden oracle.
func readOnlySet(db *ch.DB) []olap.Query {
	return []olap.Query{
		elastichtap.Q1(db), elastichtap.Q2(db), elastichtap.Q3(db), elastichtap.Q5(db), elastichtap.Q6(db),
		elastichtap.Q7(db), elastichtap.Q12(db), elastichtap.Q18(db), elastichtap.Q19(db),
	}
}

var workloadNames = []string{"htap-adaptive", "olap-readonly", "oltp-durable"}

// specFor returns the named workload sized for a run of about seconds
// seconds of timed work on a 2-core x86 box.
func specFor(name string, seconds int) (spec, error) {
	if seconds < 1 {
		return spec{}, fmt.Errorf("seconds %d, need >= 1", seconds)
	}
	switch name {
	case "htap-adaptive":
		return spec{
			name: name, sf: 0.01, paymentPct: 30,
			rounds: 4 * seconds, txnsPerRound: 1500, queries: paperSet,
			recReps: 5, setupReps: 9,
		}, nil
	case "olap-readonly":
		return spec{
			name: name, sf: 0.1, paymentPct: 30,
			clients: 2, perClient: 20 * seconds, queries: readOnlySet,
			epilogueTxns: 40000,
			recReps:      5, setupReps: 3,
		}, nil
	case "oltp-durable":
		return spec{
			name: name, sf: 0.05, paymentPct: 50,
			rounds: 6 * seconds, txnsPerRound: 1000, pinS2: true, queries: trio,
			durable: true, ckptEvery: max(2, 6*seconds/8),
			recReps: 5, setupReps: 3,
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func (sp spec) options() []elastichtap.Option {
	return []elastichtap.Option{
		elastichtap.WithAlpha(alpha),
		elastichtap.WithEmulatedScale(sp.sf, emulatedSF),
	}
}
