package crash

import (
	"context"
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	elastichtap "elastichtap"
)

// crashSeeds widens the kill matrix: CI's dedicated crash step passes a
// fixed list so failures reproduce, while the blanket `go test ./...`
// run stays fast on the single default seed.
var crashSeeds = flag.String("crashseeds", "1", "comma-separated harness seeds for the kill matrix")

func seedList(t *testing.T) []int64 {
	var seeds []int64
	for _, s := range strings.Split(*crashSeeds, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("bad -crashseeds entry %q: %v", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// TestKillPointRecovery is the acceptance matrix: for every kill point
// and every seed, the engine dies at a randomized point and the
// recovered system must be indistinguishable — commits, clock, per-table
// freshness, query answers — from a twin that never crashed.
func TestKillPointRecovery(t *testing.T) {
	seeds := seedList(t)
	for _, kp := range []KillPoint{KillMidCommit, KillMidCheckpoint, KillMidSwitch, KillMidETL} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%v/seed%d", kp, seed), func(t *testing.T) {
				out, err := New(seed, kp).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !out.Crashed {
					// A budget can land exactly on the final write of the
					// run; the recovery still verified, so only log it.
					t.Logf("kill never fired (budget at end of stream); verified clean-image recovery")
				}
				if out.RecoveredCommits != out.TwinCommits {
					t.Fatalf("commits: recovered %d twin %d", out.RecoveredCommits, out.TwinCommits)
				}
				t.Logf("crashed at step %d, restored seq %d, replayed %d txns, %d commits",
					out.CrashStep, out.Info.Seq, out.Info.Replayed, out.Info.Commits)
			})
		}
	}
}

// TestNoKillBaseline pins the harness itself: with no fault armed the
// schedule completes and the final image recovers to the twin exactly.
func TestNoKillBaseline(t *testing.T) {
	out, err := New(4, KillNone).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashed {
		t.Fatalf("baseline crashed at step %d", out.CrashStep)
	}
}

// TestRecoveryDeterminism opens the same crashed image repeatedly and
// demands identical state — the property that makes crash recovery
// debuggable. Run under -race in CI, it also shakes out unsynchronized
// recovery-path state.
func TestRecoveryDeterminism(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := New(seed, KillMidCommit)
			m, err := h.measurePass(context.Background(), h.Seed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := newRunner(h.Seed)
			if err != nil {
				t.Fatal(err)
			}
			budget, err := h.pickBudget(m, stepTxns)
			if err != nil {
				t.Fatal(err)
			}
			r.fs.CrashAfterWrite(budget - r.fs.BytesWritten())
			for i, st := range h.steps {
				crashed, err := r.runStepArmed(context.Background(), i, st)
				if err != nil {
					t.Fatal(err)
				}
				if crashed {
					break
				}
			}
			img := r.fs.Crash(true)

			var commits []uint64
			var rows [][][]float64
			for i := 0; i < 2; i++ {
				sys, info, err := elastichtap.OpenFromDir(img, dataDir)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := sys.QueryContext(context.Background(), elastichtap.Q6(sys.DB()))
				if err != nil {
					t.Fatal(err)
				}
				commits = append(commits, info.Commits)
				rows = append(rows, rep.Result.Rows)
				sys.Close()
			}
			if commits[0] != commits[1] || !reflect.DeepEqual(rows[0], rows[1]) {
				t.Fatalf("recovery not deterministic: commits %v", commits)
			}
		})
	}
}
