package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke tests hold
// the program to: every listed metric is printed with its unit.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny shrinks a workload to a few rounds on a small database, keeping
// its shape: the same phases, checks and metrics run.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	sp, err := specFor(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp.sf = 0.003
	sp.rounds, sp.txnsPerRound, sp.ckptEvery = min(sp.rounds, 4), 200, 2
	sp.perClient = min(sp.perClient, 9)
	sp.epilogueTxns = min(sp.epilogueTxns, 500)
	sp.setupReps, sp.recReps = 2, 2
	return sp
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}

func TestSmokeTimed(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := run(context.Background(), tiny(t, name), 7, false, t.TempDir(), "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, bf.EndToEnd)
			for _, m := range []string{"setup_s", "query_p50_ms", "olap_qps", "checkpoint_s", "recovery_s", "oltp_tps"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			// run fails with a checkError when the traced pass does not
			// reproduce the untraced pass's scheduling outcomes.
			res, err := run(context.Background(), tiny(t, name), 7, true, t.TempDir(), "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, bf.PerLayer)
			if name == "oltp-durable" && res.Metrics["recovery.replayed"].Value == 0 {
				t.Error("recovery replayed no WAL records; the recovered-answers check tests no replay")
			}
		})
	}
}

func checkResult(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}
