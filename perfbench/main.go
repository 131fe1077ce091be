// Command perfbench is the end-to-end benchmark of elastichtap: it drives
// the real system through one of three closed-loop CH-benCHmark
// workloads, checks every answer against the golden oracles and the
// recovered system, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics from a separate traced pass). The
// last line of standard output is one JSON object. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: htap-adaptive, olap-readonly or oltp-durable")
	seed := flag.Int64("seed", 1, "seed for the data and the transaction mix")
	seconds := flag.Int("seconds", 10, "nominal length of the timed phase; sizes the fixed work")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	dir := flag.String("dir", ".bench_build/perfbench/data", "scratch directory for the WAL and checkpoints (local disk)")
	spans := flag.String("spans", "", "file the traced pass writes its spans to")
	flag.Parse()

	sp, err := specFor(*name, *seconds)
	if err == nil && *traceFlag != 0 && *traceFlag != 1 {
		err = fmt.Errorf("trace %d, want 0 or 1", *traceFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), sp, *seed, *traceFlag == 1, *dir, *spans, os.Stdout)
	os.RemoveAll(*dir)
	var ce checkError
	if err != nil && !errors.As(err, &ce) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// checkError is a wrong answer: a golden-oracle, recovery or
// traced-versus-untraced mismatch. The run prints its result with
// correct=false and fails.
type checkError struct{ err error }

func (e checkError) Error() string { return e.err.Error() }
func (e checkError) Unwrap() error { return e.err }

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metric is one named figure, printed in order and put into the result.
type metric struct {
	name, unit string
	v          float64
}

// run executes one benchmark run. Untraced, it sets up several times and
// reports the median set-up time, runs the timed phase and the epilogue.
// Traced, it runs untraced and traced passes of the same seed, requires
// identical scheduling outcomes, and reports per-layer metrics.
func run(ctx context.Context, sp spec, seed int64, traced bool, dir, spansPath string, out io.Writer) (result, error) {
	res := result{Metrics: map[string]value{}}
	fmt.Fprintf(out, "workload %s seed %d sf %g trace %v\n", sp.name, seed, sp.sf, traced)
	var ms []metric
	var err error
	if traced {
		ms, err = runTraced(ctx, sp, seed, dir, spansPath, out, &res)
	} else {
		ms, err = runTimed(ctx, sp, seed, dir, out, &res)
	}
	var ce checkError
	if err != nil && !errors.As(err, &ce) {
		return res, err
	}
	res.Correct = err == nil
	for _, m := range ms {
		fmt.Fprintf(out, "  %-26s %16.6g %s\n", m.name, m.v, m.unit)
		// A failed query's latency is infinite; JSON has no infinity.
		res.Metrics[m.name] = value{min(m.v, math.MaxFloat64), m.unit}
	}
	return res, err
}

func runTimed(ctx context.Context, sp spec, seed int64, dir string, out io.Writer, res *result) ([]metric, error) {
	p := newPass(sp, seed, dir, nil)
	var setups []float64
	for i := 0; i < sp.setupReps; i++ {
		if i > 0 {
			p.closeLive()
		}
		d, err := p.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	if err := p.timed(ctx); err != nil {
		return nil, err
	}
	heap := heapLive()
	lat, attempted, failed, freshSum, firstErr := p.queryTotals()
	if firstErr != nil {
		fmt.Fprintln(out, "first query error:", firstErr)
	}
	err := p.epilogue(ctx)
	p.closeLive()
	if err != nil {
		return nil, checkError{err}
	}

	tail, pct := tailOf(lat)
	res.Attempted = attempted + int(p.txnAttempts)
	res.Failed = failed + int(p.txnFailed)
	fmt.Fprintf(out, "queries %d (%d failed) in %.3fs; query_tail_ms is p%.2f of %d samples; transactions %d (%d failed)\n",
		attempted, failed, p.phaseWall.Seconds(), pct, len(lat), p.txnAttempts, p.txnFailed)
	// Failures are zero on these workloads, so the failure shares are
	// printed here and carried by the result's attempted and failed
	// counts rather than reported as metrics.
	fmt.Fprintf(out, "  %-26s %16.6g ratio\n", "txn_failed_ratio", ratio(float64(p.txnFailed), float64(p.txnAttempts)))
	fmt.Fprintf(out, "  %-26s %16.6g ratio\n", "query_failed_ratio", ratio(float64(failed), float64(attempted)))
	fmt.Fprintf(out, "golden check: 9 compiled queries equal their oracles; %d recoveries answered as the live system\n", len(p.recSecs))
	fmt.Fprintf(out, "p50 ms per query: %s\n", p.perQueryMedians())
	fmt.Fprintf(out, "setup s %.3f; checkpoint s %.3f; recovery s %.3f\n", setups, p.ckptSecs, p.recSecs)
	return []metric{
		{"setup_s", "s", median(setups)},
		{"oltp_tps", "1/s", iqm(p.batchTPS)},
		{"query_p50_ms", "ms", p.queryP50()},
		{"query_tail_ms", "ms", tail},
		{"olap_qps", "1/s", iqm(p.roundQPS)},
		{"fresh_rate", "ratio", freshSum / float64(max(attempted-failed, 1))},
		{"heap_live_mb", "MB", heap},
		{"checkpoint_s", "s", iqm(p.ckptSecs)},
		{"recovery_s", "s", iqm(p.recSecs)},
	}, nil
}

// byQuery groups the latencies by query name, in order of first use.
func (p *pass) byQuery() (order []string, lat map[string][]float64) {
	lat = map[string][]float64{}
	for _, c := range p.clients {
		for i, n := range c.names {
			if _, ok := lat[n]; !ok {
				order = append(order, n)
			}
			lat[n] = append(lat[n], c.latMS[i])
		}
	}
	return order, lat
}

func (p *pass) perQueryMedians() string {
	order, lat := p.byQuery()
	var b strings.Builder
	for _, n := range order {
		fmt.Fprintf(&b, "%s %.3f ", n, median(lat[n]))
	}
	return b.String()
}

// queryP50 is the geometric mean over the workload's queries of each
// query's median latency. The queries' latencies differ by up to 100x,
// so the median of the pooled sample sits in a gap between clusters and
// jumps between runs; each query's own median does not.
func (p *pass) queryP50() float64 {
	order, lat := p.byQuery()
	logSum := 0.0
	for _, n := range order {
		logSum += math.Log(median(lat[n]))
	}
	return math.Exp(logSum / float64(len(order)))
}

// queryTotals merges the clients' logs.
func (p *pass) queryTotals() (lat []float64, attempted, failed int, freshSum float64, firstErr error) {
	for _, c := range p.clients {
		lat = append(lat, c.latMS...)
		attempted += c.attempted
		failed += c.failed
		freshSum += c.freshSum
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}
	return
}

// runTraced runs three passes of one seed: untraced, traced, untraced.
// The first pass grows the process's heap from nothing; the later passes
// reuse its pages, so the tracing overhead compares the traced pass with
// the second untraced one. Both untraced passes must schedule every query
// exactly as the traced one did.
func runTraced(ctx context.Context, sp spec, seed int64, dir, spansPath string, out io.Writer, res *result) ([]metric, error) {
	sp.recReps = 1
	cold, err := untracedPass(ctx, sp, seed, dir)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	t := newPass(sp, seed, dir, tr)
	if _, err := t.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := t.timed(ctx); err != nil {
		return nil, err
	}
	_, attempted, failed, _, _ := t.queryTotals()
	res.Attempted = attempted + int(t.txnAttempts)
	res.Failed = failed + int(t.txnFailed)
	ms := layerMetrics(cold, t)
	err = t.epilogue(ctx)
	t.closeLive()
	if err != nil {
		return nil, checkError{err}
	}
	ms = append(ms, durabilityMetrics(t)...)
	if spansPath != "" {
		if err := tr.writeFile(spansPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", spansPath)
	}

	warm, err := untracedPass(ctx, sp, seed, dir)
	if err != nil {
		return nil, err
	}
	overhead := 100 * (t.phaseWall.Seconds()/warm.phaseWall.Seconds() - 1)
	ms = append(ms, metric{"trace.overhead_pct", "%", overhead})
	fmt.Fprintf(out, "timed phase: untraced %.3fs then %.3fs, traced %.3fs\n",
		cold.phaseWall.Seconds(), warm.phaseWall.Seconds(), t.phaseWall.Seconds())
	for _, u := range []*pass{cold, warm} {
		n, err := sameOutcomes(u, t)
		if err != nil {
			return ms, checkError{err}
		}
		fmt.Fprintf(out, "equivalence: %d queries, traced pass reproduced state, method, FreshRate and ETLBytes exactly\n", n)
	}
	return ms, nil
}

// untracedPass sets up and runs the timed phase through the public API.
func untracedPass(ctx context.Context, sp spec, seed int64, dir string) (*pass, error) {
	p := newPass(sp, seed, dir, nil)
	if _, err := p.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	err := p.timed(ctx)
	p.closeLive()
	return p, err
}

// sameOutcomes requires the traced pass to have scheduled every query of
// every client exactly as the untraced pass did.
func sameOutcomes(u, t *pass) (int, error) {
	n := 0
	for c := range u.clients {
		a, b := u.clients[c].outcomes, t.clients[c].outcomes
		if len(a) != len(b) {
			return n, fmt.Errorf("client %d: untraced pass completed %d queries, traced %d", c, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return n, fmt.Errorf("client %d query %d: untraced %v, traced %v", c, i, a[i], b[i])
			}
		}
		n += len(a)
	}
	return n, nil
}

// layerMetrics derives the per-layer figures of the timed phase: span
// timings and seam counters from the traced pass t, allocation counts
// and aborts from the untraced pass u (tracing allocates itself).
func layerMetrics(u, t *pass) []metric {
	tr, tot := t.tr, t.adm.tot
	ms := func(name string) float64 { return medianDur(tr.named(name)) / 1e6 }
	us := func(name string) float64 { return medianDur(tr.named(name)) / 1e3 }
	body := tr.named("oltp.txn_body")
	bodyTail, _ := tailOf(durs(body, 1e3))
	syncs := tr.named("wal.sync")
	syncTail, _ := tailOf(durs(syncs, 1e3))
	consume := tr.perTrace("olap.consume")
	var consumeAll time.Duration
	for _, d := range consume {
		consumeAll += d
	}
	_, uAttempted, _, _, _ := u.queryTotals()
	walSyncs := tr.walSyncs.Load()
	return []metric{
		{"oltp.txn_body_us_p50", "us", medianDur(body) / 1e3},
		{"oltp.txn_body_us_tail", "us", bodyTail},
		{"oltp.attempts", "count", float64(len(body))},
		{"oltp.retry_ratio", "ratio", ratio(float64(t.retried), float64(len(body)))},
		{"txn.aborts", "count", float64(u.aborts)},
		{"oltp.allocs_per_txn", "count", ratio(float64(u.txnAllocs), float64(u.commits))},
		{"wal.writes", "count", float64(tr.walWrites.Load())},
		{"wal.syncs", "count", float64(walSyncs)},
		{"wal.sync_us_p50", "us", medianDur(syncs) / 1e3},
		{"wal.sync_us_tail", "us", syncTail},
		{"wal.bytes_per_commit", "B", ratio(float64(tr.walBytes.Load()), float64(t.commits))},
		{"wal.commits_per_sync", "ratio", ratio(float64(t.commits), float64(walSyncs))},
		{"rde.switch_sync_ms", "ms", ms("rde.switch_sync")},
		{"rde.synced_rows", "count", float64(tot.syncRows)},
		{"rde.sync_rows_per_s", "rows/s", ratio(float64(tot.syncRows), tot.syncWall)},
		{"rde.freshness_us", "us", us("rde.freshness")},
		{"rde.etl_ms", "ms", median(tot.etlMS)},
		{"rde.etl_bytes", "B", float64(tot.etlBytes)},
		{"rde.etl_mb_s", "MB/s", ratio(float64(tot.etlBytes)/1e6, tot.etlWall)},
		{"workload.admit_us", "us", us("workload.admit")},
		{"core.decide_migrate_us", "us", us("core.decide_migrate")},
		{"core.migrations", "count", float64(tot.changes)},
		{"core.s2_share", "ratio", ratio(float64(tot.s2), float64(tot.queries))},
		{"olap.build_ms", "ms", ms("olap.build")},
		{"olap.queue_wait_ms", "ms", ms("olap.queue_wait")},
		{"olap.consume_ms", "ms", medianDur(consume) / 1e6},
		{"olap.merge_ms", "ms", ms("olap.merge")},
		{"olap.scan_mb_s", "MB/s", ratio(float64(tot.scanBytes)/1e6, consumeAll.Seconds())},
		{"olap.morsels", "count", float64(tot.morsels)},
		{"olap.stolen_ratio", "ratio", ratio(float64(tot.stolen), float64(tot.morsels))},
		{"olap.rows_scanned", "count", float64(tot.rows)},
		{"olap.allocs_per_query", "count", ratio(float64(u.queryAllocs), float64(uAttempted))},
		{"costmodel.sync_ratio", "ratio", ratio(tot.syncWall, tot.syncModel)},
		{"costmodel.etl_ratio", "ratio", ratio(tot.etlWall, tot.etlModel)},
		{"costmodel.exec_ratio", "ratio", ratio(tot.execWall, tot.execModel)},
	}
}

// durabilityMetrics covers the checkpoints and recoveries of the traced
// pass, timed phase and epilogue together.
func durabilityMetrics(t *pass) []metric {
	var ckptWall, recWall float64
	for _, s := range t.ckptSecs {
		ckptWall += s
	}
	for _, s := range t.recSecs {
		recWall += s
	}
	return []metric{
		{"checkpoint.bytes", "B", ratio(float64(t.ckptBytes), float64(len(t.ckptSecs)))},
		{"checkpoint.mb_s", "MB/s", ratio(float64(t.ckptBytes)/1e6, ckptWall)},
		{"recovery.bytes_read", "B", ratio(float64(t.recBytes), float64(len(t.recSecs)))},
		{"recovery.mb_s", "MB/s", ratio(float64(t.recBytes)/1e6, recWall)},
		{"recovery.replayed", "count", float64(t.replayed)},
	}
}
