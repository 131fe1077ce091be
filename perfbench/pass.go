package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"elastichtap"
	"elastichtap/internal/ch"
	"elastichtap/internal/checkpoint"
	"elastichtap/internal/core"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/wal"
)

// pass is one setup plus timed phase of a workload, traced or not.
type pass struct {
	sp   spec
	seed int64
	dir  string // durability directory on the local disk
	fs   wal.FS

	tr  *tracer // nil for an untraced pass
	adm *admitter
	wl  *tracedWorkload

	sys *elastichtap.System
	db  *ch.DB

	// Transactions, inside Run only; batchTPS holds each batch's commits
	// per second.
	batchTPS             []float64
	commits, txnAttempts uint64
	txnFailed, retried   uint64
	aborts               uint64
	txnAllocs            uint64

	// Queries, one slot per client. roundQPS holds each round's queries
	// per second of the round, its transaction batch included.
	clients     []clientLog
	roundQPS    []float64
	phaseWall   time.Duration
	queryAllocs uint64

	// Checkpoints and recoveries; the byte counts come from the traced
	// filesystem and stay zero in an untraced pass.
	ckptSecs, recSecs   []float64
	ckptBytes, recBytes int64
	replayed            int
}

// clientLog is what one client observed, in the order it sent queries.
type clientLog struct {
	latMS     []float64 // +Inf for a failed query
	names     []string  // query name per latency
	outcomes  []outcome
	freshSum  float64
	attempted int
	failed    int
	firstErr  error
}

func newPass(sp spec, seed int64, dir string, tr *tracer) *pass {
	p := &pass{sp: sp, seed: seed, dir: dir, fs: elastichtap.DiskFS(), tr: tr}
	if tr != nil {
		p.fs = tracedFS{FS: p.fs, t: tr}
	}
	return p
}

// setup loads and primes the database, installs the seeded mix and, on a
// durable workload, enables the WAL and writes the first checkpoint. It
// returns the wall time of that work.
func (p *pass) setup() (time.Duration, error) {
	if err := os.RemoveAll(p.dir); err != nil {
		return 0, err
	}
	start := time.Now()
	sys, err := elastichtap.New(p.sp.options()...)
	if err != nil {
		return 0, err
	}
	db := sys.LoadCH(p.sp.sf, p.seed)
	var mix oltp.Workload = ch.NewMix(db, p.sp.paymentPct, p.seed)
	if p.tr != nil {
		p.wl = &tracedWorkload{inner: mix, t: p.tr}
		mix = p.wl
	}
	sys.Core().OLTPE.Workers().SetWorkload(mix)
	if p.sp.durable {
		if err := sys.EnableWAL(p.fs, p.dir, elastichtap.SyncAlways, 0); err != nil {
			sys.Close()
			return 0, err
		}
		if _, err := sys.CheckpointDB(p.fs, p.dir); err != nil {
			p.sys = sys
			p.closeLive()
			return 0, err
		}
	}
	d := time.Since(start)
	p.sys, p.db = sys, db
	if p.tr != nil {
		p.adm = &admitter{c: sys.Core(), t: p.tr}
	}
	return d, nil
}

// closeLive stops the live system and its log and lets the heap go.
func (p *pass) closeLive() {
	if p.sys == nil {
		return
	}
	p.sys.Close()
	if l := p.sys.WAL(); l != nil {
		l.Close()
	}
	p.sys, p.db, p.adm = nil, nil, nil
	runtime.GC()
}

// timed runs the workload's measured phase.
func (p *pass) timed(ctx context.Context) error {
	sp := p.sp
	qs := sp.queries(p.db)
	start := time.Now()
	if sp.clients > 0 {
		p.lockstep(ctx, qs)
		p.phaseWall = time.Since(start)
		return nil
	}

	p.clients = make([]clientLog, 1)
	cl := &p.clients[0]
	s2 := core.S2
	for r := 0; r < sp.rounds; r++ {
		t0 := time.Now()
		p.batch(sp.txnsPerRound)
		round, force := qs, (*core.State)(nil)
		if sp.pinS2 {
			round, force = qs[r%len(qs):r%len(qs)+1], &s2
		}
		for _, q := range round {
			a0 := allocs()
			p.query(ctx, cl, q, force)
			p.queryAllocs += allocs() - a0
		}
		p.roundQPS = append(p.roundQPS, float64(len(round))/time.Since(t0).Seconds())
		// The last round never checkpoints, so recovery always replays a
		// WAL suffix.
		if sp.durable && r%sp.ckptEvery == sp.ckptEvery/2 && r < sp.rounds-1 {
			if err := p.checkpoint(p.sys); err != nil {
				return err
			}
		}
	}
	p.phaseWall = time.Since(start)
	return nil
}

// lockstep runs the read-only clients. In each step every client sends
// one query, starting len(qs)/clients queries apart in the set, and the
// step ends when all of them returned, so the same queries always run
// side by side and their latencies repeat across runs. Client 0 runs on
// the calling goroutine, the others on one goroutine each. A round is one
// pass over the set.
func (p *pass) lockstep(ctx context.Context, qs []olap.Query) {
	sp := p.sp
	p.clients = make([]clientLog, sp.clients)
	a0 := allocs()
	round := time.Now()
	for i := 0; i < sp.perClient; i++ {
		var wg sync.WaitGroup
		for c := 1; c < sp.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				p.query(ctx, &p.clients[c], qs[(i+c*len(qs)/sp.clients)%len(qs)], nil)
			}(c)
		}
		p.query(ctx, &p.clients[0], qs[i%len(qs)], nil)
		wg.Wait()
		if (i+1)%len(qs) == 0 {
			p.roundQPS = append(p.roundQPS, float64(sp.clients*len(qs))/time.Since(round).Seconds())
			round = time.Now()
		}
	}
	p.queryAllocs = allocs() - a0
}

// batch runs n transactions through the facade's Run and accounts them.
func (p *pass) batch(n int) {
	c := p.sys.Core()
	mgr, wm := c.OLTPE.Manager(), c.OLTPE.Workers()
	commits0, failed0, retried0, aborts0 := mgr.Commits(), wm.Failed(), wm.Retried(), mgr.Aborts()
	var id uint64
	var start int64
	if p.tr != nil {
		id, start = p.tr.begin()
	}
	a0 := allocs()
	t0 := time.Now()
	p.sys.Run(n)
	wall := time.Since(t0)
	p.txnAllocs += allocs() - a0
	if p.tr != nil {
		p.tr.end("oltp.batch", id, start)
		p.wl.flush()
	}
	commits := mgr.Commits() - commits0
	p.batchTPS = append(p.batchTPS, float64(commits)/wall.Seconds())
	p.commits += commits
	p.txnAttempts += uint64(n)
	p.txnFailed += wm.Failed() - failed0
	p.retried += wm.Retried() - retried0
	p.aborts += mgr.Aborts() - aborts0
}

// query sends one query and records its latency from call to return.
// Untraced, it goes through the public API; traced, through the
// admitter's span-wrapped sequence of the same calls.
func (p *pass) query(ctx context.Context, cl *clientLog, q olap.Query, force *core.State) {
	var out outcome
	var err error
	t0 := time.Now()
	switch {
	case p.adm != nil:
		out, err = p.adm.query(ctx, q, force)
	case p.sp.clients > 0:
		var h *elastichtap.Handle
		if h, err = p.sys.Submit(ctx, q); err == nil {
			var rep elastichtap.QueryReport
			rep, err = h.Wait()
			out = reportOutcome(rep)
		}
	case force != nil:
		var rep elastichtap.QueryReport
		rep, err = p.sys.QueryInStateContext(ctx, q, *force)
		out = reportOutcome(rep)
	default:
		var rep elastichtap.QueryReport
		rep, err = p.sys.QueryContext(ctx, q)
		out = reportOutcome(rep)
	}
	lat := time.Since(t0)
	cl.attempted++
	cl.names = append(cl.names, q.Name())
	if err != nil {
		cl.failed++
		cl.latMS = append(cl.latMS, math.Inf(1))
		if cl.firstErr == nil {
			cl.firstErr = err
		}
		return
	}
	cl.latMS = append(cl.latMS, float64(lat)/1e6)
	cl.outcomes = append(cl.outcomes, out)
	cl.freshSum += out.FreshRate
}

func reportOutcome(r elastichtap.QueryReport) outcome {
	return outcome{Query: r.Query, State: r.State, Method: r.Method, FreshRate: r.FreshRate, ETLBytes: r.ETLBytes}
}

// checkpoint writes a whole-database checkpoint of sys, times it, and
// removes the previous one so disk use stays bounded.
func (p *pass) checkpoint(sys *elastichtap.System) error {
	var id uint64
	var start, bytes0 int64
	if p.tr != nil {
		bytes0 = p.tr.ckptBytes.Load()
		id, start = p.tr.begin()
	}
	t0 := time.Now()
	seq, err := sys.CheckpointDB(p.fs, p.dir)
	p.ckptSecs = append(p.ckptSecs, time.Since(t0).Seconds())
	if p.tr != nil {
		p.tr.end("checkpoint.db", id, start)
		p.ckptBytes += p.tr.ckptBytes.Load() - bytes0
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if seq > 0 {
		return os.RemoveAll(checkpoint.SeqDir(p.dir, seq-1))
	}
	return nil
}

// epilogue runs after the timed phase: transactions where the phase ran
// none, the golden check, then Close and recovery, each recovered system
// required to answer exactly as the live one did.
//
// Without a WAL the final state reaches disk only through a checkpoint,
// so the live system writes one and every recovered system writes the
// next before it closes: each recovery reads its predecessor's image, and
// the checkpoint timings spread over the epilogue instead of bunching into
// one burst of host contention. A durable workload wrote its images in
// the timed phase; a recovered system has no WAL, so an image of it would
// not line up with the log.
func (p *pass) epilogue(ctx context.Context) error {
	sp := p.sp
	for done := 0; done < sp.epilogueTxns; done += 2000 {
		p.batch(min(2000, sp.epilogueTxns-done))
	}
	live, err := replicaAnswers(ctx, p.sys.Core(), p.db, true)
	if err != nil {
		return err
	}
	if !sp.durable {
		if err := p.checkpoint(p.sys); err != nil {
			return err
		}
	}
	p.closeLive()

	for i := 0; i < sp.recReps; i++ {
		var id uint64
		var start, read0 int64
		if p.tr != nil {
			read0 = p.tr.readBytes.Load()
			id, start = p.tr.begin()
		}
		t0 := time.Now()
		rsys, info, err := elastichtap.OpenFromDir(p.fs, p.dir, sp.options()...)
		p.recSecs = append(p.recSecs, time.Since(t0).Seconds())
		if p.tr != nil {
			p.tr.end("recovery.open", id, start)
			p.recBytes += p.tr.readBytes.Load() - read0
		}
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		p.replayed = info.Replayed
		err = p.checkRecovered(ctx, rsys, live)
		rsys.Close()
		runtime.GC()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRecovered requires a recovered system to answer as the live one
// did and, without a WAL, checkpoints it for the next recovery.
func (p *pass) checkRecovered(ctx context.Context, rsys *elastichtap.System, live []answer) error {
	got, err := replicaAnswers(ctx, rsys.Core(), rsys.DB(), false)
	if err != nil {
		return fmt.Errorf("recovered system: %w", err)
	}
	if err := sameAnswers(live, got); err != nil {
		return err
	}
	if p.sp.durable {
		return nil
	}
	return p.checkpoint(rsys)
}

// heapLive forces a collection and reads the live heap.
func heapLive() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// allocs reads the process's cumulative heap allocation count.
func allocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
