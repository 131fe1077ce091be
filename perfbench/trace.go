package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/txn"
	"elastichtap/internal/wal"
)

// A span is one timed call across a layer boundary. Trace groups the
// spans of one query, transaction batch, checkpoint or recovery; Parent
// is the span that caused this one (0 for a root).
type span struct {
	ID, Parent, Trace uint64
	Name              string
	Start, End        int64 // nanoseconds since the tracer started
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. Spans are
// recorded by the benchmark's own wrappers around the program's public
// entry points and seams; nothing inside the program is instrumented.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// cur and curTrace name the transaction batch, checkpoint or
	// recovery in progress: spans recorded below a seam that cannot see
	// the caller (txn bodies, file writes and syncs) take it as parent.
	cur, curTrace atomic.Uint64

	// Byte and call counters at the filesystem seam.
	walBytes, walWrites, walSyncs atomic.Int64
	ckptBytes, readBytes          atomic.Int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

// record stores a finished span.
func (t *tracer) record(name string, trace, parent uint64, start, end int64) {
	t.add(span{ID: t.id(), Parent: parent, Trace: trace, Name: name, Start: start, End: end})
}

// begin opens a root operation (transaction batch, checkpoint,
// recovery) that spans recorded below a seam take as parent.
func (t *tracer) begin() (id uint64, start int64) {
	id = t.id()
	t.cur.Store(id)
	t.curTrace.Store(id)
	return id, t.now()
}

// end records the root span begin opened.
func (t *tracer) end(name string, id uint64, start int64) {
	t.add(span{ID: id, Trace: id, Name: name, Start: start, End: t.now()})
	t.cur.Store(0)
	t.curTrace.Store(0)
}

// add stores spans whose IDs were assigned by the caller.
func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// named returns the durations of every span with the given name.
func (t *tracer) named(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeFile writes every span, one per line, ordered as recorded.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttrace\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Trace, s.Name, s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- OLAP seam: olap.Query / Exec / Local ----

// tracedQuery wraps a query to time Prepare (the build), every morsel's
// Consume, the wait before the first Consume, and Merge.
type tracedQuery struct {
	olap.Query
	t             *tracer
	trace, parent uint64
}

// Err forwards a deferred construction error, which the engine and the
// scheduler check before running a query.
func (q *tracedQuery) Err() error {
	if v, ok := q.Query.(interface{ Err() error }); ok {
		return v.Err()
	}
	return nil
}

func (q *tracedQuery) Prepare() (olap.Exec, int64) {
	start := q.t.now()
	ex, build := q.Query.Prepare()
	end := q.t.now()
	q.t.record("olap.build", q.trace, q.parent, start, end)
	return &tracedExec{inner: ex, q: q, prepared: end}, build
}

type tracedExec struct {
	inner    olap.Exec
	q        *tracedQuery
	prepared int64
	locals   []*tracedLocal
}

// NewLocal is called serially at submission, once per morsel.
func (e *tracedExec) NewLocal() olap.Local {
	l := &tracedLocal{inner: e.inner.NewLocal(), t: e.q.t}
	e.locals = append(e.locals, l)
	return l
}

// Merge unwraps the locals (they arrive in morsel order), merges them,
// and records the morsel spans collected by the locals.
func (e *tracedExec) Merge(locals []olap.Local) olap.Result {
	inner := make([]olap.Local, len(locals))
	for i, l := range locals {
		inner[i] = l.(*tracedLocal).inner
	}
	t := e.q.t
	start := t.now()
	res := e.inner.Merge(inner)
	end := t.now()

	ss := make([]span, 0, len(e.locals)+2)
	first := int64(-1)
	for _, l := range e.locals {
		if l.end == 0 {
			continue
		}
		if first < 0 || l.start < first {
			first = l.start
		}
		ss = append(ss, span{ID: t.id(), Parent: e.q.parent, Trace: e.q.trace, Name: "olap.consume", Start: l.start, End: l.end})
	}
	if first >= 0 {
		ss = append(ss, span{ID: t.id(), Parent: e.q.parent, Trace: e.q.trace, Name: "olap.queue_wait", Start: e.prepared, End: first})
	}
	ss = append(ss, span{ID: t.id(), Parent: e.q.parent, Trace: e.q.trace, Name: "olap.merge", Start: start, End: end})
	t.add(ss...)
	return res
}

// tracedLocal times its single Consume; the engine calls it from one
// goroutine, and Merge reads it after the task completes.
type tracedLocal struct {
	inner      olap.Local
	t          *tracer
	start, end int64
}

func (l *tracedLocal) Consume(b olap.Block) {
	l.start = l.t.now()
	l.inner.Consume(b)
	l.end = l.t.now()
}

// ConsumeScratch keeps the per-worker scratch path of kernels that use it.
func (l *tracedLocal) ConsumeScratch(b olap.Block, sc *olap.Scratch) {
	l.start = l.t.now()
	if c, ok := l.inner.(olap.ScratchConsumer); ok {
		c.ConsumeScratch(b, sc)
	} else {
		l.inner.Consume(b)
	}
	l.end = l.t.now()
}

// ---- OLTP seam: oltp.Workload ----

// tracedWorkload wraps the installed transaction mix to time every
// attempt of every transaction body.
type tracedWorkload struct {
	inner oltp.Workload
	t     *tracer

	mu   sync.Mutex
	bufs []*[]span // per worker; a worker index runs on one goroutine at a time
}

func (w *tracedWorkload) Next(worker int) oltp.TxnFunc {
	body := w.inner.Next(worker)
	w.mu.Lock()
	for len(w.bufs) <= worker {
		w.bufs = append(w.bufs, new([]span))
	}
	buf := w.bufs[worker]
	w.mu.Unlock()
	t := w.t
	return func(tx *txn.Txn) error {
		start := t.now()
		err := body(tx)
		end := t.now()
		*buf = append(*buf, span{ID: t.id(), Parent: t.cur.Load(), Trace: t.curTrace.Load(), Name: "oltp.txn_body", Start: start, End: end})
		return err
	}
}

// flush moves the per-worker spans into the tracer; call it between
// batches, when no worker runs.
func (w *tracedWorkload) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, b := range w.bufs {
		w.t.add(*b...)
		*b = (*b)[:0]
	}
}

// ---- Durability seam: wal.FS ----

// tracedFS wraps the filesystem handed to EnableWAL, CheckpointDB and
// OpenFromDir: it times Write and Sync and counts bytes written and read.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (fs tracedFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: fs.t, log: isLog(name)}, nil
}

func (fs tracedFS) Append(name string) (wal.File, error) {
	f, err := fs.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: fs.t, log: isLog(name)}, nil
}

func (fs tracedFS) Open(name string) (io.ReadCloser, error) {
	r, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingReader{ReadCloser: r, n: &fs.t.readBytes}, nil
}

func isLog(name string) bool { return strings.HasSuffix(name, "/wal.log") }

type tracedFile struct {
	wal.File
	t   *tracer
	log bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.File.Write(p)
	end := f.t.now()
	if f.log {
		f.t.walWrites.Add(1)
		f.t.walBytes.Add(int64(n))
		f.t.record("wal.write", f.t.curTrace.Load(), f.t.cur.Load(), start, end)
	} else {
		f.t.ckptBytes.Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	end := f.t.now()
	if f.log {
		f.t.walSyncs.Add(1)
		f.t.record("wal.sync", f.t.curTrace.Load(), f.t.cur.Load(), start, end)
	} else {
		f.t.record("checkpoint.sync", f.t.curTrace.Load(), f.t.cur.Load(), start, end)
	}
	return err
}

type countingReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n.Add(int64(n))
	return n, err
}
