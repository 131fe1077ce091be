package columnar

import (
	"sync"
	"sync/atomic"
)

// ChunkSize is the number of rows per storage chunk. Chunked growth keeps
// already-handed-out slices stable while the table appends, so analytical
// scans can run concurrently with transactional inserts.
const ChunkSize = 1 << 14

// Words is a growable chunked array of raw 8-byte values. Cell writes use
// atomic stores so a concurrently appended-to chunk can be handed to
// readers without tearing. The chunk directory is published through an
// atomic pointer and replaced by a longer copy on growth; chunks never
// move, so a cell access is one pointer load with no lock.
type Words struct {
	growMu sync.Mutex // serializes directory growth
	dir    atomic.Pointer[[][]int64]
}

func newWords(capHint int64) *Words {
	w := &Words{}
	w.dir.Store(new([][]int64))
	w.ensure(capHint)
	return w
}

// ensure guarantees storage for rows [0, n).
func (w *Words) ensure(n int64) {
	need := int((n + ChunkSize - 1) / ChunkSize)
	if len(*w.dir.Load()) >= need {
		return
	}
	w.growMu.Lock()
	defer w.growMu.Unlock()
	old := *w.dir.Load()
	if len(old) >= need {
		return
	}
	grown := make([][]int64, need)
	copy(grown, old)
	for i := len(old); i < need; i++ {
		grown[i] = make([]int64, ChunkSize)
	}
	w.dir.Store(&grown)
}

func (w *Words) chunk(ci int) []int64 {
	return (*w.dir.Load())[ci]
}

// Store atomically writes the value at row i (storage must exist).
func (w *Words) Store(i int64, v int64) {
	c := w.chunk(int(i / ChunkSize))
	atomic.StoreInt64(&c[i%ChunkSize], v)
}

// Load atomically reads the value at row i.
func (w *Words) Load(i int64) int64 {
	c := w.chunk(int(i / ChunkSize))
	return atomic.LoadInt64(&c[i%ChunkSize])
}

// Scan iterates rows [lo, hi) in chunk-sized runs, invoking fn with the raw
// slice for each run and the absolute row number of its first element.
// The values are read without atomics: callers must only scan ranges that
// no writer mutates concurrently (e.g. an inactive instance snapshot).
func (w *Words) Scan(lo, hi int64, fn func(vals []int64, base int64)) {
	for i := lo; i < hi; {
		ci := int(i / ChunkSize)
		off := i % ChunkSize
		end := int64(ChunkSize)
		if rem := hi - (i - off); rem < end {
			end = rem
		}
		c := w.chunk(ci)
		fn(c[off:end], i)
		i += end - off
	}
}

// Slice returns the raw storage for rows [lo, hi), which must lie within a
// single chunk (hi-lo <= ChunkSize and no chunk boundary crossed). Like
// Scan, callers must not read ranges a writer mutates concurrently.
func (w *Words) Slice(lo, hi int64) []int64 {
	if lo/ChunkSize != (hi-1)/ChunkSize {
		panic("columnar: Slice range crosses a chunk boundary")
	}
	c := w.chunk(int(lo / ChunkSize))
	return c[lo%ChunkSize : (hi-1)%ChunkSize+1]
}

// CopyRange copies rows [lo, hi) from src into w at the same positions.
// Source cells are read atomically: the bulk ETL copy may run after a
// later exchange cycle re-activated the source instance (a batch reusing
// its snapshot set), where transactions update cells in place. Row-level
// consistency of concurrently updated rows is the caller's concern — the
// update-indication bits keep such rows fresh for the next ETL.
func (w *Words) CopyRange(src *Words, lo, hi int64) {
	w.ensure(hi)
	src.Scan(lo, hi, func(vals []int64, base int64) {
		dst := w.chunk(int(base / ChunkSize))
		off := base % ChunkSize
		for j := range vals {
			dst[off+int64(j)] = atomic.LoadInt64(&vals[j])
		}
	})
}
