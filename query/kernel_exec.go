package query

// Execution side of the fused kernels: open-addressed hash tables for
// the join build side and spill grouping, the per-morsel single-pass
// loops, and the morsel-ordered merge.

import (
	"sort"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
)

// fibMul is the 64-bit golden-ratio constant. Single-key tables index
// with one multiply and take the TOP bits (Fibonacci hashing): dense or
// sequential keys spread uniformly, and the per-probe cost is a single
// imul — cheaper than any avalanche mix and cheaper than Go's map hash.
const fibMul = 0x9e3779b97f4a7c15

// hash1 is the single-word table index: multiply, keep the top bits.
func hash1(k int64, shift uint8) uint64 {
	return uint64(k) * fibMul >> shift
}

// hashJK folds composite keys with one xor-multiply per word; the final
// multiply smears every input bit into the top bits, which the tables
// index by (low bits are weak for this chain and are shifted away).
func hashJK(k *jkey, n int) uint64 {
	h := uint64(fibMul)
	for d := 0; d < n; d++ {
		h = (h ^ uint64(k[d])) * fibMul
	}
	return h
}

func hashGK(k *gkey, n int) uint64 {
	h := uint64(fibMul)
	for d := 0; d < n; d++ {
		h = (h ^ uint64(k[d])) * fibMul
	}
	return h
}

// joinTab1 is the single-key join build table: linear-probed slots keyed
// by the raw int64 word, payload rows packed in one slab at fixed
// stride. build presizes it from the dimension's row count — like the
// map build it replaces — so loading never rehashes.
type joinTab1 struct {
	mask  uint64
	shift uint8
	slots []j1slot
	slab  []int64
	npay  int
}

type j1slot struct {
	key  int64
	off  int32
	used bool
}

// sizeFor picks the power-of-two slot count holding n entries under 3/4
// load, returning (nslots, shift).
func sizeFor(n int) (int, uint8) {
	nslots, shift := 64, uint8(58)
	for nslots*3 < n*4 {
		nslots, shift = nslots*2, shift-1
	}
	return nslots, shift
}

func (t *joinTab1) grow() {
	old := t.slots
	t.slots = make([]j1slot, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.shift--
	for i := range old {
		s := old[i]
		if !s.used {
			continue
		}
		h := hash1(s.key, t.shift)
		for t.slots[h].used {
			h = (h + 1) & t.mask
		}
		t.slots[h] = s
	}
}

// build loads the dimension's predicate-passing rows, narrowed through
// the dimension's secondary index when an Eq predicate allows it (see
// indexedDimRows). Duplicate keys keep the last row's payload, matching
// the map build it replaces — posting rows iterate ascending, so the
// narrowed build resolves duplicates identically. Returns the number of
// dimension rows read (the cost model's broadcast volume).
func (t *joinTab1) build(j *joinPlan) int64 {
	dt := j.dim.Table()
	rows := dt.Rows()
	t.npay = len(j.payCols)
	cands, narrowed := indexedDimRows(j)
	scanned := rows
	// Presize for the rows that will actually be visited; a predicated
	// un-narrowed build stays small and grows to its matches, keeping
	// selective tables cache-resident.
	n0 := int(rows)
	if len(j.preds) > 0 {
		n0 = 0
	}
	if narrowed {
		scanned = int64(len(cands))
		n0 = len(cands)
	}
	nslots, shift := sizeFor(n0)
	t.slots = make([]j1slot, nslots)
	t.mask, t.shift = uint64(nslots-1), shift
	if t.npay > 0 && n0 > 0 {
		t.slab = make([]int64, 0, n0*t.npay)
	}
	kc := j.keyCols[0]
	n := 0
	add := func(r int64) {
		for i := range j.preds {
			f := &j.preds[i]
			if !f.match(dt.ReadActive(r, f.col)) {
				return
			}
		}
		off := int32(len(t.slab))
		for _, pc := range j.payCols {
			t.slab = append(t.slab, dt.ReadActive(r, pc))
		}
		if (n+1)*4 > len(t.slots)*3 {
			t.grow()
		}
		k := dt.ReadActive(r, kc)
		h := hash1(k, t.shift)
		for {
			s := &t.slots[h]
			if !s.used {
				s.key, s.off, s.used = k, off, true
				n++
				break
			}
			if s.key == k {
				s.off = off // last row wins, like the map build
				break
			}
			h = (h + 1) & t.mask
		}
	}
	if narrowed {
		for _, r := range cands {
			add(r)
		}
	} else {
		for r := int64(0); r < rows; r++ {
			add(r)
		}
	}
	return scanned
}

// joinTabK is the composite-key variant over fixed-width jkey arrays.
type joinTabK struct {
	mask  uint64
	shift uint8
	slots []jKslot
	slab  []int64
	npay  int
	nkey  int
}

type jKslot struct {
	key  jkey
	off  int32
	used bool
}

func (t *joinTabK) grow() {
	old := t.slots
	t.slots = make([]jKslot, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.shift--
	for i := range old {
		s := old[i]
		if !s.used {
			continue
		}
		h := hashJK(&s.key, t.nkey) >> t.shift
		for t.slots[h].used {
			h = (h + 1) & t.mask
		}
		t.slots[h] = s
	}
}

func (t *joinTabK) build(j *joinPlan) int64 {
	dt := j.dim.Table()
	rows := dt.Rows()
	t.npay = len(j.payCols)
	t.nkey = len(j.keyCols)
	cands, narrowed := indexedDimRows(j)
	scanned := rows
	n0 := int(rows)
	if len(j.preds) > 0 {
		n0 = 0
	}
	if narrowed {
		scanned = int64(len(cands))
		n0 = len(cands)
	}
	nslots, shift := sizeFor(n0)
	t.slots = make([]jKslot, nslots)
	t.mask, t.shift = uint64(nslots-1), shift
	if t.npay > 0 && n0 > 0 {
		t.slab = make([]int64, 0, n0*t.npay)
	}
	n := 0
	add := func(r int64) {
		for i := range j.preds {
			f := &j.preds[i]
			if !f.match(dt.ReadActive(r, f.col)) {
				return
			}
		}
		off := int32(len(t.slab))
		for _, pc := range j.payCols {
			t.slab = append(t.slab, dt.ReadActive(r, pc))
		}
		if (n+1)*4 > len(t.slots)*3 {
			t.grow()
		}
		var k jkey
		for d, kc := range j.keyCols {
			k[d] = dt.ReadActive(r, kc)
		}
		h := hashJK(&k, t.nkey) >> t.shift
		for {
			s := &t.slots[h]
			if !s.used {
				s.key, s.off, s.used = k, off, true
				n++
				break
			}
			if s.key == k {
				s.off = off
				break
			}
			h = (h + 1) & t.mask
		}
	}
	if narrowed {
		for _, r := range cands {
			add(r)
		}
	} else {
		for r := int64(0); r < rows; r++ {
			add(r)
		}
	}
	return scanned
}

// groupTab is per-local spill group state: an open-addressed index over
// insertion-ordered keys, with all accumulator rows packed in one arena
// at stride nacc — one growable allocation each instead of one map entry
// plus one []acc per group.
type groupTab struct {
	mask  uint64
	shift uint8
	slots []int32 // index+1 into keys; 0 = empty
	keys  []gkey
	arena []acc
	nacc  int
	nkey  int
}

var zeroAccRow [maxFusedAccs]acc

// newGroupTab returns an empty table with room for n keys before its
// first grow: per-morsel tables start small (n = 0) and grow with the keys
// they touch, the merge table is sized once from the locals' key counts.
func newGroupTab(nacc, nkey, n int) *groupTab {
	size, shift := 64, uint8(58)
	for n*4 > size*3 {
		size *= 2
		shift--
	}
	return &groupTab{
		mask: uint64(size - 1), shift: shift, slots: make([]int32, size),
		keys: make([]gkey, 0, n), arena: make([]acc, 0, n*nacc),
		nacc: nacc, nkey: nkey,
	}
}

func (t *groupTab) grow() {
	n := len(t.slots) * 2
	slots := make([]int32, n)
	mask := uint64(n - 1)
	t.shift--
	for i := range t.keys {
		h := hashGK(&t.keys[i], t.nkey) >> t.shift
		for slots[h] != 0 {
			h = (h + 1) & mask
		}
		slots[h] = int32(i + 1)
	}
	t.slots, t.mask = slots, mask
}

// lookup returns key k's accumulator row, creating it zeroed on first
// touch (CountIf semantics require groups to exist even when every
// condition fails). Growth amortizes to zero per morsel once the table
// has seen the key domain.
//
//htap:coldpath
func (t *groupTab) lookup(k *gkey) []acc {
	h := hashGK(k, t.nkey) >> t.shift
	for {
		s := t.slots[h]
		if s == 0 {
			break
		}
		if t.keys[s-1] == *k {
			off := int(s-1) * t.nacc
			return t.arena[off : off+t.nacc]
		}
		h = (h + 1) & t.mask
	}
	if (len(t.keys)+1)*4 > len(t.slots)*3 {
		t.grow()
		h = hashGK(k, t.nkey) >> t.shift
		for t.slots[h] != 0 {
			h = (h + 1) & t.mask
		}
	}
	idx := len(t.keys)
	t.keys = append(t.keys, *k)
	t.arena = append(t.arena, zeroAccRow[:t.nacc]...)
	t.slots[h] = int32(idx + 1)
	off := idx * t.nacc
	return t.arena[off : off+t.nacc]
}

// sumIF is specDenseSumIF's dense group cell: int-sum, float-sum and
// the shared count packed into 24 bytes — the same layout a hand-written
// sum/sum/count kernel uses, one address computation per row.
type sumIF struct {
	qty, amt float64
	cnt      int64
}

// flocal is per-morsel fused state. Group storage allocates lazily and
// grows with the keys the morsel actually touches; a warmed local
// consuming a same-shaped block allocates nothing.
type flocal struct {
	e         *fexec
	globalBuf [4]acc
	global    []acc   // gNone
	flat      []acc   // gDense: flat[key*nacc+j]
	present   []bool  // gDense occupancy
	flatIF    []sumIF // specDenseSumIF: dense cells, cnt>0 = present
	tab       *groupTab
	payBuf    []int64 // jMulti: the current row's gathered payload words
}

// NewLocal implements olap.Exec.
func (e *fexec) NewLocal() olap.Local {
	l := &flocal{e: e}
	if e.gkind == gNone {
		if e.nacc <= len(l.globalBuf) {
			l.global = l.globalBuf[:e.nacc]
		} else {
			l.global = make([]acc, e.nacc)
		}
	}
	if e.gkind == gSpill {
		// Spill plans always hash: building the table here keeps the
		// per-block consume paths allocation-free (//htap:hotpath).
		l.tab = newGroupTab(e.nacc, max(e.ngroup, 1), 0)
	}
	if e.jkind == jMulti {
		l.payBuf = make([]int64, e.npayTotal)
	}
	return l
}

// growDense doubles the flat array to cover key k (capped at denseLen),
// the same policy as the staged path so flat contents stay identical.
//
//htap:coldpath
func (l *flocal) growDense(k int64) {
	n := 16
	for n <= int(k) {
		n *= 2
	}
	if n > denseLen {
		n = denseLen
	}
	flat := make([]acc, n*l.e.nacc)
	copy(flat, l.flat)
	present := make([]bool, n)
	copy(present, l.present)
	l.flat, l.present = flat, present
}

// growIF doubles the specDenseSumIF cell array to cover key k, the same
// doubling-from-16 policy as growDense.
//
//htap:coldpath
func (l *flocal) growIF(k int64) {
	n := 16
	for n <= int(k) {
		n *= 2
	}
	if n > denseLen {
		n = denseLen
	}
	flat := make([]sumIF, n)
	copy(flat, l.flatIF)
	l.flatIF = flat
}

// lookupTab resolves a spilled key through the open-addressed table,
// creating the table on a dense plan's first overflow key.
//
//htap:coldpath
func (l *flocal) lookupTab(k gkey) []acc {
	if l.tab == nil {
		l.tab = newGroupTab(l.e.nacc, max(l.e.ngroup, 1), 0)
	}
	return l.tab.lookup(&k)
}

// Consume implements olap.Local: one pass over the block, filter →
// probe → group → accumulate per row. The loop splits per grouping kind
// so the group-resolve branch is hoisted; filter ranges, the probe and
// the op switch run inline with no per-row calls. A warmed local
// consuming a same-shaped block must not allocate (the runtime half of
// this contract is alloc_regression_test.go).
//
//htap:hotpath
func (l *flocal) Consume(b olap.Block) {
	e := l.e
	if e.never || b.N == 0 {
		return
	}
	// Morsel skipping: an Eq filter over a never-updated indexed fact
	// column whose postings have no row in this block's range cannot
	// match; blocks past the index watermark always scan.
	if len(e.skips) > 0 && !disableIndexSkip.Load() {
		end := b.Base + int64(b.N)
		for i := range e.skips {
			sk := &e.skips[i]
			if end <= sk.wm && !sk.post.AnyInRange(b.Base, end) {
				return
			}
		}
	}
	switch e.spec {
	case specGlobalSumF2:
		l.runGlobalSumF2(b)
	case specGlobalSemiSumF:
		l.runGlobalSemiSumF(b)
	case specDenseSumIF:
		l.runDenseSumIF(b)
	case specSpillSumF:
		l.runSpillSumF(b)
	default:
		switch e.gkind {
		case gNone:
			l.consumeGlobal(b)
		case gDense:
			l.consumeDense(b)
		default:
			l.consumeSpill(b)
		}
	}
}

// probe resolves the join for row i: reports whether it matched and
// leaves the payload row in *pay. Small enough to inline into the
// consume loops' row bodies.
func (e *fexec) probe(cols [][]int64, i int, pay *[]int64) bool {
	switch e.jkind {
	case jOne:
		k := cols[e.probeSlot][i]
		h := hash1(k, e.j1.shift)
		for {
			s := &e.j1.slots[h]
			if !s.used {
				return false
			}
			if s.key == k {
				if e.npay > 0 {
					*pay = e.j1.slab[s.off : int(s.off)+e.npay]
				}
				return true
			}
			h = (h + 1) & e.j1.mask
		}
	case jMany:
		var k jkey
		for d, s := range e.probeSlots {
			k[d] = cols[s][i]
		}
		h := hashJK(&k, e.nkey) >> e.jK.shift
		for {
			s := &e.jK.slots[h]
			if !s.used {
				return false
			}
			if s.key == k {
				if e.npay > 0 {
					*pay = e.jK.slab[s.off : int(s.off)+e.npay]
				}
				return true
			}
			h = (h + 1) & e.jK.mask
		}
	}
	return true
}

// probeMulti resolves a jMulti kernel's joins for row i in execution
// order: each key gathers from fact block columns or from an earlier
// join's words already landed in payBuf, and each match copies its
// payload slab into payBuf at the join's payBase. Reports whether every
// join matched.
func (e *fexec) probeMulti(cols [][]int64, i int, payBuf []int64) bool {
	for ji := range e.joins {
		j := &e.joins[ji]
		if j.one {
			var k int64
			if s := j.probeSlots[0]; s >= e.nscan {
				k = payBuf[s-e.nscan]
			} else {
				k = cols[s][i]
			}
			h := hash1(k, j.j1.shift)
			for {
				sl := &j.j1.slots[h]
				if !sl.used {
					return false
				}
				if sl.key == k {
					// Single-word payloads (the common case) skip memmove.
					if j.npay == 1 {
						payBuf[j.payBase] = j.j1.slab[sl.off]
					} else if j.npay > 0 {
						copy(payBuf[j.payBase:j.payBase+j.npay], j.j1.slab[sl.off:int(sl.off)+j.npay])
					}
					break
				}
				h = (h + 1) & j.j1.mask
			}
			continue
		}
		var k jkey
		for d, s := range j.probeSlots {
			if s >= e.nscan {
				k[d] = payBuf[s-e.nscan]
			} else {
				k[d] = cols[s][i]
			}
		}
		h := hashJK(&k, j.nkey) >> j.jK.shift
		for {
			sl := &j.jK.slots[h]
			if !sl.used {
				return false
			}
			if sl.key == k {
				if j.npay == 1 {
					payBuf[j.payBase] = j.jK.slab[sl.off]
				} else if j.npay > 0 {
					copy(payBuf[j.payBase:j.payBase+j.npay], j.jK.slab[sl.off:int(sl.off)+j.npay])
				}
				break
			}
			h = (h + 1) & j.jK.mask
		}
	}
	return true
}

// filterRow evaluates the specialized range filters then any generic
// tests for row i.
func (e *fexec) filterRow(cols [][]int64, i int) bool {
	for r := range e.ranges {
		rg := &e.ranges[r]
		// One branch per range: w ∈ [lo,hi] iff w-lo ≤ hi-lo unsigned
		// (the subtraction rotates [lo,hi] onto [0,hi-lo]).
		if uint64(cols[rg.slot][i]-rg.lo) > uint64(rg.hi-rg.lo) {
			return false
		}
	}
	for r := range e.franges {
		rg := &e.franges[r]
		if d := columnar.DecodeFloat(cols[rg.slot][i]); d < rg.lo || d > rg.hi {
			return false
		}
	}
	for g := range e.gens {
		f := &e.gens[g]
		if !f.match(cols[f.slot][i]) {
			return false
		}
	}
	return true
}

// update applies every specialized op to row i's accumulator row. Update
// order is ascending row order per accumulator — the same order as the
// staged per-aggregate passes — so float totals are bit-identical.
func (e *fexec) update(accs []acc, cols [][]int64, pay []int64, i int) {
	for o := range e.ops {
		op := &e.ops[o]
		st := &accs[op.acc]
		var w int64
		if op.pay {
			w = pay[op.slot]
		} else {
			w = cols[op.slot][i]
		}
		switch op.op {
		case opSumInt:
			st.sum += float64(w)
			st.count++
		case opSumFloat:
			st.sum += columnar.DecodeFloat(w)
			st.count++
		case opSumIntNC:
			st.sum += float64(w)
		case opSumFloatNC:
			st.sum += columnar.DecodeFloat(w)
		case opCount:
			st.count++
		case opCountIfRange:
			if w >= op.lo && w <= op.hi {
				st.count++
			}
		case opCountIfGen:
			if op.test.match(w) {
				st.count++
			}
		case opMinInt:
			if v := float64(w); !st.seen || v < st.ext {
				st.ext, st.seen = v, true
			}
		case opMinFloat:
			if v := columnar.DecodeFloat(w); !st.seen || v < st.ext {
				st.ext, st.seen = v, true
			}
		case opMaxInt:
			if v := float64(w); !st.seen || v > st.ext {
				st.ext, st.seen = v, true
			}
		case opMaxFloat:
			if v := columnar.DecodeFloat(w); !st.seen || v > st.ext {
				st.ext, st.seen = v, true
			}
		}
	}
}

func (l *flocal) consumeGlobal(b olap.Block) {
	e := l.e
	cols := b.Cols
	accs := l.global
	var pay []int64
	if e.jkind == jMulti {
		pay = l.payBuf
	}
	for i := 0; i < b.N; i++ {
		if !e.filterRow(cols, i) {
			continue
		}
		if e.jkind == jMulti {
			if !e.probeMulti(cols, i, l.payBuf) {
				continue
			}
		} else if e.jkind != jNone && !e.probe(cols, i, &pay) {
			continue
		}
		e.update(accs, cols, pay, i)
	}
}

func (l *flocal) consumeDense(b olap.Block) {
	e := l.e
	cols := b.Cols
	nacc := e.nacc
	var kvec []int64
	if !e.gpay {
		kvec = cols[e.gslot]
	}
	var pay []int64
	if e.jkind == jMulti {
		pay = l.payBuf
	}
	for i := 0; i < b.N; i++ {
		if !e.filterRow(cols, i) {
			continue
		}
		if e.jkind == jMulti {
			if !e.probeMulti(cols, i, l.payBuf) {
				continue
			}
		} else if e.jkind != jNone && !e.probe(cols, i, &pay) {
			continue
		}
		var k int64
		if e.gpay {
			k = pay[e.gslot]
		} else {
			k = kvec[i]
		}
		var accs []acc
		if uint64(k) < denseLen {
			if int(k) >= len(l.present) {
				l.growDense(k)
			}
			l.present[k] = true
			accs = l.flat[int(k)*nacc:]
		} else {
			accs = l.lookupTab(gkey{k})
		}
		e.update(accs, cols, pay, i)
	}
}

func (l *flocal) consumeSpill(b olap.Block) {
	e := l.e
	cols := b.Cols
	var pay []int64
	if e.jkind == jMulti {
		pay = l.payBuf
	}
	for i := 0; i < b.N; i++ {
		if !e.filterRow(cols, i) {
			continue
		}
		if e.jkind == jMulti {
			if !e.probeMulti(cols, i, l.payBuf) {
				continue
			}
		} else if e.jkind != jNone && !e.probe(cols, i, &pay) {
			continue
		}
		var k gkey
		for d := range e.gsrc {
			g := &e.gsrc[d]
			if g.pay {
				k[d] = pay[g.idx]
			} else {
				k[d] = cols[g.idx][i]
			}
		}
		e.update(l.lookupTab(k), cols, pay, i)
	}
}

// --- merge ---

// mergeInto folds one local's accumulator row into the running total,
// per physical accumulator kind.
//
//htap:deterministic
func (e *fexec) mergeInto(dst, src []acc) {
	for i := range e.sh.accs {
		switch e.sh.accs[i].kind {
		case facSum:
			dst[i].sum += src[i].sum
			dst[i].count += src[i].count
		case facCount, facCountIf:
			dst[i].count += src[i].count
		case facMin:
			if src[i].seen && (!dst[i].seen || src[i].ext < dst[i].ext) {
				dst[i].ext, dst[i].seen = src[i].ext, true
			}
		case facMax:
			if src[i].seen && (!dst[i].seen || src[i].ext > dst[i].ext) {
				dst[i].ext, dst[i].seen = src[i].ext, true
			}
		}
	}
}

// emitRow renders one output row from a merged accumulator row through
// the shape's emit mapping.
//
//htap:deterministic
func (e *fexec) emitRow(k gkey, accs []acc) []float64 {
	row := make([]float64, e.ngroup+len(e.sh.emits))
	e.emitInto(row, &k, accs)
	return row
}

// emitInto is emitRow into a caller-owned row of the output width.
//
//htap:deterministic
func (e *fexec) emitInto(row []float64, k *gkey, accs []acc) {
	for d := 0; d < e.ngroup; d++ {
		row[d] = float64(k[d])
	}
	for j, em := range e.sh.emits {
		st := &accs[em.acc]
		var v float64
		switch em.kind {
		case aggCount, aggCountIf:
			v = float64(st.count)
		case aggSum:
			v = st.sum
		case aggAvg:
			// The count lives on the shared carrier accumulator; noCount
			// sums only track their own total.
			if cnt := accs[em.cnt].count; cnt != 0 {
				v = st.sum / float64(cnt)
			}
		default: // aggMin, aggMax
			v = st.ext
		}
		row[e.ngroup+j] = v
	}
}

// Merge implements olap.Exec. The engine passes locals in morsel order;
// totals accumulate in that order, exactly like the staged merge, so
// fused results are bitwise identical under any stealing or resize
// interleaving. Unordered grouped rows emit sorted by key, the order
// their output is defined by; an ordered plan skips that sort and
// finishes in one pass over the merge table (see finishOrdered).
//
//htap:deterministic
func (e *fexec) Merge(locals []olap.Local) olap.Result {
	c := e.c
	res := olap.Result{Cols: c.outCols}
	if e.gkind == gNone {
		total := make([]acc, e.nacc)
		for _, li := range locals {
			e.mergeInto(total, li.(*flocal).global)
		}
		res.Rows = [][]float64{e.emitRow(gkey{}, total)}
		return finishRes(c, res)
	}
	// Totals accumulate in another open-addressed table: one arena
	// instead of a map entry plus an []acc per group, sized up front so
	// it never rehashes. Distinct keys are bounded by the widest dense
	// local (dense keys share one small domain) plus every spilled key.
	// Locals are visited in morsel order and each group's accumulator row
	// merges in that order, so float totals stay bitwise deterministic.
	dense, spilled := 0, 0
	for _, li := range locals {
		ll := li.(*flocal)
		dense = max(dense, len(ll.flatIF), len(ll.present))
		if ll.tab != nil {
			spilled += len(ll.tab.keys)
		}
	}
	total := newGroupTab(e.nacc, max(e.ngroup, 1), dense+spilled)
	for _, li := range locals {
		ll := li.(*flocal)
		// specDenseSumIF keeps its dense cells in 24-byte sumIF form with
		// no occupancy stores: the shared count is unconditional, so
		// cnt>0 is exactly the staged path's present bit, and the fold
		// below adds the same values in the same ascending-key order.
		for kv := range ll.flatIF {
			g := &ll.flatIF[kv]
			if g.cnt > 0 {
				accs := total.lookup(&gkey{int64(kv)})
				accs[0].sum += g.qty
				accs[0].count += g.cnt
				accs[1].sum += g.amt
			}
		}
		if ll.flat != nil {
			for kv, on := range ll.present {
				if on {
					e.mergeInto(total.lookup(&gkey{int64(kv)}), ll.flat[kv*e.nacc:(kv+1)*e.nacc])
				}
			}
		}
		if ll.tab != nil {
			for i := range ll.tab.keys {
				e.mergeInto(total.lookup(&ll.tab.keys[i]), ll.tab.arena[i*e.nacc:(i+1)*e.nacc])
			}
		}
	}
	if c.ordered {
		return e.finishOrdered(total, res)
	}
	order := make([]int32, len(total.keys))
	for i := range order {
		order[i] = int32(i)
	}
	keys := total.keys
	sort.Slice(order, func(i, j int) bool {
		a, b := &keys[order[i]], &keys[order[j]]
		for d := 0; d < e.ngroup; d++ {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	for _, oi := range order {
		off := int(oi) * e.nacc
		res.Rows = append(res.Rows, e.emitRow(keys[oi], total.arena[off:off+e.nacc]))
	}
	return finishRes(c, res)
}

// finishOrdered is an ordered grouped plan's finish, fused into one pass
// over the merge table in insertion order: each group renders into one
// reusable scratch row, Having filters it there, and survivors are
// counted (the sort volume the cost model charges) and offered to a
// bounded top-k, which copies a row only when it keeps it. No key sort is
// needed: Order is total over distinct rows and grouped rows are
// distinct, so the top-k's output is the same for any offer order — the
// staged merge's key-sorted feed included. Only the kept rows are ever
// materialized.
//
//htap:deterministic
func (e *fexec) finishOrdered(total *groupTab, res olap.Result) olap.Result {
	c := e.c
	if len(total.keys) == 0 {
		return res // nil rows, like the staged merge over no groups
	}
	top := olap.NewTopK(c.order, c.limit, len(total.keys))
	row := make([]float64, e.ngroup+len(e.sh.emits))
	for i := range total.keys {
		e.emitInto(row, &total.keys[i], total.arena[i*e.nacc:(i+1)*e.nacc])
		if c.keeps(row) {
			res.SortedRows++
			top.Offer(row)
		}
	}
	res.Rows = top.Rows()
	return res
}
