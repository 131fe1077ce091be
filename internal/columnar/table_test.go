package columnar

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return Schema{Name: "t", Columns: []ColumnDef{
		{Name: "id", Type: Int64},
		{Name: "amt", Type: Float64},
		{Name: "tag", Type: String},
	}}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	row := tab.EncodeRow(42, 3.25, "hello")
	if got := row[0]; got != 42 {
		t.Fatalf("int encode = %d", got)
	}
	if got := tab.DecodeValue(1, row[1]); got != 3.25 {
		t.Fatalf("float decode = %v", got)
	}
	if got := tab.DecodeValue(2, row[2]); got != "hello" {
		t.Fatalf("string decode = %v", got)
	}
}

func TestAppendVisibility(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	tab.AppendRows([][]int64{tab.EncodeRow(1, 1.0, "a")}, 1)
	if tab.Rows() != 1 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
	if tab.Active().Visible() != 1 {
		t.Fatalf("active visible = %d", tab.Active().Visible())
	}
	// Inserts are physically in both instances but only visible in the
	// active one (§3.2).
	if tab.Inactive().Visible() != 0 {
		t.Fatalf("inactive visible = %d, want 0", tab.Inactive().Visible())
	}
	if got := tab.ReadCell(1-tab.ActiveIndex(), 0, 0); got != 1 {
		t.Fatalf("physical twin copy missing: %d", got)
	}
}

func TestSwitchExposesInserts(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	tab.AppendRows([][]int64{tab.EncodeRow(1, 1.0, "a"), tab.EncodeRow(2, 2.0, "b")}, 1)
	sw := tab.Switch()
	if sw.SnapshotRows != 2 {
		t.Fatalf("snapshot rows = %d", sw.SnapshotRows)
	}
	if tab.Active().Visible() != 2 {
		t.Fatalf("new active visible = %d", tab.Active().Visible())
	}
	if sw.Epoch != 1 || tab.Epoch() != 1 {
		t.Fatalf("epoch = %d/%d", sw.Epoch, tab.Epoch())
	}
	// Snapshot sees both rows.
	if got := sw.Snapshot.Col(0).Load(1); got != 2 {
		t.Fatalf("snapshot row 1 col 0 = %d", got)
	}
}

func TestUpdateGoesToActiveOnly(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	tab.AppendRows([][]int64{tab.EncodeRow(1, 1.0, "a")}, 1)
	tab.Switch() // both instances now hold row 0
	a := tab.ActiveIndex()
	tab.UpdateCell(0, 0, 99, 5)
	if got := tab.ReadCell(a, 0, 0); got != 99 {
		t.Fatalf("active = %d", got)
	}
	if got := tab.ReadCell(1-a, 0, 0); got != 1 {
		t.Fatalf("inactive mutated: %d", got)
	}
	if !tab.Instance(a).dirty.Test(0) {
		t.Fatal("update-indication bit not set")
	}
	if tab.RowTS(0) != 5 {
		t.Fatalf("rowTS = %d", tab.RowTS(0))
	}
	st := tab.Stats(a)
	if !st[0].HasUpdates {
		t.Fatal("column stats missing HasUpdates")
	}
}

func noLock(int64) func() { return func() {} }

func lockNothing(row int64) func() { return noLock(row) }

func TestSwitchSyncTwinInvariant(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	var rows [][]int64
	for i := 0; i < 100; i++ {
		rows = append(rows, tab.EncodeRow(i, float64(i), "x"))
	}
	tab.AppendRows(rows, 1)
	tab.Switch()
	tab.SyncTo(1-tab.ActiveIndex(), lockNothing)

	// Update a few rows on the active instance.
	for _, r := range []int64{3, 50, 99} {
		tab.UpdateCell(r, 0, r*1000, 7)
	}
	sw := tab.Switch()
	copied := tab.SyncTo(sw.SnapshotIndex, lockNothing)
	if copied != 3 {
		t.Fatalf("copied = %d, want 3", copied)
	}
	// Twin invariant: both instances identical below the watermark.
	for r := int64(0); r < sw.SnapshotRows; r++ {
		for c := 0; c < 3; c++ {
			if tab.ReadCell(0, r, c) != tab.ReadCell(1, r, c) {
				t.Fatalf("instances diverge at row %d col %d", r, c)
			}
		}
	}
	if sw.Snapshot.DirtyCount() != 0 {
		t.Fatalf("dirty bits remain: %d", sw.Snapshot.DirtyCount())
	}
}

func TestSyncSkipsReupdatedRows(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	tab.AppendRows([][]int64{tab.EncodeRow(1, 1.0, "a")}, 1)
	tab.Switch()
	tab.SyncTo(1-tab.ActiveIndex(), lockNothing)
	tab.UpdateCell(0, 0, 100, 2) // on active (epoch 1)
	sw := tab.Switch()           // snapshot holds 100
	// A "transaction" updates the row on the new active before sync.
	tab.UpdateCell(0, 0, 200, 3)
	tab.SyncTo(sw.SnapshotIndex, lockNothing)
	// The newer value must survive: "in case they have not been updated
	// there as well by that time" (§3.4).
	if got := tab.ReadActive(0, 0); got != 200 {
		t.Fatalf("sync overwrote newer value: %d", got)
	}
}

func TestFreshSince(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	var rows [][]int64
	for i := 0; i < 10; i++ {
		rows = append(rows, tab.EncodeRow(i, 0.0, "x"))
	}
	tab.AppendRows(rows, 1)
	st := tab.FreshSince(0)
	if st.InsertedRows != 10 || st.UpdatedRows != 0 {
		t.Fatalf("fresh = %+v", st)
	}
	// Simulate an OLAP replica that has the first 10 rows and cleared bits.
	tab.DirtyOLAP().Reset()
	tab.UpdateCell(2, 0, 5, 2)
	tab.AppendRows([][]int64{tab.EncodeRow(10, 0.0, "y")}, 3)
	st = tab.FreshSince(10)
	if st.UpdatedRows != 1 {
		t.Fatalf("updated = %d, want 1", st.UpdatedRows)
	}
	if st.InsertedRows != 1 {
		t.Fatalf("inserted = %d, want 1", st.InsertedRows)
	}
}

func TestConcurrentAppendAndScan(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	var rows [][]int64
	for i := 0; i < 1000; i++ {
		rows = append(rows, tab.EncodeRow(i, 0.0, "x"))
	}
	tab.AppendRows(rows, 1)
	sw := tab.Switch()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent appender (inserts beyond the watermark)
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tab.AppendRows([][]int64{tab.EncodeRow(1000+i, 0.0, "y")}, 2)
		}
	}()
	// Scan the snapshot below its watermark repeatedly.
	for rep := 0; rep < 20; rep++ {
		var sum int64
		sw.Snapshot.Col(0).Scan(0, sw.SnapshotRows, func(vals []int64, base int64) {
			for _, v := range vals {
				sum += v
			}
		})
		if want := int64(1000 * 999 / 2); sum != want {
			t.Fatalf("scan sum = %d, want %d", sum, want)
		}
	}
	wg.Wait()
}

func TestReplicaETLEquivalence(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	var rows [][]int64
	for i := 0; i < 200; i++ {
		rows = append(rows, tab.EncodeRow(i, float64(i)/2, "x"))
	}
	tab.AppendRows(rows, 1)
	rep := NewReplica(tab)
	sw := tab.Switch()
	if b := rep.CopyInserts(sw.Snapshot, 0, sw.SnapshotRows); b != 200*tab.Schema().RowBytes() {
		t.Fatalf("bytes = %d", b)
	}
	if rep.Rows() != 200 {
		t.Fatalf("replica rows = %d", rep.Rows())
	}
	for r := int64(0); r < 200; r++ {
		if !rep.EqualRow(sw.Snapshot, r) {
			t.Fatalf("replica row %d differs", r)
		}
	}
	// Copy an updated row individually.
	tab.UpdateCell(7, 1, EncodeFloat(123.5), 3)
	sw2 := tab.Switch()
	rep.CopyRow(sw2.Snapshot, 7)
	if got := DecodeFloat(rep.Col(1).Load(7)); got != 123.5 {
		t.Fatalf("updated row copy = %v", got)
	}
}

func TestWordsSliceBoundaries(t *testing.T) {
	w := newWords(ChunkSize * 2)
	w.Store(ChunkSize-1, 7)
	w.Store(ChunkSize, 8)
	s := w.Slice(ChunkSize-1, ChunkSize)
	if len(s) != 1 || s[0] != 7 {
		t.Fatalf("slice = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-chunk Slice must panic")
		}
	}()
	w.Slice(ChunkSize-1, ChunkSize+1)
}

// TestWordsConcurrentGrowth appends across nine chunk boundaries of a
// table created with no capacity hint, so every column's chunk directory
// is republished repeatedly, while readers ReadActive every published row
// they sample and an ETL copies the published prefix into a replica. Run
// under -race it pins the lock-free directory: a reader or copier that
// loads a directory mid-growth must still find every published chunk.
func TestWordsConcurrentGrowth(t *testing.T) {
	const total = 9*ChunkSize + 123
	const batch = 3000
	val := func(r int64, c int) int64 { return r*7 + int64(c) }
	tab := NewTable(Schema{Name: "g", Columns: []ColumnDef{
		{Name: "a", Type: Int64},
		{Name: "b", Type: Int64},
	}}, 0)
	rep := NewReplica(tab)
	var done atomic.Bool
	var wg sync.WaitGroup
	check := func(what string, r int64, c int, got int64) bool {
		if got != val(r, c) {
			t.Errorf("%s row %d col %d = %d, want %d", what, r, c, got, val(r, c))
			return false
		}
		return true
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for x := seed; ; x = x*6364136223846793005 + 1442695040888963407 {
				last := done.Load()
				n := tab.Rows()
				if n > 0 {
					r := int64(uint64(x)>>1) % n
					for _, row := range []int64{r, n - 1} {
						for c := 0; c < 2; c++ {
							if !check("reader", row, c, tab.ReadActive(row, c)) {
								return
							}
						}
					}
				}
				if last {
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			last := done.Load()
			lo, hi := rep.Rows(), tab.Rows()
			rep.CopyInserts(tab.Active(), lo, hi)
			for r := lo; r < hi; r += 997 {
				for c := 0; c < 2; c++ {
					if !check("replica", r, c, rep.Col(c).Load(r)) {
						return
					}
				}
			}
			if last {
				return
			}
		}
	}()
	for lo := int64(0); lo < total; lo += batch {
		hi := min(lo+batch, total)
		rows := make([][]int64, 0, hi-lo)
		for r := lo; r < hi; r++ {
			rows = append(rows, []int64{val(r, 0), val(r, 1)})
		}
		tab.AppendRows(rows, 1)
	}
	done.Store(true)
	wg.Wait()
	if rep.Rows() != total {
		t.Fatalf("replica holds %d rows, want %d", rep.Rows(), total)
	}
	for r := int64(0); r < total; r++ {
		for c := 0; c < 2; c++ {
			if !check("final replica", r, c, rep.Col(c).Load(r)) {
				return
			}
		}
	}
}

func TestQuickAppendReadBack(t *testing.T) {
	f := func(vals []int64) bool {
		tab := NewTable(Schema{Name: "q", Columns: []ColumnDef{{Name: "v", Type: Int64}}}, 4)
		rows := make([][]int64, len(vals))
		for i, v := range vals {
			rows[i] = []int64{v}
		}
		tab.AppendRows(rows, 1)
		for i, v := range vals {
			if tab.ReadActive(int64(i), 0) != v {
				return false
			}
		}
		return tab.Rows() == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSwitchRoundTrips(t *testing.T) {
	// Property: after any number of update/switch/sync rounds, the active
	// instance holds the newest value of every row.
	f := func(updates []uint8) bool {
		tab := NewTable(Schema{Name: "q", Columns: []ColumnDef{{Name: "v", Type: Int64}}}, 4)
		const n = 16
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{0}
		}
		tab.AppendRows(rows, 1)
		tab.Switch()
		tab.SyncTo(1-tab.ActiveIndex(), lockNothing)
		want := make([]int64, n)
		ts := uint64(2)
		for step, u := range updates {
			r := int64(u % n)
			v := int64(step + 1)
			tab.UpdateCell(r, 0, v, ts)
			ts++
			want[r] = v
			if step%3 == 2 {
				sw := tab.Switch()
				tab.SyncTo(sw.SnapshotIndex, lockNothing)
			}
		}
		for r := int64(0); r < n; r++ {
			if tab.ReadActive(r, 0) != want[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
