package elastichtap

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"elastichtap/internal/wal"
)

// durableSystem builds a system over a fault-injectable filesystem with
// the WAL attached and a bootstrap checkpoint of the freshly loaded
// database, mirroring the documented durability flow.
func durableSystem(t *testing.T, fs *wal.MemFS, policy SyncPolicy) (*System, *DB) {
	t.Helper()
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	db := sys.LoadCH(0.005, 7)
	if err := sys.EnableWAL(fs, "data", policy, 0); err != nil {
		t.Fatal(err)
	}
	if seq, err := sys.CheckpointDB(fs, "data"); err != nil || seq != 1 {
		t.Fatalf("bootstrap checkpoint: seq=%d err=%v", seq, err)
	}
	if err := sys.StartWorkload(30); err != nil {
		t.Fatal(err)
	}
	return sys, db
}

func TestDurabilityRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	sys, db := durableSystem(t, fs, SyncAlways)

	sys.Run(200)
	if seq, err := sys.CheckpointDB(fs, "data"); err != nil || seq != 2 {
		t.Fatalf("second checkpoint: seq=%d err=%v", seq, err)
	}
	sys.Run(150)

	wantCommits := sys.inner.OLTPE.Manager().Commits()
	wantQ6, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	wantQ18, err := sys.QueryContext(context.Background(), Q18(db))
	if err != nil {
		t.Fatal(err)
	}

	// Queries are read-only, so the durable image still reflects every
	// commit (SyncAlways): recovery must reproduce the same answers.
	img := fs.Crash(false)
	sys2, info, err := OpenFromDir(img, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if info.Seq != 2 {
		t.Fatalf("restored from seq %d, want 2", info.Seq)
	}
	if info.Replayed == 0 || info.Truncated {
		t.Fatalf("replay info = %+v, want clean tail with replayed txns", info)
	}
	if info.Commits != wantCommits {
		t.Fatalf("recovered %d commits, live saw %d", info.Commits, wantCommits)
	}
	db2 := sys2.DB()
	gotQ6, err := sys2.QueryContext(context.Background(), Q6(db2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQ6.Result.Rows, wantQ6.Result.Rows) {
		t.Fatalf("Q6 diverged: recovered %v, live %v", gotQ6.Result.Rows, wantQ6.Result.Rows)
	}
	gotQ18, err := sys2.QueryContext(context.Background(), Q18(db2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQ18.Result.Rows, wantQ18.Result.Rows) {
		t.Fatalf("Q18 diverged: recovered %v, live %v", gotQ18.Result.Rows, wantQ18.Result.Rows)
	}

	// The recovered system resumes: WAL back on, workload continues.
	if err := sys2.EnableWAL(img, "data", SyncAlways, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys2.StartWorkload(30); err != nil {
		t.Fatal(err)
	}
	sys2.Run(50)
	if got := sys2.inner.OLTPE.Manager().Commits(); got <= wantCommits {
		t.Fatalf("commits stuck at %d after resuming workload", got)
	}
}

// TestRecoveryDeterministic: recovery is read-only, so opening the same
// crashed image repeatedly yields identical state.
func TestRecoveryDeterministic(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncAlways)
	sys.Run(120)
	img := fs.Crash(false)

	var commits []uint64
	var rows [][][]float64
	for i := 0; i < 2; i++ {
		s2, info, err := OpenFromDir(img, "data")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s2.QueryContext(context.Background(), Q6(s2.DB()))
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, info.Commits)
		rows = append(rows, rep.Result.Rows)
		s2.Close()
	}
	if commits[0] != commits[1] || !reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatalf("recovery not deterministic: commits %v", commits)
	}
}

// TestRecoveryTruncatesCorruptTail: garbage past the last valid record is
// discarded by recovery, and EnableWAL physically truncates it so the
// resumed log stays parseable.
func TestRecoveryTruncatesCorruptTail(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncAlways)
	sys.Run(80)
	wantCommits := sys.inner.OLTPE.Manager().Commits()

	f, err := fs.Append("data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x13, 0x37}) // torn frame header
	f.Sync()
	f.Close()

	img := fs.Crash(false)
	sys2, info, err := OpenFromDir(img, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if !info.Truncated {
		t.Fatal("corrupt tail not reported")
	}
	if info.Commits != wantCommits {
		t.Fatalf("recovered %d commits, want %d", info.Commits, wantCommits)
	}
	if err := sys2.EnableWAL(img, "data", SyncAlways, 0); err != nil {
		t.Fatal(err)
	}
	if got := sys2.WAL().Pos(); got != info.ValidPos {
		t.Fatalf("resumed log at %d, want the valid watermark %d", got, info.ValidPos)
	}
}

// TestSyncNeverLosesOnlyUnsyncedTail: under SyncNever a crash that drops
// unsynced bytes falls back to the durable prefix — never a corrupt state.
func TestSyncNeverLosesOnlyUnsyncedTail(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncNever)
	sys.Run(100)

	// Lose everything unsynced: only the checkpoint (whose files are
	// explicitly synced) survives.
	img := fs.Crash(false)
	sys2, info, err := OpenFromDir(img, "data")
	if err != nil {
		t.Fatal(err)
	}
	sys2.Close()
	if info.Seq != 1 || info.Replayed != 0 {
		t.Fatalf("expected bare bootstrap restore, got %+v", info)
	}

	// Keep the page cache: the full log replays.
	img2 := fs.Crash(true)
	sys3, info2, err := OpenFromDir(img2, "data")
	if err != nil {
		t.Fatal(err)
	}
	sys3.Close()
	if info2.Replayed == 0 {
		t.Fatalf("kept-cache image replayed nothing: %+v", info2)
	}
	if got := sys.inner.OLTPE.Manager().Commits(); info2.Commits != got {
		t.Fatalf("kept-cache recovery found %d commits, live saw %d", info2.Commits, got)
	}
}

func TestCheckpointRejectsEmptyTable(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.LoadCH(0.005, 1)
	var sink strings.Builder
	if _, err := sys.Checkpoint(&sink, "neworder"); err == nil ||
		!strings.Contains(err.Error(), "no rows") {
		t.Fatalf("zero-row checkpoint accepted (err=%v)", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("zero-row checkpoint wrote %d bytes", sink.Len())
	}
}
