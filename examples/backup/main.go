// Backup: durability end to end. Every commit reaches a write-ahead log
// before it applies, and whole-database checkpoints stream from the
// quiescent inactive instances while transactions keep running — the
// twin-instance design descends from checkpointing schemes (Twin Blocks,
// §3.2), and this is the payoff: no stop-the-world pause. Recovery is
// the latest checkpoint plus the WAL suffix, and the restored system
// answers queries exactly as the original did.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"reflect"

	"elastichtap"
)

func main() {
	dir, err := os.MkdirTemp("", "elastichtap-backup")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fs := elastichtap.DiskFS()

	sys, err := elastichtap.New()
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	db := sys.LoadCH(0.01, 5)

	// From here on every commit is logged to dir/wal.log before it
	// applies; the bootstrap checkpoint persists the loaded data itself
	// (the log holds commits, not the initial load).
	if err := sys.EnableWAL(fs, dir, elastichtap.SyncAlways, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.CheckpointDB(fs, dir); err != nil {
		log.Fatal(err)
	}
	if err := sys.StartWorkload(20); err != nil {
		log.Fatal(err)
	}

	// Keep the transactional engine busy while the checkpoint streams.
	sys.Core().OLTPE.Workers().Start()
	seq, err := sys.CheckpointDB(fs, dir)
	if err != nil {
		log.Fatal(err)
	}
	sys.Core().OLTPE.Workers().Stop()
	fmt.Printf("checkpoint %d streamed with transactions running\n", seq)

	// More commits after the checkpoint: these survive only in the WAL.
	sys.Run(500)
	commits := sys.Core().OLTPE.Manager().Commits()
	ctx := context.Background()
	before, err := sys.QueryContext(ctx, elastichtap.Q6(db))
	if err != nil {
		log.Fatal(err)
	}

	// "Crash": drop all process state, keep only the directory.
	sys2, info, err := elastichtap.OpenFromDir(fs, dir)
	if err != nil {
		log.Fatal(err)
	}
	defer sys2.Close()
	fmt.Printf("recovered: checkpoint %d + %d WAL transactions = %d commits (original saw %d)\n",
		info.Seq, info.Replayed, info.Commits, commits)

	after, err := sys2.QueryContext(ctx, elastichtap.Q6(sys2.DB()))
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(before.Result.Rows, after.Result.Rows) {
		log.Fatalf("Q6 diverged after recovery:\n  before %v\n  after  %v",
			before.Result.Rows, after.Result.Rows)
	}
	fmt.Printf("Q6 before and after recovery agree: %v\n", after.Result.Rows)

	rate, fresh := sys2.Freshness()
	fmt.Printf("restored freshness: rate %.4f, %d fresh bytes outstanding\n", rate, fresh)
}
