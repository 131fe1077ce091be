package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: elastichtap
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkQ6Handcoded  	       3	    409628 ns/op	7013.19 MB/s	    2426 B/op	      39 allocs/op
BenchmarkQ6Builder    	       3	   1009042 ns/op	2847.06 MB/s	  276045 B/op	      67 allocs/op
BenchmarkSyncClaim-8  	       5	   1536000 ns/op	        10.2 measured-sync-ms	        10.0 model-sync-ms
PASS
ok  	elastichtap	3.175s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "elastichtap" {
		t.Fatalf("envelope = %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks["BenchmarkQ6Builder"]
	if b == nil {
		t.Fatal("Q6Builder missing")
	}
	if b.N != 3 || b.NsPerOp != 1009042 || b.BytesPerOp != 276045 || b.AllocsPerOp != 67 || b.MBPerSec != 2847.06 {
		t.Fatalf("Q6Builder = %+v", b)
	}
	s := rep.Benchmarks["BenchmarkSyncClaim-8"]
	if s == nil || s.Metrics["measured-sync-ms"] != 10.2 || s.Metrics["model-sync-ms"] != 10.0 {
		t.Fatalf("custom metrics = %+v", s)
	}
}

// TestParsePackagePerBenchmark: a run over two packages attributes each
// benchmark to the pkg header preceding it, and the envelope names no
// single package.
func TestParsePackagePerBenchmark(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: elastichtap
BenchmarkQ3Builder    3   100 ns/op
PASS
ok  	elastichtap	1.0s
goos: linux
goarch: amd64
pkg: elastichtap/internal/wal
BenchmarkWALAppend    3   50 ns/op
PASS
ok  	elastichtap/internal/wal	1.0s
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pkg != "" {
		t.Fatalf("envelope pkg = %q, want empty for a two-package run", rep.Pkg)
	}
	if got := rep.Benchmarks["BenchmarkQ3Builder"].Pkg; got != "elastichtap" {
		t.Fatalf("Q3Builder pkg = %q, want elastichtap", got)
	}
	if got := rep.Benchmarks["BenchmarkWALAppend"].Pkg; got != "elastichtap/internal/wal" {
		t.Fatalf("WALAppend pkg = %q, want elastichtap/internal/wal", got)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(strings.NewReader("hello\nBenchmarkBad abc def\nok pkg 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage", len(rep.Benchmarks))
	}
}

func TestGapRatios(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	ratios := gapRatios(rep)
	want := 1009042.0 / 409628.0
	if got := ratios["Q6"]; got != want {
		t.Fatalf("Q6 ratio = %v, want %v", got, want)
	}
	if got := rep.Benchmarks["BenchmarkQ6Builder"].Metrics["builder_vs_handcoded"]; got != want {
		t.Fatalf("builder_vs_handcoded metric = %v, want %v", got, want)
	}
	if _, ok := ratios["SyncClaim"]; ok {
		t.Fatal("unpaired benchmark produced a ratio")
	}
}

func TestOrderRatios(t *testing.T) {
	const out = `BenchmarkQ5OrderGreedy    5   100 ns/op
BenchmarkQ5OrderWritten   5   125 ns/op
BenchmarkQ7OrderGreedy-8  5   210 ns/op
BenchmarkQ7OrderWritten-8 5   200 ns/op
BenchmarkQ2OrderGreedy    5   300 ns/op
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	ratios := orderRatios(rep)
	if got := ratios["Q5"]; got != 0.8 {
		t.Fatalf("Q5 order ratio = %v, want 0.8", got)
	}
	if got := ratios["Q7"]; got != 1.05 {
		t.Fatalf("Q7 order ratio = %v, want 1.05", got)
	}
	if _, ok := ratios["Q2"]; ok {
		t.Fatal("unpaired OrderGreedy produced a ratio")
	}
	if got := rep.Benchmarks["BenchmarkQ5OrderGreedy"].Metrics["greedy_vs_written"]; got != 0.8 {
		t.Fatalf("greedy_vs_written metric = %v, want 0.8", got)
	}
}

// TestGraphJoinQueriesGateSeparately: the graph-join queries carry their
// own gap budget, so they must be in gap_ratios (tracked) but flagged as
// graph queries for gating.
func TestGraphJoinQueriesGateSeparately(t *testing.T) {
	const out = `BenchmarkQ7Handcoded  5   100 ns/op
BenchmarkQ7Builder    5   160 ns/op
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	ratios := gapRatios(rep)
	if got := ratios["Q7"]; got != 1.6 {
		t.Fatalf("Q7 gap ratio = %v, want 1.6", got)
	}
	for _, q := range []string{"Q2", "Q5", "Q7"} {
		if !graphJoinQueries[q] {
			t.Fatalf("%s missing from graphJoinQueries", q)
		}
	}
	if graphJoinQueries["Q6"] {
		t.Fatal("Q6 is a single-probe kernel, not a graph query")
	}
}

// TestGapRatiosStripsCPUSuffix: twins pair up when -cpu appends a
// GOMAXPROCS suffix to the names.
func TestGapRatiosStripsCPUSuffix(t *testing.T) {
	const out = `BenchmarkQ1Handcoded-8   10   200 ns/op
BenchmarkQ1Builder-8     10   220 ns/op
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	ratios := gapRatios(rep)
	if got := ratios["Q1"]; got != 1.1 {
		t.Fatalf("Q1 ratio = %v, want 1.1", got)
	}
}
