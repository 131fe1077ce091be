// Command benchjson converts `go test -bench` text output into a stable
// JSON document mapping each benchmark to its measured metrics, for CI to
// record as the repository's performance trajectory (BENCH_ci.json):
//
//	go test -run '^$' -bench . -benchmem . | benchjson > BENCH_ci.json
//
// Standard units parse into fixed fields (ns/op, B/op, allocs/op, MB/s);
// any other unit — including testing.B.ReportMetric custom metrics — lands
// in the metrics map verbatim. Input defaults to stdin, output to stdout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line. Pkg is the package named by
// the nearest preceding `pkg:` header, so a run over several packages
// keeps each benchmark attributed to its own.
type Bench struct {
	Pkg         string             `json:"pkg,omitempty"`
	N           int64              `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document benchjson emits. GapRatios holds the
// builder-vs-handcoded abstraction cost per query (builder ns/op over
// handcoded ns/op) for every BenchmarkQ<n>Builder/BenchmarkQ<n>Handcoded
// pair found in the input. OrderRatios holds the greedy-vs-written join
// ordering cost (greedy ns/op over written ns/op) for every
// BenchmarkQ<n>OrderGreedy/BenchmarkQ<n>OrderWritten pair — below 1
// means the zero-statistics greedy order beat the written edge order.
//
// The envelope's Pkg is set only when every benchmark came from one
// package; a multi-package run leaves it empty and each Bench names its
// own.
type Report struct {
	Goos       string            `json:"goos,omitempty"`
	Goarch     string            `json:"goarch,omitempty"`
	Pkg        string            `json:"pkg,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]*Bench `json:"benchmarks"`
	// Recovery groups the durability-path benchmarks — WAL append and
	// replay, whole-database checkpointing, crash recovery — so the
	// trajectory of the recovery story reads as one unit.
	Recovery    map[string]*Bench  `json:"recovery,omitempty"`
	GapRatios   map[string]float64 `json:"gap_ratios,omitempty"`
	OrderRatios map[string]float64 `json:"order_ratios,omitempty"`
}

// recoveryBench reports whether a benchmark belongs to the durability
// metric group.
func recoveryBench(name string) bool {
	n := baseName(name)
	return n == "BenchmarkCheckpointDB" || n == "BenchmarkRecovery" ||
		strings.HasPrefix(n, "BenchmarkWAL")
}

// splitRecovery moves the durability benchmarks out of the flat map into
// the report's recovery group.
func splitRecovery(rep *Report) {
	for name, b := range rep.Benchmarks {
		if recoveryBench(name) {
			if rep.Recovery == nil {
				rep.Recovery = map[string]*Bench{}
			}
			rep.Recovery[name] = b
			delete(rep.Benchmarks, name)
		}
	}
}

// graphJoinQueries are the graph-join queries that still carry their own
// abstraction-cost budget (-maxgapgraph) instead of -maxgap. Q5 and Q7
// probe dense TPC-C keys through direct-address join tables and are held
// to -maxgap; Q2 probes three tiny dimensions per row, where a
// direct-address table saves nothing over the hand-coded maps.
var graphJoinQueries = map[string]bool{"Q2": true}

// parse reads `go test -bench` output. Benchmark lines look like
//
//	BenchmarkQ6Builder-8   3   1009042 ns/op   2847.06 MB/s   276045 B/op   67 allocs/op
//
// with an arbitrary tail of "<value> <unit>" pairs. Header lines (goos,
// goarch, cpu) fill the report envelope and a pkg header names the package
// of the benchmarks that follow it; everything else is ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: map[string]*Bench{}}
	var pkg string
	pkgs := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, hdr := range []struct {
			prefix string
			dst    *string
		}{
			{"goos: ", &rep.Goos},
			{"goarch: ", &rep.Goarch},
			{"pkg: ", &pkg},
			{"cpu: ", &rep.CPU},
		} {
			if strings.HasPrefix(line, hdr.prefix) {
				*hdr.dst = strings.TrimPrefix(line, hdr.prefix)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := &Bench{Pkg: pkg, N: n}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			case "MB/s":
				b.MBPerSec = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if ok {
			rep.Benchmarks[fields[0]] = b
			pkgs[pkg] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pkgs) == 1 {
		rep.Pkg = pkg
	}
	return rep, nil
}

// baseName strips a trailing -<GOMAXPROCS> suffix so Builder/Handcoded
// twins pair up whether or not the run set -cpu.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// gapRatios pairs each BenchmarkQ<x>Builder with its
// BenchmarkQ<x>Handcoded twin, records the ns/op ratio both in the
// report's gap_ratios map and as a builder_vs_handcoded metric on the
// builder's entry, and returns the map.
func gapRatios(rep *Report) map[string]float64 {
	hand := map[string]*Bench{}
	build := map[string]*Bench{}
	for name, b := range rep.Benchmarks {
		n := strings.TrimPrefix(baseName(name), "Benchmark")
		if q, ok := strings.CutSuffix(n, "Handcoded"); ok {
			hand[q] = b
		} else if q, ok := strings.CutSuffix(n, "Builder"); ok {
			build[q] = b
		}
	}
	ratios := map[string]float64{}
	for q, hb := range hand {
		bb := build[q]
		if bb == nil || hb.NsPerOp <= 0 {
			continue
		}
		r := bb.NsPerOp / hb.NsPerOp
		ratios[q] = r
		if bb.Metrics == nil {
			bb.Metrics = map[string]float64{}
		}
		bb.Metrics["builder_vs_handcoded"] = r
	}
	return ratios
}

// orderRatios pairs each BenchmarkQ<x>OrderGreedy with its
// BenchmarkQ<x>OrderWritten twin, records the ns/op ratio in the
// report's order_ratios map and as a greedy_vs_written metric on the
// greedy entry, and returns the map.
func orderRatios(rep *Report) map[string]float64 {
	written := map[string]*Bench{}
	greedy := map[string]*Bench{}
	for name, b := range rep.Benchmarks {
		n := strings.TrimPrefix(baseName(name), "Benchmark")
		if q, ok := strings.CutSuffix(n, "OrderWritten"); ok {
			written[q] = b
		} else if q, ok := strings.CutSuffix(n, "OrderGreedy"); ok {
			greedy[q] = b
		}
	}
	ratios := map[string]float64{}
	for q, wb := range written {
		gb := greedy[q]
		if gb == nil || wb.NsPerOp <= 0 {
			continue
		}
		r := gb.NsPerOp / wb.NsPerOp
		ratios[q] = r
		if gb.Metrics == nil {
			gb.Metrics = map[string]float64{}
		}
		gb.Metrics["greedy_vs_written"] = r
	}
	return ratios
}

func main() {
	var (
		in           = flag.String("in", "", "bench output file (default stdin)")
		out          = flag.String("out", "", "JSON destination (default stdout)")
		maxGap       = flag.Float64("maxgap", 0, "fail when any builder-vs-handcoded ns/op ratio exceeds this (0 disables; graph-join queries use -maxgapgraph)")
		maxGapGraph  = flag.Float64("maxgapgraph", 0, "builder-vs-handcoded gate for the graph-join query Q2 (0 disables)")
		maxOrderLoss = flag.Float64("maxorderloss", 0, "fail when any greedy-vs-written ns/op ratio exceeds this, or when greedy wins on none (0 disables)")
	)
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	rep.GapRatios = gapRatios(rep)
	rep.OrderRatios = orderRatios(rep)
	splitRecovery(rep)
	var dst io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if c, ok := dst.(io.Closer); ok {
		if err := c.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	// The gates run after the report is written: CI still records the
	// failing trajectory point it is rejecting.
	bad := false
	if *maxGap > 0 || *maxGapGraph > 0 {
		for q, r := range rep.GapRatios {
			gate := *maxGap
			if graphJoinQueries[q] {
				gate = *maxGapGraph
			}
			if gate > 0 && r > gate {
				fmt.Fprintf(os.Stderr, "benchjson: %s builder is %.2fx handcoded (gate %.2fx)\n", q, r, gate)
				bad = true
			}
		}
	}
	if *maxOrderLoss > 0 && len(rep.OrderRatios) > 0 {
		wins := 0
		for q, r := range rep.OrderRatios {
			if r > *maxOrderLoss {
				fmt.Fprintf(os.Stderr, "benchjson: %s greedy order is %.2fx written order (gate %.2fx)\n", q, r, *maxOrderLoss)
				bad = true
			}
			if r < 1 {
				wins++
			}
		}
		if wins == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: greedy ordering beat written order on no benched query")
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}
