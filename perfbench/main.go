// Command perfbench is the repository's end-to-end benchmark. Each run
// materialises one workload's traces with the program's own writers,
// brings the program up, drives it through its public API for a fixed
// time, checks every op's output against references computed apart from
// the path under test, and prints one JSON result line.
//
//	perfbench --workload run-tage --seed 1 --seconds 25 --trace 0
//	perfbench steady --workload sweep-decode --runs 10 --seconds 25
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run also records spans around every call into the program's layers
// and reports per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // test-sized traces, for the harness self-test
	work     string // directory for traces, job stores and span files
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&traced, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "test-sized traces")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traced != 0 && traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traced)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", cfg.seconds)
		return 2
	}
	cfg.trace = traced == 1
	res, err := run(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
