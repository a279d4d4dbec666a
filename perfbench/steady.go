package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyMain runs one workload several times untraced, with seeds 1, 2, ...,
// and prints every end-to-end metric's median and quartiles with their
// spread (the distance between the quartiles as a share of the median),
// flagging each metric whose spread exceeds its bound in BENCHMARK.json.
// The quartiles are Python's statistics.quantiles(values, n=4), the form
// the bounds are checked in.
func steadyMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "workload to run")
		runs    = fs.Int("runs", 10, "number of runs")
		seconds = fs.Float64("seconds", 25, "length of each run's timed window")
		bench   = fs.String("bench", "BENCHMARK.json", "file holding the metrics' bounds")
		work    = fs.String("work", ".bench_build/work", "scratch directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 2 {
		fmt.Fprintln(stderr, "perfbench steady: --runs must be at least 2")
		return 2
	}
	bounds, err := readBounds(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < *runs; i++ {
		seed := i + 1
		cmd := exec.Command(self, "--workload", *wl, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0", "--work", *work)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench steady: run with seed %d: %v\n", seed, err)
			return 1
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench steady: run with seed %d: %v\n", seed, err)
			return 1
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		fmt.Fprintf(stdout, "seed %d: correct %v, failed %d of %d ops\n", seed, res.Correct, res.Failed, res.Attempted)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %d runs of %g s, failed/attempted %v\n", *wl, *runs, *seconds, shares)
	fmt.Fprintf(stdout, "%-32s %14s %14s %14s %8s %7s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "unit")
	flagged := 0
	for _, name := range names {
		vs := values[name]
		q1, q3 := pyQuartiles(vs)
		med := median(vs)
		spread := (q3 - q1) / med
		mark, bound := "", ""
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf("%.3f", b)
			if spread > b {
				mark = "  EXCEEDS BOUND"
				flagged++
			} else if spread > b/3 {
				mark = "  above a third of the bound"
			}
		}
		fmt.Fprintf(stdout, "%-32s %14.6g %14.6g %14.6g %8.4f %7s %s%s\n", name, med, q1, q3, spread, bound, units[name], mark)
	}
	if flagged > 0 {
		return 3
	}
	return 0
}

// readBounds returns the bound of every end-to-end metric.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// lastResult parses the result line a run prints last.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return &res, nil
}

// pyQuartiles is Python's statistics.quantiles(vs, n=4) with its default
// exclusive method: the first and third quartiles.
func pyQuartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
