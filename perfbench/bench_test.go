package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at test size, untraced and traced,
// with every reference check on, and checks that each run reports the ops
// it attempted, that none failed, and that the result line carries exactly
// the metrics BENCHMARK.json lists for its mode.
func TestWorkloadsTiny(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.4", "--trace", traced, "--tiny", "--work", t.TempDir()}
				if code := benchMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if len(res) != 4 {
					t.Errorf("result has keys %v, want correct, attempted, failed, metrics", keys(res))
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("correct %v, attempted %d, failed %d\nstderr:\n%s", r.Correct, r.Attempted, r.Failed, stderr.String())
				}
				want := bench.EndToEnd
				if traced == "1" {
					want = bench.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d: %v", len(r.Metrics), len(want), r.Metrics)
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestPyQuartiles pins the quartiles and median to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestPyQuartiles(t *testing.T) {
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := pyQuartiles(vs)
	if q1 != 2.75 || q3 != 8.25 || median(vs) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(vs))
	}
	if m := median(vs[:9]); m != 6 {
		t.Errorf("median of 10..2 is %v, want 6", m)
	}
}

// TestBreakdown checks the self-time arithmetic on a hand-built op: a
// 10 s root with a 4 s section two workers wide, inside which the workers
// spend 3 s and 2 s in one layer.
func TestBreakdown(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Width: 1, Start: 0, End: 10e9},
		{ID: 1, Parent: 0, Op: 1, Name: "run", Width: 1, Start: 2e9, End: 6e9},
		{ID: 2, Parent: 1, Op: 1, Name: "decode", Width: 2, Start: 2e9, End: 5e9},
		{ID: 3, Parent: 1, Op: 1, Name: "decode", Width: 2, Start: 3e9, End: 5e9},
	}
	bd := breakdown(spans)
	if len(bd) != 1 {
		t.Fatalf("%d ops, want 1", len(bd))
	}
	b := bd[0]
	want := map[string][2]float64{ // layer: {wall share, worker-seconds}
		"other":  {6, 6},
		"run":    {1.5, 1.5},
		"decode": {2.5, 5},
	}
	for l, w := range want {
		if b.Share[l] != w[0] || b.Self[l] != w[1] {
			t.Errorf("%s: share %v self %v, want %v %v", l, b.Share[l], b.Self[l], w[0], w[1])
		}
	}
	if b.Worst != 0 {
		t.Errorf("worst self share %v, want 0", b.Worst)
	}
}
