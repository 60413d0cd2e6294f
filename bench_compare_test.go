// Benchmark regression gate: `make bench-compare` (or BENCH_COMPARE=1
// go test -run TestBenchCompare) reruns the BENCH_lb.json suite through
// measureSuite (each row the minimum of several testing.Benchmark runs,
// as the committed file records) and fails if any row's ns/op or B/op regressed
// more than the tolerance (default 20%, override with BENCH_TOLERANCE=0.30)
// against the committed file. Rows present in only one of the two sets
// are reported but do not fail the gate — adding a benchmark must not
// require regenerating the trajectory in the same commit.
package temperedlb_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"
)

// TestBenchCompare diffs fresh measurements against BENCH_lb.json.
// Skipped unless BENCH_COMPARE is set: it reruns the full benchmark
// suite and must not slow down the tier-1 tests.
func TestBenchCompare(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to diff against BENCH_lb.json")
	}
	tolerance := 0.20
	if s := os.Getenv("BENCH_TOLERANCE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad BENCH_TOLERANCE %q", s)
		}
		tolerance = v
	}

	raw, err := os.ReadFile("BENCH_lb.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed benchFile
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	baseline := map[string]benchRecord{}
	for _, r := range committed.Benchmarks {
		baseline[r.Name] = r
	}

	check := func(name, unit string, got, want int64) {
		limit := float64(want) * (1 + tolerance)
		delta := 0.0
		if got != want {
			delta = 100 * (float64(got)/float64(want) - 1)
		}
		line := fmt.Sprintf("%-34s %-8s %12d committed %12d measured (%+.1f%%)",
			name, unit, want, got, delta)
		if float64(got) > limit {
			t.Errorf("REGRESSION %s exceeds +%.0f%% tolerance", line, tolerance*100)
		} else {
			t.Log(line)
		}
	}

	seen := map[string]bool{}
	for _, got := range measureSuite() {
		want, ok := baseline[got.Name]
		if !ok {
			t.Logf("%-34s not in BENCH_lb.json; run `make bench-json` to record it", got.Name)
			continue
		}
		seen[got.Name] = true
		check(got.Name, "ns/op", got.NsPerOp, want.NsPerOp)
		check(got.Name, "B/op", got.BytesPerOp, want.BytesPerOp)
	}
	for name := range baseline {
		if !seen[name] {
			t.Logf("%-34s in BENCH_lb.json but not in the suite; stale row?", name)
		}
	}
}
