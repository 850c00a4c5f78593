package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, benches []Benchmark) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Report{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTrendPassesWithinBudget(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 500},
	})
	fresh := writeReport(t, dir, "new.json", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1200}, // +20% < 25%
		{Name: "BenchmarkB", NsPerOp: 400},  // improvement
		{Name: "BenchmarkC", NsPerOp: 9999}, // new benchmark: not gated
	})
	var out strings.Builder
	if err := run([]string{old, fresh}, &out); err != nil {
		t.Fatalf("within-budget comparison failed: %v\n%s", err, out.String())
	}
}

func TestTrendFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Benchmark{{Name: "BenchmarkA", NsPerOp: 1000}})
	fresh := writeReport(t, dir, "new.json", []Benchmark{{Name: "BenchmarkA", NsPerOp: 1300}})
	var out strings.Builder
	if err := run([]string{old, fresh}, &out); err == nil {
		t.Fatalf("+30%% regression passed the default 25%% budget:\n%s", out.String())
	}
	if err := run([]string{"-max-regress", "0.5", old, fresh}, &out); err != nil {
		t.Fatalf("+30%% regression failed a 50%% budget: %v", err)
	}
}

func TestTrendFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 100},
	})
	fresh := writeReport(t, dir, "new.json", []Benchmark{{Name: "BenchmarkA", NsPerOp: 1000}})
	var out strings.Builder
	if err := run([]string{old, fresh}, &out); err == nil {
		t.Fatal("dropped baseline benchmark passed the gate")
	}
	// Filtered out of scope, the missing benchmark is not gated.
	if err := run([]string{"-filter", "^BenchmarkA$", old, fresh}, &out); err != nil {
		t.Fatalf("filter did not exclude the dropped benchmark: %v", err)
	}
}

func TestTrendRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	ok := writeReport(t, dir, "ok.json", []Benchmark{{Name: "BenchmarkA", NsPerOp: 1}})
	var out strings.Builder
	if err := run([]string{ok}, &out); err == nil {
		t.Fatal("single argument accepted")
	}
	if err := run([]string{ok, filepath.Join(dir, "absent.json")}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := writeReport(t, dir, "empty.json", nil)
	if err := run([]string{empty, ok}, &out); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// TestTrendComparesFastestDuplicate: a report with several rows per
// name (go test -count N) is gated on its fastest row, so a slow last
// run within a within-budget minimum passes, and a report whose every
// run is over budget still fails.
func TestTrendComparesFastestDuplicate(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkA", NsPerOp: 900},
	})
	fresh := writeReport(t, dir, "new.json", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1400},
		{Name: "BenchmarkA", NsPerOp: 1000}, // min: 1000/900 = +11%
		{Name: "BenchmarkA", NsPerOp: 2000}, // last row: over budget
	})
	var out strings.Builder
	if err := run([]string{old, fresh}, &out); err != nil {
		t.Fatalf("min-of-N within budget failed: %v\n%s", err, out.String())
	}
	if strings.Count(out.String(), "BenchmarkA") != 1 {
		t.Errorf("duplicate names compared more than once:\n%s", out.String())
	}
	slow := writeReport(t, dir, "slow.json", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1200},
		{Name: "BenchmarkA", NsPerOp: 1300},
	})
	if err := run([]string{old, slow}, &out); err == nil {
		t.Fatalf("every run over budget (best 1200 vs 900) passed:\n%s", out.String())
	}
}
