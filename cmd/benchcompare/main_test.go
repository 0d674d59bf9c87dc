package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conman/internal/bench"
)

func baselineRows() []bench.Result {
	return []bench.Result{
		{Key: bench.Key{Benchmark: "LinearApply", Scenario: "GRE", N: 64, Mode: "sequential"}, Seconds: 0.450},
		{Key: bench.Key{Benchmark: "LinearApply", Scenario: "GRE+IGP", N: 64, Mode: "concurrent"}, Seconds: 0.500},
		{Key: bench.Key{Benchmark: "FindPath", Scenario: "VLAN", N: 128, Mode: "best-first"}, Seconds: 0.007, Expanded: 1272},
		{Key: bench.Key{Benchmark: "FindPath", Scenario: "VLAN", N: 16, Mode: "best-first"}, Seconds: 0.0005, Expanded: 152},
	}
}

// TestComparePassesOnIdenticalRun: the real-run shape — identical
// results never fail the gate.
func TestComparePassesOnIdenticalRun(t *testing.T) {
	base := baselineRows()
	report, failures := renderText(evaluate(base, base, 2.0, 0.005))
	if len(failures) != 0 {
		t.Fatalf("identical run failed the gate:\n%s", strings.Join(failures, "\n"))
	}
	if len(report) != len(base) {
		t.Fatalf("report has %d lines, want %d", len(report), len(base))
	}
}

// TestCompareFailsOnInjectedWallClockRegression pins the acceptance
// criterion: a >2x wall-clock regression in a Configure (LinearApply)
// row fails the gate.
func TestCompareFailsOnInjectedWallClockRegression(t *testing.T) {
	base := baselineRows()
	cur := append([]bench.Result(nil), base...)
	cur[0].Seconds = base[0].Seconds * 2.5 // injected 2.5x regression
	_, failures := renderText(evaluate(base, cur, 2.0, 0.005))
	if len(failures) != 1 || !strings.Contains(failures[0], "LinearApply/GRE/n=64/sequential") {
		t.Fatalf("injected wall-clock regression not caught: %v", failures)
	}
}

// TestCompareFailsOnInjectedExpandedRegression: a >2x growth in the
// deterministic expanded metric of a FindPath row fails the gate even
// when wall-clock looks fine.
func TestCompareFailsOnInjectedExpandedRegression(t *testing.T) {
	base := baselineRows()
	cur := append([]bench.Result(nil), base...)
	cur[2].Expanded = base[2].Expanded * 3 // search regressed
	cur[2].Seconds = base[2].Seconds       // but wall-clock hid it
	_, failures := renderText(evaluate(base, cur, 2.0, 0.005))
	if len(failures) != 1 || !strings.Contains(failures[0], "expanded") {
		t.Fatalf("injected expanded regression not caught: %v", failures)
	}
}

// TestCompareWallClockFloor: micro-rows under the floor never fail on
// seconds (scheduler noise), but their expanded metric still gates.
func TestCompareWallClockFloor(t *testing.T) {
	base := baselineRows()
	cur := append([]bench.Result(nil), base...)
	cur[3].Seconds = base[3].Seconds * 10 // noisy micro-row: ignored
	_, failures := renderText(evaluate(base, cur, 2.0, 0.005))
	if len(failures) != 0 {
		t.Fatalf("sub-floor wall-clock noise failed the gate: %v", failures)
	}
	cur[3].Expanded = base[3].Expanded * 4 // real search regression: caught
	_, failures = renderText(evaluate(base, cur, 2.0, 0.005))
	if len(failures) != 1 {
		t.Fatalf("sub-floor expanded regression not caught: %v", failures)
	}
}

// TestCompareFailsOnMissingRow: dropping a benchmark row is a coverage
// regression, not a pass.
func TestCompareFailsOnMissingRow(t *testing.T) {
	base := baselineRows()
	cur := base[:len(base)-1]
	_, failures := renderText(evaluate(base, cur, 2.0, 0.005))
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("missing row not caught: %v", failures)
	}
}

// TestCompareReportsNewRows: rows without a baseline are informational,
// with a hint to refresh the baseline.
func TestCompareReportsNewRows(t *testing.T) {
	base := baselineRows()
	cur := append(append([]bench.Result(nil), base...),
		bench.Result{Key: bench.Key{Benchmark: "LinearApply", Scenario: "GRE+IGP", N: 128, Mode: "concurrent"}, Seconds: 1.0})
	report, failures := renderText(evaluate(base, cur, 2.0, 0.005))
	if len(failures) != 0 {
		t.Fatalf("new row failed the gate: %v", failures)
	}
	found := false
	for _, line := range report {
		if strings.HasPrefix(line, "new  ") && strings.Contains(line, "n=128") {
			found = true
		}
	}
	if !found {
		t.Fatalf("new row not reported:\n%s", strings.Join(report, "\n"))
	}
}

// TestRenderSummaryMarkdown: the -summary mode renders every delta as a
// markdown table row and flags regressions without hiding them.
func TestRenderSummaryMarkdown(t *testing.T) {
	base := baselineRows()
	cur := append([]bench.Result(nil), base[:len(base)-1]...) // drop one row
	cur[0].Seconds = base[0].Seconds * 3                      // regress another
	cur = append(cur, bench.Result{Key: bench.Key{Benchmark: "Transport", Scenario: "lsa-burst", N: 512, Mode: "batched"}, Seconds: 0.06, Expanded: 8})
	out := renderSummary(evaluate(base, cur, 2.0, 0.005), 2.0)
	for _, want := range []string{
		"### Benchmark delta vs baseline",
		"**2 row(s) regressed.**",
		"| Row | Status |",
		"`LinearApply/GRE/n=64/sequential` | ❌ fail",
		"❌ missing",
		"`Transport/lsa-burst/n=512/batched` | 🆕 new",
		"3.00x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n|")-2 != len(base)+1 { // header+separator excluded; one new row added
		t.Errorf("summary row count off:\n%s", out)
	}
}

// TestLoadRoundTrip exercises the file loading against the JSON shape
// `conman bench` writes.
func TestLoadRoundTrip(t *testing.T) {
	rows := baselineRows()
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) || got[2].Expanded != rows[2].Expanded {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing file did not error")
	}
}
