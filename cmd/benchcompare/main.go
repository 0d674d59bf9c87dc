// Command benchcompare is the CI perf-regression gate: it diffs a fresh
// BENCH_scale.json (produced by `conman bench`) against the committed
// BENCH_baseline.json and exits non-zero when any row regressed past
// the threshold — by default more than 2x wall-clock, or more than 2x
// in the deterministic `expanded` count. Both files hold bench.Result
// records, and the rows are the ones defined once in the
// internal/bench registry.
//
// Wall-clock comparison is skipped for rows whose baseline is below
// -min-seconds (default 100ms): the long latency-dominated rows are
// stable across machines, but a ~10ms row can double on a loaded
// shared CI runner from scheduler jitter alone. The `expanded` metric
// has no floor — it is exact and machine-independent, so any >2x
// growth there is a real search regression. A baseline row with no
// matching fresh row also fails: a silently dropped benchmark is a
// coverage regression, not a pass.
//
// With -summary the same comparison renders as a GitHub-flavoured
// markdown delta table on stdout (for $GITHUB_STEP_SUMMARY) and always
// exits zero — the gate run stays the authority; the summary is a
// report.
//
// When rows change legitimately (a new scenario, a new n), refresh the
// baseline with:
//
//	go run ./cmd/conman bench -out BENCH_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"conman/internal/bench"
)

// verdict classifies one baseline/current row pair.
type verdict int

const (
	vOK      verdict = iota
	vFail            // regressed beyond the ratio gate
	vMissing         // baseline row absent from current results
	vNew             // current row with no baseline
)

// delta is the evaluated comparison of one row key.
type delta struct {
	key       string
	v         verdict
	base, cur bench.Result
	// floored marks rows whose wall clock was under the -min-seconds
	// floor (expanded-only comparison).
	floored bool
	reason  string // failure detail for vFail/vMissing
}

// evaluate applies the regression gates to every row, baseline-driven,
// preserving baseline order; current-only rows append at the end.
func evaluate(baseline, current []bench.Result, maxRatio, minSeconds float64) []delta {
	cur := make(map[string]bench.Result, len(current))
	for _, r := range current {
		cur[r.Key.String()] = r
	}
	seen := make(map[string]bool, len(baseline))
	var out []delta
	for _, base := range baseline {
		key := base.Key.String()
		seen[key] = true
		got, ok := cur[key]
		d := delta{key: key, base: base, cur: got, floored: base.Seconds < minSeconds}
		switch {
		case !ok:
			d.v = vMissing
			d.reason = "row missing from current results (coverage regression)"
		case base.Expanded > 0 && float64(got.Expanded) > maxRatio*float64(base.Expanded):
			d.v = vFail
			d.reason = fmt.Sprintf("expanded %d vs baseline %d (%.2fx > %.1fx)",
				got.Expanded, base.Expanded, float64(got.Expanded)/float64(base.Expanded), maxRatio)
		case base.Seconds >= minSeconds && got.Seconds > maxRatio*base.Seconds:
			d.v = vFail
			d.reason = fmt.Sprintf("%.4fs vs baseline %.4fs (%.2fx > %.1fx)",
				got.Seconds, base.Seconds, got.Seconds/base.Seconds, maxRatio)
		default:
			d.v = vOK
		}
		out = append(out, d)
	}
	for _, r := range current {
		if !seen[r.Key.String()] {
			out = append(out, delta{key: r.Key.String(), v: vNew, cur: r})
		}
	}
	return out
}

// renderText formats deltas as the gate's line-per-row report and
// returns the failure lines separately.
func renderText(deltas []delta) (report, failures []string) {
	for _, d := range deltas {
		switch d.v {
		case vMissing, vFail:
			f := fmt.Sprintf("FAIL %s: %s", d.key, d.reason)
			report, failures = append(report, f), append(failures, f)
		case vNew:
			report = append(report, fmt.Sprintf("new  %s: %.4fs, expanded %d (no baseline — refresh BENCH_baseline.json)",
				d.key, d.cur.Seconds, d.cur.Expanded))
		default:
			note := ""
			if d.floored {
				note = " [wall-clock below floor, expanded-only]"
			}
			report = append(report, fmt.Sprintf("ok   %s: %.4fs vs %.4fs, expanded %d vs %d%s",
				d.key, d.cur.Seconds, d.base.Seconds, d.cur.Expanded, d.base.Expanded, note))
		}
	}
	return report, failures
}

// renderSummary formats deltas as a GitHub-flavoured markdown table.
func renderSummary(deltas []delta, maxRatio float64) string {
	var b strings.Builder
	fails := 0
	for _, d := range deltas {
		if d.v == vFail || d.v == vMissing {
			fails++
		}
	}
	fmt.Fprintf(&b, "### Benchmark delta vs baseline (gate: %.1fx)\n\n", maxRatio)
	if fails > 0 {
		fmt.Fprintf(&b, "**%d row(s) regressed.**\n\n", fails)
	}
	b.WriteString("| Row | Status | Baseline | Current | Ratio | Expanded (base → cur) |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|\n")
	for _, d := range deltas {
		status, baseS, curS, ratio, exp := "✅ ok", "—", "—", "—", "—"
		switch d.v {
		case vMissing:
			status, baseS = "❌ missing", fmt.Sprintf("%.4fs", d.base.Seconds)
		case vNew:
			status, curS = "🆕 new", fmt.Sprintf("%.4fs", d.cur.Seconds)
			if d.cur.Expanded > 0 {
				exp = fmt.Sprintf("— → %d", d.cur.Expanded)
			}
		default:
			if d.v == vFail {
				status = "❌ fail"
			} else if d.floored {
				status = "✅ ok (floored)"
			}
			baseS = fmt.Sprintf("%.4fs", d.base.Seconds)
			curS = fmt.Sprintf("%.4fs", d.cur.Seconds)
			if d.base.Seconds > 0 {
				ratio = fmt.Sprintf("%.2fx", d.cur.Seconds/d.base.Seconds)
			}
			if d.base.Expanded > 0 || d.cur.Expanded > 0 {
				exp = fmt.Sprintf("%d → %d", d.base.Expanded, d.cur.Expanded)
			}
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", d.key, status, baseS, curS, ratio, exp)
	}
	return b.String()
}

func load(path string) ([]bench.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []bench.Result
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline results")
	currentPath := flag.String("current", "BENCH_scale.json", "fresh benchmark results")
	maxRatio := flag.Float64("max-ratio", 2.0, "failure threshold: current may not exceed baseline by more than this factor")
	minSeconds := flag.Float64("min-seconds", 0.1, "skip wall-clock comparison for baseline rows faster than this")
	summary := flag.Bool("summary", false, "emit a markdown delta table instead of the gate report and always exit zero")
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(2)
	}
	deltas := evaluate(baseline, current, *maxRatio, *minSeconds)
	if *summary {
		fmt.Print(renderSummary(deltas, *maxRatio))
		return
	}
	report, failures := renderText(deltas)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d row(s) regressed beyond %.1fx\n", len(failures), *maxRatio)
		os.Exit(1)
	}
	fmt.Printf("benchcompare: %d baseline row(s) within %.1fx\n", len(baseline), *maxRatio)
}
