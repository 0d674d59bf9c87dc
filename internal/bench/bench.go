// Package bench is the scale benchmark's one row list. Every row of
// BENCH_scale.json — what it is called, how often it repeats, how it is
// measured and which in-bench gate it must pass — is defined once, in
// Rows. Two thin drivers walk the list: `conman bench` keeps the best
// of each row's repetitions and writes the JSON array that
// `cmd/benchcompare` gates against the committed BENCH_baseline.json,
// and the root package's BenchmarkRows runs each row as a Go
// sub-benchmark. Both enforce the same gates.
package bench

import (
	"fmt"
	"time"
)

// Latency is the management-channel delay the Hub-based rows emulate:
// the paper's separate management NIC. Sequential configuration pays
// it once per message in series; the concurrent NM overlaps it.
const Latency = 200 * time.Microsecond

// Workers maps a LinearApply mode to the NM's worker bound: one worker
// is the paper's sequential accounting mode.
func Workers(mode string) int {
	if mode == "sequential" {
		return 1
	}
	return 64
}

// Key names one row: the benchmark, the scenario it runs on, the size
// n and the mode.
type Key struct {
	Benchmark string `json:"benchmark"`
	Scenario  string `json:"scenario"`
	N         int    `json:"n"`
	Mode      string `json:"mode"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/n=%d/%s", k.Benchmark, k.Scenario, k.N, k.Mode)
}

// Result is one JSON record of the scale benchmark.
type Result struct {
	Key
	Seconds  float64 `json:"seconds"`
	Sent     int     `json:"sent,omitempty"`
	Received int     `json:"received,omitempty"`
	// Expanded is the row's exact work count: search states explored
	// (FindPath), observes+recompiles (StoreReconcile), LSA relays
	// (IGPFlood) or data frames (Transport/lsa-burst).
	Expanded int `json:"expanded,omitempty"`
}

// String is the row's one-line progress report.
func (r Result) String() string {
	return fmt.Sprintf("%s: %v (%d sent, %d received, %d expanded)",
		r.Key, time.Duration(r.Seconds*float64(time.Second)), r.Sent, r.Received, r.Expanded)
}

// Row is one benchmark row of the registry.
type Row struct {
	Key
	// Reps is how many times `conman bench` measures the row, keeping
	// the fastest (0 means once).
	Reps int
	// Measure runs the row once on a fresh testbed, parameterised by
	// the row's key, and returns its seconds and counts; Run fills in
	// the result's Key.
	Measure func(Key) (Result, error)
	// Gate, when set, checks the row's result against the result of the
	// earlier row Base.
	Base Key
	Gate func(r, base Result) error
}

// Run measures the row once and returns the result under the row's key.
func (row Row) Run() (Result, error) {
	r, err := row.Measure(row.Key)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", row.Key, err)
	}
	r.Key = row.Key
	return r, nil
}

// Best measures the row Reps times and returns the fastest result.
func (row Row) Best() (Result, error) {
	var best Result
	for rep := 0; rep < max(row.Reps, 1); rep++ {
		r, err := row.Run()
		if err != nil {
			return Result{}, err
		}
		if rep == 0 || r.Seconds < best.Seconds {
			best = r
		}
	}
	return best, nil
}

// Check applies the row's gate to r, given the results of the rows
// measured before it. A row whose base did not run (a filtered
// `go test -bench`) passes unchecked.
func (row Row) Check(r Result, done []Result) error {
	for _, base := range done {
		if row.Gate != nil && base.Key == row.Base {
			return row.Gate(r, base)
		}
	}
	return nil
}
