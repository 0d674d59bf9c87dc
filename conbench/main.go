// Command conbench is the repository's benchmark: four closed-loop
// workloads, each with one client goroutine and one operation in
// flight, driven through the public API of the experiments, nm, channel
// and topo packages. It prints the end-to-end metrics of one workload
// (or, with -trace 1, the per-layer metrics) and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload store-churn --seed 1 --seconds 10 --trace 0
//
// README.md in this directory explains the workloads, the metrics and
// which layer each per-layer metric attributes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run's parameters: the command line plus the workload
// sizes, which the smoke tests shrink.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	chainN int // routers in the chain workloads
	churnK int // resident intents in store-churn
	setups int // set-ups timed per run for setup_s (see README.md)
	pairs  int // cross-core intent pairs for fabric-heal
}

func defaultConfig() config {
	return config{chainN: 128, churnK: 10000, setups: 3, pairs: 4}
}

// result is what a workload measured. Latencies are in milliseconds;
// lat holds untraced operations and latTraced the traced ones (trace
// runs alternate the two so both see the same conditions).
type result struct {
	attempted, failed int
	setups            []float64 // seconds per set-up
	lat, latTraced    []float64
	elapsed           time.Duration // timed phase wall clock
	cpu               usage         // CPU over the timed phase
	mem               memSample     // Go runtime deltas over the timed phase
	layer             map[string]float64
	human             []string // workload-specific lines printed before the result
	spans             *tracer

	// Work done inside the timed loop that is not part of an operation
	// (per-operation builds and teardown), subtracted from the timed
	// phase's wall clock, CPU and allocations.
	exclWall time.Duration
	exclCPU  usage
	exclMem  memSample
}

// excluded runs fn and keeps its cost out of the timed phase.
func (r *result) excluded(fn func() error) (time.Duration, error) {
	m0, c0, t0 := readMem(), readUsage(), time.Now()
	err := fn()
	d := time.Since(t0)
	r.exclWall += d
	r.exclCPU = r.exclCPU.add(readUsage().sub(c0))
	r.exclMem = r.exclMem.add(readMem().sub(m0))
	return d, err
}

// setup runs one timed set-up inside the timed loop: excluded from the
// operation metrics and recorded for setup_s.
func (r *result) setup(fn func() error) error {
	d, err := r.excluded(fn)
	if err == nil {
		r.setups = append(r.setups, d.Seconds())
	}
	return err
}

// record files one completed operation's latency.
func (r *result) record(traced bool, latMS float64) {
	if traced {
		r.latTraced = append(r.latTraced, latMS)
	} else {
		r.lat = append(r.lat, latMS)
	}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "conbench: operation %d failed: %s\n", r.attempted, fmt.Sprintf(format, args...))
}

func (r *result) ops() int { return len(r.lat) + len(r.latTraced) }

var workloads = map[string]func(config, *tracer) (*result, error){
	"chain-cold":       func(c config, t *tracer) (*result, error) { return runChain(c, t, false) },
	"chain-cold-lossy": func(c config, t *tracer) (*result, error) { return runChain(c, t, true) },
	"store-churn":      runChurn,
	"fabric-heal":      runHeal,
}

// endToEnd lists the metrics printed with -trace 0, in BENCHMARK.json
// order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_s_per_op", "s"},
	{"peak_rss_mb", "MiB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "conbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("conbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "chain-cold | chain-cold-lossy | store-churn | fabric-heal")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (default seed 1; held-out seed 9001)")
	secs := fs.Int("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "with -trace 1, write every span as JSON to spans-<workload>-seed<seed>.json in this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	cfg.seconds = time.Duration(*secs) * time.Second
	cfg.trace = *traceFlag == 1

	tr := newTracer()
	res, err := wl(cfg, tr)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.spans = tr
	if res.ops() == 0 {
		return fmt.Errorf("%s: no operation completed in %v", cfg.workload, cfg.seconds)
	}
	sum := summary{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	if cfg.trace {
		sum.Metrics = perLayer(res)
		if *spansDir != "" {
			name := fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)
			if err := tr.write(filepath.Join(*spansDir, name)); err != nil {
				return err
			}
		}
	} else {
		sum.Metrics = endToEndMetrics(res)
	}
	printHuman(cfg, res, sum)
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndMetrics assembles the -trace 0 metrics. Latencies and
// throughput come from untraced operations only.
func endToEndMetrics(r *result) map[string]metric {
	ops := float64(len(r.lat))
	vals := map[string]float64{
		"setup_s":      percentile(r.setups, 50),
		"op_p50_ms":    percentile(r.lat, 50),
		"ops_per_s":    ops / r.elapsed.Seconds(),
		"cpu_s_per_op": r.cpu.cpu().Seconds() / ops,
		"peak_rss_mb":  peakRSSMB(),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

func printHuman(cfg config, r *result, sum summary) {
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed (error_rate %.4f), %d measured in %.2fs\n",
		cfg.workload, cfg.seed, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)),
		r.ops(), r.elapsed.Seconds())
	fmt.Printf("set-up: %d timed, median %.3fs\n", len(r.setups), percentile(r.setups, 50))
	for _, p := range []float64{50, 90} {
		note := ""
		if !supports(len(r.lat), p) {
			note = fmt.Sprintf(" (fewer than %d samples beyond p%.0f)", minBeyond, p)
		}
		fmt.Printf("operation latency p%.0f: %.3f ms over %d untraced samples%s\n", p, percentile(r.lat, p), len(r.lat), note)
	}
	fmt.Printf("timed phase: %.3fs user + %.3fs system CPU; Go runtime: %d GC cycles, %.1f ms paused, %.0f allocs and %.0f bytes per operation\n",
		r.cpu.user.Seconds(), r.cpu.sys.Seconds(),
		r.mem.gcs, ms(r.mem.pause), ratio(float64(r.mem.mallocs), float64(r.ops())), ratio(float64(r.mem.bytes), float64(r.ops())))
	for _, l := range r.human {
		fmt.Println(l)
	}
	if cfg.trace {
		printSelfTimes(os.Stdout, r.spans.selfTimes(), len(r.latTraced))
		fmt.Printf("tracing overhead: traced p50 %.3f ms over %d samples vs untraced p50 %.3f ms over %d samples\n",
			percentile(r.latTraced, 50), len(r.latTraced), percentile(r.lat, 50), len(r.lat))
	}
	names := make([]string, 0, len(sum.Metrics))
	for n := range sum.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := sum.Metrics[n]
		fmt.Printf("  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// timeBox runs op for d, one operation in flight, and adds the
// segment's wall clock, CPU and Go runtime deltas to r. With trace set
// it alternates runs of period untraced and period traced operations,
// starting untraced.
func timeBox(r *result, d time.Duration, trace bool, period int, op func(traced bool)) {
	runtime.GC()
	w0, x0, e0 := r.exclWall, r.exclCPU, r.exclMem
	m0, c0, t0 := readMem(), readUsage(), time.Now()
	for i := 0; time.Since(t0) < d; i++ {
		r.attempted++
		op(trace && (i/period)%2 == 1)
	}
	r.elapsed += time.Since(t0) - (r.exclWall - w0)
	r.cpu = r.cpu.add(readUsage().sub(c0).sub(r.exclCPU.sub(x0)))
	r.mem = r.mem.add(readMem().sub(m0).sub(r.exclMem.sub(e0)))
}

// sinceMS is the elapsed time since t in milliseconds.
func sinceMS(t time.Time) float64 { return ms(time.Since(t)) }

// finite replaces a NaN (an empty sample) by 0 so the JSON stays valid.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
