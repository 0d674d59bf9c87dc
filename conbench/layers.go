package main

import (
	"fmt"

	"conman/internal/core"
	"conman/internal/nm"
)

// perLayerMetrics lists every metric printed with -trace 1, in
// BENCHMARK.json order. A workload that does not run a layer reports
// its metrics as 0: no UDP transport on store-churn and fabric-heal, no
// daemon outside fabric-heal, no IGP outside the chain workloads.
// Counts are per completed operation; times are the median per call.
var perLayerMetrics = []struct{ name, unit string }{
	{"nm.plan_ms", "ms"},
	{"nm.graph_ms", "ms"},
	{"nm.search_ms", "ms"},
	{"nm.search_expanded", "count"},
	{"nm.compile_ms", "ms"},
	{"nm.observe_ms", "ms"},
	{"nm.observed", "count/op"},
	{"nm.cache_hits", "count/op"},
	{"nm.cache_misses", "count/op"},
	{"nm.diffed_devices", "count/op"},
	{"nm.recompiled", "count/op"},
	{"nm.full_rebuilds", "count/op"},
	{"nm.execute_ms", "ms"},
	{"nm.cmd_batches", "count/op"},
	{"nm.acks", "count/op"},
	{"nm.relays", "count/op"},
	{"nm.call_retries", "count/op"},
	{"daemon.passes_per_repair", "count/op"},
	{"daemon.reconcile_ms", "ms"},
	{"daemon.errors", "count/op"},
	{"daemon.wait_ms", "ms"},
	{"channel.datagrams", "count/op"},
	{"channel.data_frames", "count/op"},
	{"channel.retransmits", "count/op"},
	{"channel.dup_frames", "count/op"},
	{"channel.ack_only", "count/op"},
	{"channel.abandoned_frames", "count/op"},
	{"channel.backlog_drops", "count/op"},
	{"channel.queue_high_water", "count"},
	{"channel.retransmit_ratio", "ratio"},
	{"channel.envelopes_per_datagram", "ratio"},
	{"channel.envelope_bytes", "bytes/op"},
	{"igp.settle_ms", "ms"},
	{"dataplane.verify_ms", "ms"},
	{"dataplane.verify_polls", "count/op"},
	{"go.allocs_per_op", "count/op"},
	{"go.alloc_bytes_per_op", "bytes/op"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"setup.build_ms", "ms"},
	{"setup.bulk_converge_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"store.submit_p50_ms", "ms"},
	{"store.submit_p90_ms", "ms"},
	{"store.withdraw_p50_ms", "ms"},
	{"store.withdraw_p90_ms", "ms"},
	{"ops.samples", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
}

// spanMetrics maps a per-layer timing metric to the span it is the
// median per-call wall time of.
var spanMetrics = map[string]string{
	"nm.plan_ms":          "nm.plan",
	"nm.graph_ms":         "nm.graph",
	"nm.search_ms":        "nm.search",
	"nm.compile_ms":       "nm.compile",
	"nm.observe_ms":       "nm.observe",
	"nm.execute_ms":       "nm.execute",
	"daemon.wait_ms":      "daemon.wait",
	"dataplane.verify_ms": "dataplane.verify",
}

// perLayer assembles the -trace 1 metrics: span timings from the
// tracer, Go runtime deltas over the timed phase, the workload's own
// counters, and the tracing overhead (traced minus untraced median
// operation latency, both from this run).
func perLayer(r *result) map[string]metric {
	lts := r.spans.selfTimes()
	ops := float64(r.ops())
	vals := map[string]float64{
		"go.allocs_per_op":      ratio(float64(r.mem.mallocs), ops),
		"go.alloc_bytes_per_op": ratio(float64(r.mem.bytes), ops),
		"go.gc_cycles":          float64(r.mem.gcs),
		"go.gc_pause_ms":        ms(r.mem.pause),
		"ops.samples":           ops,
		"op_p90_ms":             percentile(r.lat, 90),
		"trace.overhead_ms":     finite(percentile(r.latTraced, 50) - percentile(r.lat, 50)),
	}
	for name, spanName := range spanMetrics {
		if lt := lts[spanName]; lt != nil {
			vals[name] = percentile(lt.Durations, 50)
		}
	}
	if lt := lts["op"]; lt != nil {
		vals["trace.unattributed_ms"] = percentile(lt.SelfPerCall, 50)
	}
	for k, v := range r.layer {
		vals[k] = v
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{finite(vals[m.name]), m.unit}
	}
	return out
}

// traceSearch records the search layers a plan runs internally, as
// sibling spans before the plan call: a graph build when g is nil, then
// FindBest and Compile for every intent. Plan self time minus these
// spans is what observe and diff cost.
func traceSearch(tr *tracer, n *nm.NM, g *nm.Graph, intents []nm.Intent, expanded *[]float64) error {
	if g == nil {
		var err error
		if g, err = traceGraph(tr, n); err != nil {
			return err
		}
	}
	for _, in := range intents {
		spec := nm.FindSpec{
			From: in.Goal.From, To: in.Goal.To, TrafficDomain: in.Goal.TrafficDomain,
			FromPipe: in.Goal.FromPipe, ToPipe: in.Goal.ToPipe, Prefer: in.Prefer,
		}
		sp := tr.begin("nm.search")
		path, st, err := g.FindBest(spec)
		tr.end(sp)
		if err != nil {
			return err
		}
		if path == nil {
			return fmt.Errorf("no %q path for %s", in.Prefer, in.Name)
		}
		*expanded = append(*expanded, float64(st.Expanded))
		sp = tr.begin("nm.compile")
		_, err = n.Compile(path, in.Goal)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func traceGraph(tr *tracer, n *nm.NM) (*nm.Graph, error) {
	sp := tr.begin("nm.graph")
	defer tr.end(sp)
	return nm.BuildGraph(n)
}

// traceObserve times one showActual per device.
func traceObserve(tr *tracer, n *nm.NM, devs []core.DeviceID) error {
	for _, dev := range devs {
		sp := tr.begin("nm.observe")
		_, err := n.ShowActual(dev)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("showActual %s: %w", dev, err)
		}
	}
	return nil
}
