package main

import (
	"math"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload for a second at tiny sizes,
// untraced and traced, and checks that no operation failed and that
// every metric of the run's mode is present and finite; end-to-end
// metrics must also be positive.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(map[bool]string{false: name, true: name + "/traced"}[traced], func(t *testing.T) {
				cfg := defaultConfig()
				cfg.workload, cfg.seed, cfg.seconds, cfg.trace = name, 7, time.Second, traced
				cfg.chainN, cfg.churnK, cfg.setups, cfg.pairs = 4, 8, 2, 2
				tr := newTracer()
				r, err := workloads[name](cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				r.spans = tr
				if r.failed != 0 || r.ops() == 0 || len(r.lat) == 0 {
					t.Fatalf("%d of %d operations failed, %d untraced completed", r.failed, r.attempted, len(r.lat))
				}
				if len(r.setups) < cfg.setups && name != "chain-cold" && name != "chain-cold-lossy" {
					t.Errorf("%d set-ups timed, want %d", len(r.setups), cfg.setups)
				}
				if traced {
					if len(r.latTraced) == 0 {
						t.Error("trace run traced no operation")
					}
					got := perLayer(r)
					for _, m := range perLayerMetrics {
						v, ok := got[m.name]
						if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.unit {
							t.Errorf("per-layer %s = %+v (present %v)", m.name, v, ok)
						}
					}
					if got["nm.plan_ms"].Value <= 0 && name != "fabric-heal" {
						t.Errorf("nm.plan_ms not measured: %+v", got["nm.plan_ms"])
					}
					return
				}
				got := endToEndMetrics(r)
				if len(got) != len(endToEnd) {
					t.Errorf("%d end-to-end metrics, want %d", len(got), len(endToEnd))
				}
				for _, m := range endToEnd {
					v := got[m.name]
					if !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != m.unit {
						t.Errorf("end-to-end %s = %+v", m.name, v)
					}
				}
			})
		}
	}
}
