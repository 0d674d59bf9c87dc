package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"conman/internal/experiments"
	"conman/internal/nm"
)

// store-churn: k resident LiteIntents on the diamond-lite topology over
// the in-process Hub at churnLatency per message. Operations alternate
// between submitting a new intent and withdrawing a seeded resident
// one, each followed by a reconcile: the incremental one-dirty store
// path, with writes beside deletes, and no IGP or UDP.
const (
	churnLatency = 200 * time.Microsecond
	// churnSpare is the number of customer ports beyond k. Withdrawn
	// intents return their port to the free pool, so the resident count
	// stays at k or k+1 however long the run is.
	churnSpare = 64
)

// churnRig is one converged diamond-lite store.
type churnRig struct {
	tb       *experiments.Testbed
	resident []int // customers with a registered intent
	free     []int // customers whose port is unused
}

// buildChurn builds the topology and converges the k-intent store,
// returning the build and bulk-converge times separately.
func buildChurn(k int) (*churnRig, time.Duration, time.Duration, error) {
	t0 := time.Now()
	tb, err := experiments.BuildDiamondLite(k + churnSpare)
	if err != nil {
		return nil, 0, 0, err
	}
	build := time.Since(t0)
	rig := &churnRig{tb: tb}
	for j := 1; j <= k; j++ {
		if err := tb.NM.Submit(experiments.LiteIntent(j)); err != nil {
			return nil, 0, 0, err
		}
		rig.resident = append(rig.resident, j)
	}
	for j := k + 1; j <= k+churnSpare; j++ {
		rig.free = append(rig.free, j)
	}
	// The first pass converges the store; the second settles the VLAN
	// pipe-bind fallback, so measurement starts from a quiet store.
	for pass := 1; pass <= 2; pass++ {
		if _, err := tb.NM.Reconcile(); err != nil {
			return nil, 0, 0, fmt.Errorf("bulk converge pass %d: %w", pass, err)
		}
	}
	converge := time.Since(t0) - build
	if err := checkStore(tb.NM, k); err != nil {
		return nil, 0, 0, fmt.Errorf("after bulk converge: %w", err)
	}
	return rig, build, converge, nil
}

// checkStore verifies a converged store: PlanStore is empty and the
// store holds exactly the expected number of intents.
func checkStore(n *nm.NM, want int) error {
	plan, err := n.PlanStore()
	if err != nil {
		return err
	}
	if !plan.Empty() {
		return fmt.Errorf("store plan not empty:\n%s", plan.Render())
	}
	if got := len(n.Registered()); got != want {
		return fmt.Errorf("%d intents registered, want %d", got, want)
	}
	return nil
}

// runChurn sets the store up cfg.setups times and splits the measured
// time evenly across the set-ups, so one run averages over several
// freshly built stores (and their heap layouts), not just one.
func runChurn(cfg config, tr *tracer) (*result, error) {
	r := &result{}
	rng := rand.New(rand.NewSource(cfg.seed))
	var builds, converges, submits, withdraws, expanded []float64
	var sum nm.StoreStats
	fullRebuilds := 0
	for i := 0; i < cfg.setups; i++ {
		runtime.GC() // the previous store is garbage by now
		var rig *churnRig
		var build, converge time.Duration
		err := r.setup(func() error {
			var err error
			rig, build, converge, err = buildChurn(cfg.churnK)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		builds = append(builds, ms(build))
		converges = append(converges, ms(converge))
		n := rig.tb.NM
		rig.tb.Hub.SetLatency(churnLatency)

		// The churn never changes the topology, so a trace run builds
		// the graph once per store for every traced search, and observes
		// each device once: per operation the store serves observations
		// from its cache.
		var g *nm.Graph
		if cfg.trace {
			root := tr.startRoot(true, "trace.prep")
			if g, err = traceGraph(tr, n); err == nil {
				err = traceObserve(tr, n, n.Devices())
			}
			tr.endOp(root)
			if err != nil {
				return nil, err
			}
		}

		// Operations come in submit/withdraw pairs; trace runs alternate
		// traced and untraced pairs so both kinds are traced.
		timeBox(r, cfg.seconds/time.Duration(cfg.setups), cfg.trace, 2, func(traced bool) {
			submit := r.attempted%2 == 1
			lat, st, err := churnOp(tr, rig, g, rng, submit, traced, &expanded)
			if err != nil {
				r.fail("%v", err)
				return
			}
			r.record(traced, lat)
			if !traced {
				if submit {
					submits = append(submits, lat)
				} else {
					withdraws = append(withdraws, lat)
				}
			}
			sum.Observed += st.Observed
			sum.CacheHits += st.CacheHits
			sum.CacheMisses += st.CacheMisses
			sum.DiffedDevices += st.DiffedDevices
			sum.Recompiled += st.Recompiled
			if st.FullRebuild {
				fullRebuilds++
			}
		})
		if err := checkStore(n, len(rig.resident)); err != nil {
			r.attempted++
			r.fail("store check after the churn: %v", err)
		}
	}

	ops := float64(r.ops())
	r.layer = map[string]float64{
		"nm.observed":            ratio(float64(sum.Observed), ops),
		"nm.cache_hits":          ratio(float64(sum.CacheHits), ops),
		"nm.cache_misses":        ratio(float64(sum.CacheMisses), ops),
		"nm.diffed_devices":      ratio(float64(sum.DiffedDevices), ops),
		"nm.recompiled":          ratio(float64(sum.Recompiled), ops),
		"nm.full_rebuilds":       ratio(float64(fullRebuilds), ops),
		"nm.search_expanded":     percentile(expanded, 50),
		"setup.build_ms":         percentile(builds, 50),
		"setup.bulk_converge_ms": percentile(converges, 50),
		"store.submit_p50_ms":    percentile(submits, 50),
		"store.submit_p90_ms":    percentile(submits, 90),
		"store.withdraw_p50_ms":  percentile(withdraws, 50),
		"store.withdraw_p90_ms":  percentile(withdraws, 90),
	}
	r.human = append(r.human,
		fmt.Sprintf("submit_p50_ms %.3f ms, submit_p90_ms %.3f ms over %d samples",
			percentile(submits, 50), percentile(submits, 90), len(submits)),
		fmt.Sprintf("withdraw_p50_ms %.3f ms, withdraw_p90_ms %.3f ms over %d samples",
			percentile(withdraws, 50), percentile(withdraws, 90), len(withdraws)),
		fmt.Sprintf("churn_ops_per_s %.1f 1/s; set-up %.0f ms build + %.0f ms bulk converge (medians of %d)",
			float64(r.ops())/r.elapsed.Seconds(), percentile(builds, 50), percentile(converges, 50), len(builds)))
	return r, nil
}

// churnOp submits the next free customer's intent or withdraws a seeded
// resident one, then reconciles. It returns the latency in milliseconds
// and the pass's StoreStats, and checks the pass stayed incremental:
// no full rebuild, one recompile for a submit and none for a withdraw.
func churnOp(tr *tracer, rig *churnRig, g *nm.Graph, rng *rand.Rand, submit, traced bool, expanded *[]float64) (float64, nm.StoreStats, error) {
	n := rig.tb.NM
	var cust, slot int
	if submit {
		cust = rig.free[0]
	} else {
		slot = rng.Intn(len(rig.resident))
		cust = rig.resident[slot]
	}
	intent := experiments.LiteIntent(cust)

	start := time.Now()
	root := tr.startOp(traced)
	defer tr.endOp(root)
	var err error
	if submit {
		sp := tr.begin("nm.submit")
		err = n.Submit(intent)
		tr.end(sp)
	} else {
		sp := tr.begin("nm.withdraw")
		err = n.Withdraw(intent.Name)
		tr.end(sp)
	}
	if err != nil {
		return 0, nm.StoreStats{}, err
	}
	var plan *nm.StorePlan
	if traced {
		if submit {
			err = traceSearch(tr, n, g, []nm.Intent{intent}, expanded)
		}
		if err == nil {
			sp := tr.begin("nm.plan")
			plan, err = n.PlanStore()
			tr.end(sp)
		}
		if err == nil {
			sp := tr.begin("nm.execute")
			err = n.ApplyStore(plan)
			tr.end(sp)
		}
	} else {
		plan, err = n.Reconcile()
	}
	lat := sinceMS(start)
	if err != nil {
		return 0, nm.StoreStats{}, fmt.Errorf("reconcile after %s: %w", intent.Name, err)
	}
	if submit {
		rig.free = rig.free[1:]
		rig.resident = append(rig.resident, cust)
	} else {
		rig.resident = append(rig.resident[:slot], rig.resident[slot+1:]...)
		rig.free = append(rig.free, cust)
	}
	st := plan.Stats
	wantRecompiled := 0
	if submit {
		wantRecompiled = 1
	}
	if st.FullRebuild || st.Recompiled != wantRecompiled {
		return 0, st, fmt.Errorf("%s pass not incremental: %+v", intent.Name, st)
	}
	if plan.Empty() {
		return 0, st, fmt.Errorf("%s pass sent no commands", intent.Name)
	}
	return lat, st, nil
}
