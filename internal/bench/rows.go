package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"conman/internal/channel"
	"conman/internal/experiments"
	"conman/internal/msg"
	"conman/internal/nm"
	"conman/internal/topo"
)

// Rows returns the registry in BENCH_baseline.json order. Building the
// list is cheap: every row measures only when its Measure is called.
func Rows() []Row {
	var rows []Row

	// LinearApply: intent apply on linear chains in both execution
	// modes. The plain GRE rows track the executor's scaling to n=128;
	// the GRE+IGP rows add the control modules' flooding cost.
	for _, c := range []struct {
		sc string
		ns []int
	}{{"GRE", []int{16, 64, 128}}, {"GRE+IGP", []int{16, 64}}} {
		for _, n := range c.ns {
			for _, mode := range []string{"sequential", "concurrent"} {
				rows = append(rows, Row{Key: Key{"LinearApply", c.sc, n, mode}, Reps: 2, Measure: linearApply})
			}
		}
	}

	// FindPath: the enumerator plus nm.PickPath vs the best-first search
	// on the L2 chains whose variant space is exponential.
	for _, n := range []int{16, 64, 128} {
		for _, mode := range []string{"exhaustive", "best-first"} {
			rows = append(rows, Row{Key: Key{"FindPath", "VLAN", n, mode}, Reps: 2, Measure: findPathLinear})
		}
	}

	// StoreReconcile: one dirty intent among k resident ones. Every pass
	// must recompile exactly that intent, with no full rebuild. The k=1
	// row is the floor (compile + two edge batches); the k=10000 row
	// must stay within 5x of it or reconcile is no longer O(changed).
	floor := Key{"StoreReconcile", "diamond-lite", 1, "1-dirty"}
	rows = append(rows,
		Row{Key: floor, Measure: storeReconcile},
		Row{Key: Key{"StoreReconcile", "diamond-lite", 10000, "1-dirty"}, Measure: storeReconcile,
			Base: floor, Gate: func(r, base Result) error {
				if ratio := r.Seconds / base.Seconds; ratio > 5 {
					return fmt.Errorf("StoreReconcile 1-dirty latency at k=%d is %.1fx the k=%d floor (budget 5x): reconcile is no longer O(changed)",
						r.N, ratio, base.N)
				}
				return nil
			}},
	)

	// DaemonConverge: wall clock from an injected wire cut to a
	// re-converged store under the autonomous daemon, the push-path
	// healing latency the §II-E trigger plumbing exists to bound.
	rows = append(rows, Row{Key: Key{"DaemonConverge", "VLAN-shared", 2, "kill-wire"}, Reps: 2,
		Measure: daemonConverge})

	// IGPFlood: the first routed intent on a generated fabric cold-starts
	// IGP adjacencies on every router; LSA relays through the NM count
	// the flooding messages (Expanded).
	rows = append(rows,
		Row{Key: Key{"IGPFlood", "ring-16", 16, "sequential"},
			Measure: func(Key) (Result, error) { return igpFlood(topo.Ring(16)) }},
		Row{Key: Key{"IGPFlood", "fattree-4", 20, "sequential"},
			Measure: func(Key) (Result, error) { return igpFlood(topo.FatTree(4)) }},
	)

	// FindPath/waxman: best-first search with no Prefer hint on a seeded
	// random graph, the metric-driven selection of §III-C.1 over an
	// irregular variant space.
	rows = append(rows, Row{Key: Key{"FindPath", "waxman-48", 48, "no-prefer"}, Reps: 2,
		Measure: findPathWaxman})

	// TopoPlan: intent compilation (no apply) at generator scale.
	rows = append(rows,
		Row{Key: Key{"TopoPlan", "ring", 512, "plan"},
			Measure: func(Key) (Result, error) { return topoPlan(topo.Ring(512)) }},
		Row{Key: Key{"TopoPlan", "torus", 1024, "plan"},
			Measure: func(Key) (Result, error) { return topoPlan(topo.Torus(32, 32)) }},
		Row{Key: Key{"TopoPlan", "torus", 4096, "plan"},
			Measure: func(Key) (Result, error) { return topoPlan(topo.Torus(64, 64)) }},
	)

	// Transport/linear-udp: configure and verify the GRE+IGP chain over
	// real UDP sockets, clean vs seeded 5% loss + reorder + jitter.
	for _, mode := range []string{"clean", "loss-5pct"} {
		rows = append(rows, Row{Key: Key{"Transport", "linear-udp", 128, mode}, Reps: 2, Measure: transportLinear})
	}

	// Transport/lsa-burst: exact data frames for a 512-envelope one-way
	// burst, batched (64 per frame) vs unbatched; batching must save at
	// least 4x.
	batched := Key{"Transport", "lsa-burst", 512, "batched"}
	rows = append(rows,
		Row{Key: batched, Measure: transportBurst},
		Row{Key: Key{"Transport", "lsa-burst", 512, "unbatched"}, Measure: transportBurst,
			Base: batched, Gate: func(r, base Result) error {
				if r.Expanded < 4*base.Expanded {
					return fmt.Errorf("transport batching under 4x: %d unbatched vs %d batched frames for a %d-envelope burst",
						r.Expanded, base.Expanded, r.N)
				}
				return nil
			}},
	)
	return rows
}

func linearApply(k Key) (Result, error) {
	sc, err := experiments.LinearScenarioByName(k.Scenario)
	if err != nil {
		return Result{}, err
	}
	tb, err := sc.Build(k.N)
	if err != nil {
		return Result{}, err
	}
	defer tb.Close()
	tb.NM.Workers = Workers(k.Mode)
	plan, err := sc.PlanLinear(tb, k.N)
	if err != nil {
		return Result{}, err
	}
	return timedApply(tb, plan)
}

// timedApply applies plan over the latency-emulating Hub and returns
// its wall clock and configuration message counts.
func timedApply(tb *experiments.Testbed, plan *nm.Plan) (Result, error) {
	tb.NM.ResetCounters()
	tb.Hub.SetLatency(Latency)
	start := time.Now()
	if err := tb.NM.Apply(plan); err != nil {
		return Result{}, err
	}
	el := time.Since(start)
	c := tb.NM.Counters()
	return Result{Seconds: el.Seconds(), Sent: c.Sent(), Received: c.Received()}, nil
}

func findPathLinear(k Key) (Result, error) {
	sc, err := experiments.LinearScenarioByName(k.Scenario)
	if err != nil {
		return Result{}, err
	}
	tb, err := sc.Build(k.N)
	if err != nil {
		return Result{}, err
	}
	return findPath(tb, experiments.LinearGoal(k.N, sc.Tag), sc.PathDesc, k.Mode == "exhaustive")
}

func findPathWaxman(Key) (Result, error) {
	tb, intents, err := vlanLite(topo.Waxman(48, 0.7, 0.25, 1))
	if err != nil {
		return Result{}, err
	}
	return findPath(tb, intents[0].Goal, "", false)
}

// findPath builds the testbed's potential graph and times one search
// for goal; Expanded counts the states explored.
func findPath(tb *experiments.Testbed, goal nm.Goal, prefer string, exhaustive bool) (Result, error) {
	defer tb.Close()
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		return Result{}, err
	}
	spec := nm.FindSpec{
		From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain,
		FromPipe: goal.FromPipe, ToPipe: goal.ToPipe,
		Prefer: prefer,
	}
	start := time.Now()
	var p *nm.Path
	var stats nm.PruneStats
	if exhaustive {
		var paths []*nm.Path
		paths, stats, err = g.FindPaths(spec)
		p = nm.PickPath(paths, prefer)
	} else {
		p, stats, err = g.FindBest(spec)
	}
	if err != nil {
		return Result{}, err
	}
	if p == nil {
		return Result{}, fmt.Errorf("no path found")
	}
	return Result{Seconds: time.Since(start).Seconds(), Expanded: stats.Expanded}, nil
}

// vlanLite builds a generated fabric as a one-pair VLAN testbed.
func vlanLite(w *topo.Wiring, err error) (*experiments.Testbed, []nm.Intent, error) {
	if err != nil {
		return nil, nil, err
	}
	return experiments.BuildTopoVLANLite(w, 1)
}

// storeReconcile converges k.N resident intents on diamond-lite and
// returns the mean of 32 rounds of "submit one new intent, reconcile";
// Expanded totals their observes+recompiles.
func storeReconcile(k Key) (Result, error) {
	const rounds = 32
	tb, err := experiments.BuildDiamondLite(k.N + rounds)
	if err != nil {
		return Result{}, err
	}
	defer tb.Close()
	for j := 1; j <= k.N; j++ {
		if err := tb.NM.Submit(experiments.LiteIntent(j)); err != nil {
			return Result{}, err
		}
	}
	// The first pass converges the store; the second settles the
	// pipe-bind fallback so measurement starts converged.
	for i := 0; i < 2; i++ {
		if _, err := tb.NM.Reconcile(); err != nil {
			return Result{}, err
		}
	}
	tb.Hub.SetLatency(Latency)
	expanded := 0
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := tb.NM.Submit(experiments.LiteIntent(k.N + 1 + i)); err != nil {
			return Result{}, err
		}
		plan, err := tb.NM.Reconcile()
		if err != nil {
			return Result{}, err
		}
		if plan.Stats.FullRebuild || plan.Stats.Recompiled != 1 {
			return Result{}, fmt.Errorf("1-dirty pass recompiled %d intents (full rebuild %v)",
				plan.Stats.Recompiled, plan.Stats.FullRebuild)
		}
		expanded += plan.Stats.Observed + plan.Stats.Recompiled
	}
	return Result{Seconds: time.Since(start).Seconds() / rounds, Expanded: expanded}, nil
}

// daemonConverge cuts the active arm of the shared diamond and clocks
// until the daemon reports a new converged generation.
func daemonConverge(Key) (Result, error) {
	const wait = 30 * time.Second
	tb, pairs, err := experiments.BuildDiamondShared(2)
	if err != nil {
		return Result{}, err
	}
	defer tb.Close()
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			return Result{}, err
		}
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, wait); err != nil {
		return Result{}, err
	}
	tb.Hub.SetLatency(Latency)
	gen := d.ConvergeGen()
	start := time.Now()
	if err := tb.Net.SetMediumUp("A-B1", false); err != nil {
		return Result{}, err
	}
	if err := d.WaitConverged(gen, wait); err != nil {
		return Result{}, err
	}
	return Result{Seconds: time.Since(start).Seconds()}, nil
}

// igpFlood applies with one worker, so the relay count is exact.
func igpFlood(w *topo.Wiring, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	tb, pairs, err := experiments.BuildTopoGREIGP(w, 1)
	if err != nil {
		return Result{}, err
	}
	defer tb.Close()
	tb.NM.Workers = 1
	plan, err := tb.NM.Plan(nm.Intent{Name: "vpn-c1", Goal: pairs[0].Goal, Prefer: "GRE-IP tunnel"})
	if err != nil {
		return Result{}, err
	}
	r, err := timedApply(tb, plan)
	r.Expanded = tb.NM.Counters().RelayOut
	return r, err
}

func topoPlan(w *topo.Wiring, err error) (Result, error) {
	tb, intents, err := vlanLite(w, err)
	if err != nil {
		return Result{}, err
	}
	defer tb.Close()
	start := time.Now()
	plan, err := tb.NM.Plan(intents[0])
	if err != nil {
		return Result{}, err
	}
	el := time.Since(start)
	if plan.Empty() {
		return Result{}, fmt.Errorf("empty plan")
	}
	return Result{Seconds: el.Seconds()}, nil
}

func transportLinear(k Key) (Result, error) {
	cfg := channel.Config{FlushAge: time.Millisecond}
	var factory experiments.EndpointFactory
	if k.Mode == "loss-5pct" {
		factory = channel.NewFaultyNetwork(cfg, channel.FaultConfig{
			Seed: 42, Loss: 0.05, Reorder: 0.02, Jitter: time.Millisecond,
		}).Endpoint
	} else {
		factory = channel.NewUDPNetworkConfig(cfg).Endpoint
	}
	sc := experiments.GREIGPScenario()
	tb, err := sc.BuildOver(k.N, factory)
	if err != nil {
		return Result{}, err
	}
	defer tb.Close()
	tb.NM.RetryInterval = 100 * time.Millisecond
	tb.NM.CallTimeout = 30 * time.Second
	start := time.Now()
	if err := sc.ConfigureVerified(tb, k.N, 20*time.Second, 30*time.Second); err != nil {
		return Result{}, err
	}
	return Result{Seconds: time.Since(start).Seconds()}, nil
}

// transportBurst clocks one burst of k.N envelopes across a clean UDP
// pair to full delivery.
func transportBurst(k Key) (Result, error) {
	cfg := channel.Config{MaxBatchMsgs: 1, Window: 64}
	if k.Mode == "batched" {
		// FlushAge well above the enqueue time of the burst: every frame
		// fills completely, so the frame count is k.N/64.
		cfg = channel.Config{MaxBatchMsgs: 64, FlushAge: 50 * time.Millisecond, Window: 64}
	}
	un := channel.NewUDPNetworkConfig(cfg)
	src, err := un.Endpoint("src")
	if err != nil {
		return Result{}, err
	}
	defer src.Close()
	dst, err := un.Endpoint("dst")
	if err != nil {
		return Result{}, err
	}
	defer dst.Close()
	got := make(chan struct{})
	var seen atomic.Uint64 // handlers run on a concurrent pool
	dst.SetHandler(func(env msg.Envelope) {
		if seen.Add(1) == uint64(k.N) {
			close(got)
		}
	})
	start := time.Now()
	for i := 0; i < k.N; i++ {
		env := msg.MustNew(msg.TypeConvey, "src", "dst", 0, msg.Convey{Kind: fmt.Sprintf("lsa-%d", i)})
		if err := src.Send(env); err != nil {
			return Result{}, err
		}
	}
	select {
	case <-got:
	case <-time.After(30 * time.Second):
		return Result{}, fmt.Errorf("%d/%d envelopes delivered", seen.Load(), k.N)
	}
	el := time.Since(start)
	return Result{Seconds: el.Seconds(), Expanded: int(un.Stats().DataFrames)}, nil
}
