package main

import (
	"fmt"
	"time"

	"conman/internal/core"
	"conman/internal/experiments"
	"conman/internal/nm"
	"conman/internal/obs"
	"conman/internal/topo"
)

// fabric-heal: a fat-tree VLAN fabric carrying cross-core intent pairs
// under nm.Daemon over the in-process Hub at healLatency per message.
// Each operation is one chaos episode that cuts one seeded wire; it is
// timed from the cut until the daemon has reconverged and every pair
// delivers again. The wire is then restored and re-convergence awaited,
// untimed but checked.
const (
	healLatency = 200 * time.Microsecond
	healWait    = 30 * time.Second
	// healPrefer pins the intents' path flavour: with no preference the
	// search picks paths that fail at execute on VLAN fabrics (see
	// README.md).
	healPrefer = "VLAN tunnel"
	// healVerifyPolls bounds the delivery polls after the daemon reports
	// convergence, one Hub round trip apart.
	healVerifyPolls = 100
)

// healRig is one converged fabric under its running daemon.
type healRig struct {
	tb      *experiments.Testbed
	w       *topo.Wiring
	pairs   []experiments.SharedPair
	protect []topo.Pair
	d       *nm.Daemon
	stop    func()
	token   uint32
}

func buildHeal(cfg config) (*healRig, time.Duration, time.Duration, error) {
	t0 := time.Now()
	w, err := topo.FatTree(4)
	if err != nil {
		return nil, 0, 0, err
	}
	protect, err := w.CrossCorePairs(cfg.pairs)
	if err != nil {
		return nil, 0, 0, err
	}
	tb, pairs, err := experiments.BuildTopoVLAN(w, cfg.pairs)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent(healPrefer)); err != nil {
			return nil, 0, 0, err
		}
	}
	tb.Hub.SetLatency(healLatency)
	build := time.Since(t0)
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	rig := &healRig{tb: tb, w: w, pairs: pairs, protect: protect, d: d, stop: stop,
		token: uint32(cfg.seed%1000)*100000 + 1}
	if err := d.WaitConverged(0, healWait); err != nil {
		stop()
		return nil, 0, 0, fmt.Errorf("initial convergence: %w", err)
	}
	if _, err := rig.verifyAll(nil); err != nil {
		stop()
		return nil, 0, 0, fmt.Errorf("initial delivery: %w", err)
	}
	return rig, build, time.Since(t0) - build, nil
}

// verifyAll checks that every pair delivers both ways with no leak,
// polling each pair until it does. It returns the number of probes sent.
func (h *healRig) verifyAll(tr *tracer) (int, error) {
	polls := 0
	for _, p := range h.pairs {
		var err error
		for i := 0; i < healVerifyPolls; i++ {
			polls++
			sp := tr.begin("dataplane.verify")
			err = h.tb.VerifyPair(p, h.token)
			tr.end(sp)
			h.token += 2
			if err == nil {
				break
			}
			time.Sleep(healLatency)
		}
		if err != nil {
			return polls, err
		}
	}
	return polls, nil
}

// daemonSample is the part of the daemon's metric registry read per
// episode.
type daemonSample struct {
	runs, errors uint64
	reconcile    obs.HistogramSnapshot
}

func sampleDaemon(m *obs.Metrics) daemonSample {
	return daemonSample{
		runs:      m.Counter("conman_reconcile_runs_total", "").Get(),
		errors:    m.Counter("conman_reconcile_errors_total", "").Get(),
		reconcile: m.Histogram("conman_reconcile_latency_seconds", "").Snapshot(),
	}
}

// runHeal sets the fabric up cfg.setups times and splits the measured
// time evenly across the set-ups.
func runHeal(cfg config, tr *tracer) (*result, error) {
	r := &result{}
	var builds, converges, expanded []float64
	var passes, errs, polls, cmds, acks int
	var reconcileSec float64
	var reconciles uint64
	for i := 0; i < cfg.setups; i++ {
		var rig *healRig
		var build, converge time.Duration
		err := r.setup(func() error {
			var err error
			rig, build, converge, err = buildHeal(cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		builds = append(builds, ms(build))
		converges = append(converges, ms(converge))
		timeBox(r, cfg.seconds/time.Duration(cfg.setups), cfg.trace, 1, func(traced bool) {
			seed := cfg.seed*1000 + int64(r.attempted)
			d0, n0 := sampleDaemon(rig.d.Metrics()), rig.tb.NM.Counters()
			lat, p, err := healEpisode(tr, rig, seed, traced, &expanded)
			polls += p
			if err != nil {
				r.fail("episode seed %d: %v", seed, err)
				return
			}
			r.record(traced, lat)
			d1, n1 := sampleDaemon(rig.d.Metrics()), rig.tb.NM.Counters()
			passes += int(d1.runs - d0.runs)
			errs += int(d1.errors - d0.errors)
			reconciles += d1.reconcile.Count - d0.reconcile.Count
			reconcileSec += d1.reconcile.Sum - d0.reconcile.Sum
			cmds += n1.CmdSent - n0.CmdSent
			acks += n1.AckRecv - n0.AckRecv
		})
		rig.stop()
	}

	ops := float64(r.ops())
	r.layer = map[string]float64{
		"daemon.passes_per_repair": ratio(float64(passes), ops),
		"daemon.errors":            ratio(float64(errs), ops),
		"daemon.reconcile_ms":      1000 * ratio(reconcileSec, float64(reconciles)),
		"nm.cmd_batches":           ratio(float64(cmds), ops),
		"nm.acks":                  ratio(float64(acks), ops),
		"dataplane.verify_polls":   ratio(float64(polls), ops),
		"nm.search_expanded":       percentile(expanded, 50),
		"setup.build_ms":           percentile(builds, 50),
		"setup.bulk_converge_ms":   percentile(converges, 50),
	}
	r.human = append(r.human, fmt.Sprintf(
		"repair_p50_ms %.3f ms, repair_p90_ms %.3f ms over %d samples; %.2f daemon passes per episode (cut and restore), %.2f ms each",
		percentile(r.lat, 50), percentile(r.lat, 90), len(r.lat), r.layer["daemon.passes_per_repair"], r.layer["daemon.reconcile_ms"]))
	return r, nil
}

// healEpisode cuts one seeded wire, waits for the daemon to repair and
// every pair to deliver (the timed part), checks that no intent still
// rides the cut wire, then restores the wire and checks re-convergence.
// It returns the repair latency in milliseconds and the delivery probes
// sent.
func healEpisode(tr *tracer, rig *healRig, seed int64, traced bool, expanded *[]float64) (float64, int, error) {
	tb, d := rig.tb, rig.d
	start := time.Now()
	root := tr.startOp(traced)
	defer tr.endOp(root)
	sp := tr.begin("daemon.wait")
	rep, err := tb.RunChaos(d, rig.w, rig.protect, experiments.ChaosSpec{Seed: seed, Wires: 1, Timeout: healWait})
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	polls, err := rig.verifyAll(tr)
	lat := sinceMS(start)
	if err != nil {
		return 0, polls, fmt.Errorf("after repair: %w", err)
	}

	check := tr.begin("check")
	wire, ok := findWire(rig.w, rep.Wires[0])
	if !ok {
		return 0, polls, fmt.Errorf("cut wire %q not in the fabric", rep.Wires[0])
	}
	st := d.Status()
	for _, ih := range st.Intents {
		onA, onB := false, false
		for _, dev := range ih.Devices {
			onA = onA || dev == wire.A.Device
			onB = onB || dev == wire.B.Device
		}
		// Devices on a fat-tree path are adjacent only where the path
		// crosses the wire between them, so holding both ends of the
		// cut wire means riding it.
		if onA && onB {
			return 0, polls, fmt.Errorf("intent %s still rides cut wire %s (%v)", ih.Name, wire.Name, ih.Devices)
		}
	}
	if traced {
		intents := make([]nm.Intent, len(rig.pairs))
		for i, p := range rig.pairs {
			intents[i] = p.Intent(healPrefer)
		}
		if err := traceSearch(tr, tb.NM, nil, intents, expanded); err != nil {
			return 0, polls, err
		}
		seen := make(map[core.DeviceID]bool)
		var devs []core.DeviceID
		for _, ih := range st.Intents {
			for _, dev := range ih.Devices {
				if !seen[dev] {
					seen[dev] = true
					devs = append(devs, dev)
				}
			}
		}
		if err := traceObserve(tr, tb.NM, devs); err != nil {
			return 0, polls, err
		}
	}
	tr.end(check)

	restore := tr.begin("daemon.restore")
	defer tr.end(restore)
	gen := d.ConvergeGen()
	if err := tb.Net.SetMediumUp(wire.Name, true); err != nil {
		return 0, polls, err
	}
	if err := d.WaitConverged(gen, healWait); err != nil {
		return 0, polls, fmt.Errorf("after restoring %s: %w", wire.Name, err)
	}
	if st := d.Status(); !st.Healthy() {
		return 0, polls, fmt.Errorf("daemon unhealthy after restoring %s: %q", wire.Name, st.LastError)
	}
	if _, err := rig.verifyAll(nil); err != nil {
		return 0, polls, fmt.Errorf("after restoring %s: %w", wire.Name, err)
	}
	return lat, polls, nil
}

func findWire(w *topo.Wiring, name string) (topo.Wire, bool) {
	for _, wi := range w.Wires {
		if wi.Name == name {
			return wi, true
		}
	}
	return topo.Wire{}, false
}
