package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"conman/internal/channel"
	"conman/internal/experiments"
	"conman/internal/msg"
	"conman/internal/nm"
)

// Chain workloads: one cold start per operation on a freshly built
// GRE+IGP linear chain whose management plane runs over real UDP
// sockets on the host loopback. The build is set-up; the operation is
// Plan, Apply, then VerifyConnectivity polled at chainPoll until the
// first two-way delivery with no leak.
const (
	chainPoll     = 5 * time.Millisecond
	chainDeadline = 30 * time.Second
)

// countingEndpoint counts the envelope body bytes handed to the
// management channel, the payload the transport then frames.
type countingEndpoint struct {
	channel.Endpoint
	bytes *atomic.Uint64
}

func (c countingEndpoint) Send(env msg.Envelope) error {
	c.bytes.Add(uint64(len(env.Body)))
	return c.Endpoint.Send(env)
}

// chainRig is one built chain, its network and its envelope byte count.
type chainRig struct {
	tb    *experiments.Testbed
	net   *channel.UDPNetwork
	bytes atomic.Uint64
}

// buildChain builds the chain for build number i; on the lossy channel
// the fault-injection seed is cfg.seed*1000 + i.
func buildChain(cfg config, lossy bool, i int) (*chainRig, error) {
	ccfg := channel.Config{FlushAge: time.Millisecond}
	rig := &chainRig{}
	if lossy {
		rig.net = channel.NewFaultyNetwork(ccfg, channel.FaultConfig{
			Seed: cfg.seed*1000 + int64(i), Loss: 0.05, Reorder: 0.02, Jitter: time.Millisecond,
		}).UDPNetwork
	} else {
		rig.net = channel.NewUDPNetworkConfig(ccfg)
	}
	factory := func(name string) (channel.Endpoint, error) {
		ep, err := rig.net.Endpoint(name)
		if err != nil {
			return nil, err
		}
		return countingEndpoint{Endpoint: ep, bytes: &rig.bytes}, nil
	}
	tb, err := experiments.GREIGPScenario().BuildOver(cfg.chainN, factory)
	if err != nil {
		return nil, err
	}
	tb.NM.RetryInterval = 100 * time.Millisecond
	tb.NM.CallTimeout = chainDeadline
	rig.tb = tb
	return rig, nil
}

// chainCounters accumulates the per-operation layer counters.
type chainCounters struct {
	ops                                            int
	datagrams, dataFrames, retransmits, dupFrames  uint64
	ackOnly, abandoned, backlogDrops, envDelivered uint64
	envBytes, queueHigh                            uint64
	cmdBatches, acks, relays, retries, verifyPolls int
	expanded                                       []float64
}

func runChain(cfg config, tr *tracer, lossy bool) (*result, error) {
	r := &result{}
	var cc chainCounters
	token := uint32(cfg.seed%1000)*100000 + 1
	// A run holds only a few cold starts, so setup_s also times
	// cfg.setups builds that are torn down without a cold start.
	for j := 1; j <= cfg.setups; j++ {
		var rig *chainRig
		if err := r.setup(func() error {
			var err error
			rig, err = buildChain(cfg, lossy, -j)
			return err
		}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rig.tb.Close()
	}
	timeBox(r, cfg.seconds, cfg.trace, 1, func(traced bool) {
		var rig *chainRig
		if err := r.setup(func() error {
			var err error
			rig, err = buildChain(cfg, lossy, r.attempted)
			return err
		}); err != nil {
			r.fail("build: %v", err)
			return
		}
		// Every cold start begins from a collected heap, not from
		// whatever garbage the previous chain left.
		r.excluded(func() error { runtime.GC(); return nil })
		defer r.excluded(func() error { rig.tb.Close(); return nil })
		root := tr.startOp(traced)
		defer tr.endOp(root)
		lat, err := chainColdStart(cfg, tr, rig, &cc, &token, traced)
		if err != nil {
			r.fail("%v", err)
			return
		}
		r.record(traced, lat)
	})

	lts := tr.selfTimes()
	op := float64(cc.ops)
	r.layer = map[string]float64{
		"nm.cmd_batches":                 ratio(float64(cc.cmdBatches), op),
		"nm.acks":                        ratio(float64(cc.acks), op),
		"nm.relays":                      ratio(float64(cc.relays), op),
		"nm.call_retries":                ratio(float64(cc.retries), op),
		"channel.datagrams":              ratio(float64(cc.datagrams), op),
		"channel.data_frames":            ratio(float64(cc.dataFrames), op),
		"channel.retransmits":            ratio(float64(cc.retransmits), op),
		"channel.dup_frames":             ratio(float64(cc.dupFrames), op),
		"channel.ack_only":               ratio(float64(cc.ackOnly), op),
		"channel.abandoned_frames":       ratio(float64(cc.abandoned), op),
		"channel.backlog_drops":          ratio(float64(cc.backlogDrops), op),
		"channel.queue_high_water":       float64(cc.queueHigh),
		"channel.retransmit_ratio":       ratio(float64(cc.retransmits), float64(cc.dataFrames)),
		"channel.envelopes_per_datagram": ratio(float64(cc.envDelivered), float64(cc.datagrams)),
		"channel.envelope_bytes":         ratio(float64(cc.envBytes), op),
		"dataplane.verify_polls":         ratio(float64(cc.verifyPolls), op),
		"nm.search_expanded":             percentile(cc.expanded, 50),
		"setup.build_ms":                 1000 * percentile(r.setups, 50),
	}
	if lt := lts["igp.settle"]; lt != nil {
		r.layer["igp.settle_ms"] = percentile(lt.SelfPerCall, 50)
	}
	r.human = append(r.human,
		fmt.Sprintf("cold starts (ms): untraced %.0f, traced %.0f", r.lat, r.latTraced),
		fmt.Sprintf("converge_s %.4f s (median cold start, plan start to verified delivery, %d samples)",
			percentile(r.lat, 50)/1000, len(r.lat)),
		fmt.Sprintf("channel: %.0f retransmits per %.0f data frames per cold start (ratio %.4f), %.1f NM call retries",
			r.layer["channel.retransmits"], r.layer["channel.data_frames"], r.layer["channel.retransmit_ratio"],
			r.layer["nm.call_retries"]))
	return r, nil
}

// chainColdStart runs one cold start on a built chain and returns its
// latency in milliseconds: plan start to the first verified delivery.
// It then checks that the converged chain plans empty.
func chainColdStart(cfg config, tr *tracer, rig *chainRig, cc *chainCounters, token *uint32, traced bool) (float64, error) {
	sc := experiments.GREIGPScenario()
	tb := rig.tb
	s0, n0, retries0, bytes0 := rig.net.Stats(), tb.NM.Counters(), tb.NM.CallRetries(), rig.bytes.Load()

	start := time.Now()
	if traced {
		if err := traceSearch(tr, tb.NM, nil, []nm.Intent{sc.Intent(cfg.chainN)}, &cc.expanded); err != nil {
			return 0, fmt.Errorf("search: %w", err)
		}
	}
	sp := tr.begin("nm.plan")
	plan, err := sc.PlanLinear(tb, cfg.chainN)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("plan: %w", err)
	}
	sp = tr.begin("nm.execute")
	err = tb.NM.Apply(plan)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("apply: %w", err)
	}
	settle := tr.begin("igp.settle")
	polls := 0
	for {
		polls++
		sp = tr.begin("dataplane.verify")
		err = tb.VerifyConnectivity(*token)
		tr.end(sp)
		*token += 2
		if err == nil || time.Since(start) > chainDeadline {
			break
		}
		time.Sleep(chainPoll)
	}
	tr.end(settle)
	lat := sinceMS(start)
	if err != nil {
		return 0, fmt.Errorf("no verified delivery within %v: %w", chainDeadline, err)
	}

	// Counters are read before the checks below add traffic.
	s1, n1 := rig.net.Stats(), tb.NM.Counters()
	cc.ops++
	cc.datagrams += s1.DatagramsSent - s0.DatagramsSent
	cc.dataFrames += s1.DataFrames - s0.DataFrames
	cc.retransmits += s1.Retransmits - s0.Retransmits
	cc.dupFrames += s1.DupFrames - s0.DupFrames
	cc.ackOnly += s1.AckOnly - s0.AckOnly
	cc.abandoned += s1.AbandonedFrames - s0.AbandonedFrames
	cc.backlogDrops += s1.BacklogDrops - s0.BacklogDrops
	cc.envDelivered += s1.EnvelopesDelivered - s0.EnvelopesDelivered
	cc.envBytes += rig.bytes.Load() - bytes0
	cc.queueHigh = max(cc.queueHigh, s1.QueueHighWater)
	cc.cmdBatches += n1.CmdSent - n0.CmdSent
	cc.acks += n1.AckRecv - n0.AckRecv
	cc.relays += n1.RelayOut - n0.RelayOut
	cc.retries += int(tb.NM.CallRetries() - retries0)
	cc.verifyPolls += polls

	// The verified delivery above is two-way with no leak; a converged
	// chain must also plan empty.
	check := tr.begin("check")
	defer tr.end(check)
	again, err := sc.PlanLinear(tb, cfg.chainN)
	if err != nil {
		return 0, fmt.Errorf("re-plan after convergence: %w", err)
	}
	if !again.Empty() {
		return 0, fmt.Errorf("plan after convergence not empty:\n%s", again.Render())
	}
	if traced {
		if err := traceObserve(tr, tb.NM, tb.NM.Devices()); err != nil {
			return 0, err
		}
	}
	return lat, nil
}
