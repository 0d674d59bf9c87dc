package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"conman/internal/channel"
	"conman/internal/experiments"
	"conman/internal/obs"
)

// runTransport is the CI transport-smoke tier's entrypoint: configure a
// linear GRE+IGP chain over real UDP sockets with seeded loss, reorder
// and jitter, verify the data plane end-to-end, and (with -addr) keep
// serving /status and /metrics so the harness can assert the transport's
// retry and batching counters are nonzero.
func runTransport(args []string) error {
	fs := flag.NewFlagSet("transport", flag.ContinueOnError)
	n := fs.Int("n", 128, "routers in the linear chain")
	loss := fs.Float64("loss", 0.05, "per-datagram loss probability")
	reorder := fs.Float64("reorder", 0.02, "per-datagram reorder probability")
	dup := fs.Float64("dup", 0, "per-datagram duplication probability")
	jitter := fs.Duration("jitter", time.Millisecond, "max per-datagram latency jitter")
	seed := fs.Int64("seed", 1, "fault-injection seed")
	flush := fs.Duration("flush", time.Millisecond, "batch flush age (0 sends immediately)")
	addr := fs.String("addr", "", "serve /status and /metrics on this address after converging (empty: exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	faults := channel.FaultConfig{
		Seed: *seed, Loss: *loss, Reorder: *reorder, Dup: *dup, Jitter: *jitter,
	}
	fn := channel.NewFaultyNetwork(channel.Config{FlushAge: *flush}, faults)
	sc := experiments.GREIGPScenario()
	tb, err := sc.BuildOver(*n, fn.Endpoint)
	if err != nil {
		return err
	}
	defer tb.Close()
	tb.NM.RetryInterval = 100 * time.Millisecond
	tb.NM.CallTimeout = 30 * time.Second

	start := time.Now()
	if err := sc.ConfigureVerified(tb, *n, 20*time.Second, 30*time.Second); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	elapsed := time.Since(start)

	s := fn.Stats()
	fmt.Printf("transport: converged n=%d loss=%.0f%% reorder=%.0f%% jitter=%v in %v\n",
		*n, *loss*100, *reorder*100, *jitter, elapsed.Round(time.Millisecond))
	fmt.Printf("transport: %d datagrams sent (%d batched, %d retransmits, %d ack-only), %d dup frames dropped, %d envelopes delivered, %d NM call retries\n",
		s.DatagramsSent, s.BatchedDatagrams, s.Retransmits, s.AckOnly, s.DupFrames, s.EnvelopesDelivered, tb.NM.CallRetries())

	if *addr == "" {
		return nil
	}
	metrics := obs.NewMetrics()
	syncTransportMetrics(metrics, fn, tb)
	go func() {
		for range time.Tick(500 * time.Millisecond) {
			syncTransportMetrics(metrics, fn, tb)
		}
	}()
	mux := obs.NewMux(func() any {
		return map[string]any{
			"transport":       fn.Stats(),
			"nm_call_retries": tb.NM.CallRetries(),
			"n":               *n,
			"converge_secs":   elapsed.Seconds(),
		}
	}, metrics)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fmt.Printf("transport: listening on http://%s (/status /metrics)\n", ln.Addr())
	select {
	case <-ctx.Done():
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer shutCancel()
		_ = srv.Shutdown(shutCtx)
		fmt.Println("transport: shut down")
		return nil
	case err := <-serveErr:
		return err
	}
}

// syncTransportMetrics mirrors the transport's monotonic snapshot into
// the obs registry (counters advance by delta; the queue high-water mark
// is a gauge).
func syncTransportMetrics(m *obs.Metrics, fn *channel.FaultyNetwork, tb *experiments.Testbed) {
	s := fn.Stats()
	set := func(name, help string, v uint64) {
		c := m.Counter(name, help)
		if cur := c.Get(); v > cur {
			c.Add(v - cur)
		}
	}
	set("conman_transport_datagrams_sent_total", "UDP datagrams written", s.DatagramsSent)
	set("conman_transport_data_frames_total", "sequenced data frames (first transmissions)", s.DataFrames)
	set("conman_transport_batched_datagrams_total", "datagrams carrying more than one envelope", s.BatchedDatagrams)
	set("conman_transport_retransmits_total", "frame retransmissions", s.Retransmits)
	set("conman_transport_ack_only_total", "standalone ack frames", s.AckOnly)
	set("conman_transport_dup_frames_total", "duplicate frames deduplicated at receivers", s.DupFrames)
	set("conman_transport_envelopes_sent_total", "envelopes accepted for send", s.EnvelopesSent)
	set("conman_transport_envelopes_delivered_total", "envelopes delivered to handlers", s.EnvelopesDelivered)
	set("conman_transport_backlog_drops_total", "sends rejected with a full queue", s.BacklogDrops)
	set("conman_nm_call_retries_total", "NM request retransmissions", tb.NM.CallRetries())
	m.Gauge("conman_transport_queue_high_water", "peak per-peer send queue depth").Set(s.QueueHighWater)
}
