// Command conman drives the CONMan reproduction: the declarative
// intent lifecycle (plan / apply / destroy) on the paper's evaluation
// testbeds, the multi-intent store (submit / withdraw / reconcile) on a
// shared-core demo topology, regeneration of every table and figure of
// §III, and the scale benchmark with JSON output for CI trend tracking.
//
// Usage:
//
//	conman plan <gre|mpls|vlan>
//	conman apply [-dry-run] <gre|mpls|vlan>
//	conman destroy [-dry-run] <gre|mpls|vlan>
//	conman submit
//	conman reconcile [-dry-run]
//	conman withdraw [-dry-run] <vpn-c1|vpn-c2>
//	conman daemon [-addr HOST:PORT] [-poll DUR] [-state-dir DIR]
//	conman doctor [-addr HOST:PORT]
//	conman chaos [-topo FAMILY] [-n N] [-pairs K] [-seed S] [-wires W] [-devices D] [-pipes P] [-addr HOST:PORT]
//	conman store log|show|rollback -state-dir DIR [-to SEQ]
//	conman bench [-out FILE]
//	conman table3|table4|table5|table6|fig3|fig5|fig7|fig8|fig9|paths|all
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"conman/internal/bench"
	"conman/internal/experiments"
	"conman/internal/nm"
	"conman/internal/nm/datastore"
	"conman/internal/obs"
	"conman/internal/topo"
)

func main() {
	os.Exit(runCommand(os.Args[1:]))
}

// commands maps every subcommand to its runner. Anything else is a list
// of paper artifacts (table3 ... fig9, paths, all).
var commands = map[string]func(cmd string, args []string) error{
	"-h": runHelp, "--help": runHelp, "help": runHelp,
	"plan": runIntent, "apply": runIntent, "destroy": runIntent,
	"submit": runStore, "reconcile": runStore, "withdraw": runStore,
	"daemon":    argsOnly(runDaemon),
	"doctor":    argsOnly(runDoctor),
	"store":     argsOnly(runStoreAdmin),
	"bench":     argsOnly(runBench),
	"chaos":     argsOnly(runChaosCmd),
	"transport": argsOnly(runTransport),
}

func argsOnly(run func(args []string) error) func(string, []string) error {
	return func(_ string, args []string) error { return run(args) }
}

func runHelp(string, []string) error {
	usage()
	return flag.ErrHelp
}

// runCommand dispatches one invocation and returns its exit status.
func runCommand(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	if run, ok := commands[args[0]]; ok {
		return exitCode(args[0], run(args[0], args[1:]))
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table3", "table4", "paths", "fig5", "fig7", "fig8", "fig9", "table5", "table6", "fig3"}
	}
	for _, c := range args {
		if code := exitCode(c, run(c)); code != 0 {
			return code
		}
	}
	return 0
}

// exitStatus is an error carrying a subcommand's own exit code (doctor's
// health verdict) past the default of 1, wrapping its cause if any.
type exitStatus struct {
	code int
	err  error
}

func (e exitStatus) Error() string {
	if e.err == nil {
		return fmt.Sprintf("exit status %d", e.code)
	}
	return e.err.Error()
}

func (e exitStatus) Unwrap() error { return e.err }

// exitCode is the one place a subcommand's error becomes an exit status:
// -h (flag.ErrHelp) is success, an exitStatus keeps its code, and
// everything else reports through storeFailure (a store conflict exits
// 3, any other error 1).
func exitCode(cmd string, err error) int {
	var st exitStatus
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &st):
		if st.err != nil {
			fmt.Fprintf(os.Stderr, "conman %s: %v\n", cmd, st.err)
		}
		return st.code
	}
	code, lines := storeFailure(cmd, err)
	for _, line := range lines {
		fmt.Fprintln(os.Stderr, line)
	}
	return code
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: conman <command>...

intent lifecycle (declarative API):
  plan <scenario>             compute and print the reconciliation plan
                              (dry run; no commands are sent)
  apply [-dry-run] <scenario> reconcile the testbed toward the intent,
                              verify the data plane, prove idempotency
                              (-dry-run stops after printing the plan)
  destroy [-dry-run] <scenario>
                              apply, then tear the intent back down and
                              prove the path is gone (-dry-run prints
                              the teardown plan without executing it)

  scenarios: gre, mpls (Fig 4 routed testbed), vlan (Fig 9 switched)

intent store (multi-goal reconciliation, shared-core diamond demo):
  submit                      register both demo VPN intents in the
                              store and print the store-wide plan
                              (dry run; submitting sends nothing)
  reconcile [-dry-run]        submit both intents and reconcile the
                              network to their union: shared transit
                              state is configured once, both customer
                              pairs are verified, and a second
                              reconcile proves zero commands
                              (-dry-run stops after printing the plan)
  withdraw [-dry-run] <name>  reconcile both intents, withdraw <name>
                              (vpn-c1 or vpn-c2), reconcile again, and
                              prove only its unshared components were
                              removed — the surviving VPN still
                              delivers (-dry-run prints the withdrawal
                              plan without executing it)

autonomous operation:
  daemon [-addr HOST:PORT] [-poll DUR] [-state-dir DIR]
                              run the shared-core demo under the
                              autonomous reconciliation daemon: submit
                              both VPN intents, converge, and keep
                              healing faults with no operator. Serves
                              GET /status and /metrics plus fault
                              injection (POST /chaos/kill-wire?wire=W,
                              /chaos/restore-wire?wire=W). -poll adds a
                              periodic audit pass on top of the event
                              push path (default: pure push).
                              -state-dir persists the intent store
                              (snapshot + journal) there and restores
                              it on startup, so a restarted daemon
                              converges without re-observing devices
                              that did not change
  doctor [-addr HOST:PORT]    snapshot a running daemon's /status,
                              pretty-print intent health (including
                              observation-cache hit rate and journal
                              counters), and exit non-zero when it is
                              unhealthy
  chaos [-topo FAMILY] [-n N] [-pairs K] [-seed S]
        [-wires W] [-devices D] [-pipes P] [-addr HOST:PORT]
                              build a generated fabric (fattree, ring,
                              torus or waxman) carrying K VLAN intents
                              under the daemon, inject W wire cuts, D
                              device kills and P pipe deletions
                              concurrently (seeded, min-cut-guarded),
                              and require autonomous re-convergence
                              with delivery verified. With -addr the
                              process serves /status and /metrics and
                              stays up after the episode so doctor can
                              inspect the healed state

  transport [-n N] [-loss P] [-reorder P] [-dup P] [-jitter DUR]
            [-seed S] [-flush DUR] [-addr HOST:PORT]
                              configure a linear GRE+IGP chain of N
                              routers over real UDP sockets with seeded
                              loss/reorder/duplication/jitter injected
                              below the transport's reliability layer,
                              verify end-to-end delivery, and print the
                              batching/retransmission accounting. With
                              -addr the process stays up serving /status
                              and /metrics (the CI transport-smoke tier)

persistent store (offline, operates on -state-dir):
  store log -state-dir DIR    print the journal: every submit/update/
                              withdraw and apply-begin/commit bracket,
                              with sequence numbers and the snapshot
                              position
  store show -state-dir DIR [-to SEQ]
                              replay snapshot + journal and print the
                              registered intents (as of SEQ, when given)
  store rollback -state-dir DIR -to SEQ
                              rewind the intent set to sequence SEQ by
                              appending a rollback record (history is
                              kept); the next daemon start reconciles
                              the network to the rewound set

benchmarks:
  bench [-out FILE]           run every row of the bench registry
                              (internal/bench), enforce its in-bench
                              gates, and emit the results as JSON (for
                              CI artifacts)

paper artifacts:
  table3   GRE module abstraction (Table III)
  table4   device A module inventory (Table IV)
  table5   generic/specific commands & state variables (Table V)
  table6   NM message counts vs path length (Table VI)
  fig3     GRE establishment message sequence (Fig 3)
  fig5     potential-connectivity sub-graph of device A (Fig 5)
  fig7     GRE VPN: today vs CONMan (Fig 7)
  fig8     MPLS VPN: today vs CONMan (Fig 8)
  fig9     VLAN tunnel: today vs CONMan (Fig 9)
  paths    path enumeration between <ETH,A,a> and <ETH,C,f> (§III-C.1)
  all      every paper artifact above`)
}

// scenario resolves a lifecycle scenario name to its testbed builder and
// intent.
func scenario(name string) (func() (*experiments.Testbed, error), nm.Intent, error) {
	switch name {
	case "gre":
		return experiments.BuildFig4, experiments.VPNIntent(experiments.Fig4Goal(), "GRE-IP tunnel"), nil
	case "mpls":
		return experiments.BuildFig4, experiments.VPNIntent(experiments.Fig4Goal(), "MPLS"), nil
	case "vlan":
		return experiments.BuildFig9, experiments.VPNIntent(experiments.Fig9Goal(), "VLAN tunnel"), nil
	}
	return nil, nm.Intent{}, fmt.Errorf("unknown scenario %q (want gre, mpls or vlan)", name)
}

// intentArgs splits the lifecycle and store commands' arguments into the
// -dry-run flag (accepted anywhere) and positional names; -h asks for
// help.
func intentArgs(args []string) (dryRun bool, names []string, err error) {
	for _, a := range args {
		switch a {
		case "-dry-run", "--dry-run":
			dryRun = true
		case "-h", "-help", "--help":
			usage()
			return false, nil, flag.ErrHelp
		default:
			names = append(names, a)
		}
	}
	return dryRun, names, nil
}

func runIntent(cmd string, args []string) error {
	dryRun, names, err := intentArgs(args)
	if err != nil {
		return err
	}
	if len(names) != 1 {
		usage()
		return fmt.Errorf("%s needs exactly one scenario", cmd)
	}
	build, intent, err := scenario(names[0])
	if err != nil {
		return err
	}
	tb, err := build()
	if err != nil {
		return err
	}
	defer tb.Close()

	plan, err := tb.NM.Plan(intent)
	if err != nil {
		return err
	}
	fmt.Print(plan.Render())
	if cmd == "plan" || (cmd == "apply" && dryRun) {
		fmt.Println("dry run: no commands sent")
		return nil
	}

	if err := tb.NM.Apply(plan); err != nil {
		return err
	}
	c := tb.NM.Counters()
	fmt.Printf("applied: %d messages sent, %d received\n", c.Sent(), c.Received())
	if err := tb.VerifyConnectivity(4242); err != nil {
		return fmt.Errorf("data-plane verification: %w", err)
	}
	fmt.Println("data plane verified: probes delivered both ways, isolation holds")

	second, err := tb.NM.Plan(intent)
	if err != nil {
		return err
	}
	if !second.Empty() {
		return fmt.Errorf("re-plan not empty after apply:\n%s", second.Render())
	}
	fmt.Printf("re-plan: no changes (%d components in place) — apply is idempotent\n", second.InPlace)

	if cmd != "destroy" {
		return nil
	}
	if dryRun {
		down, err := tb.NM.PlanDestroy(intent)
		if err != nil {
			return err
		}
		fmt.Print(down.Render())
		fmt.Println("dry run: teardown not executed")
		return nil
	}
	down, err := tb.NM.Destroy(intent)
	if err != nil {
		return err
	}
	fmt.Printf("destroyed: %d delete batches executed\n", len(down.Deletes))
	if err := tb.VerifyConnectivity(4343); err == nil {
		return fmt.Errorf("path still carries traffic after destroy")
	}
	fmt.Println("path gone: probes no longer delivered")
	again, err := tb.NM.Plan(intent)
	if err != nil {
		return err
	}
	fmt.Printf("re-plan after destroy: %d components to create\n", countItems(again.Creates))
	return nil
}

// runStore drives the intent-store demo: two customer VPNs crossing the
// same diamond of switches (shared edge and transit devices), managed
// through Submit / Withdraw / Reconcile.
func runStore(cmd string, args []string) error {
	dryRun, names, err := intentArgs(args)
	if err != nil {
		return err
	}
	tb, pairs, err := experiments.BuildDiamondShared(2)
	if err != nil {
		return err
	}
	defer tb.Close()
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			return err
		}
	}

	if cmd == "submit" {
		if len(names) != 0 {
			usage()
			return fmt.Errorf("submit takes no arguments")
		}
		plan, err := tb.NM.PlanStore()
		if err != nil {
			return err
		}
		fmt.Print(plan.Render())
		fmt.Println("dry run: submitting only records desired state; run 'conman reconcile' to configure")
		return nil
	}

	if cmd == "reconcile" {
		if len(names) != 0 {
			usage()
			return fmt.Errorf("reconcile takes no arguments")
		}
		plan, err := tb.NM.PlanStore()
		if err != nil {
			return err
		}
		fmt.Print(plan.Render())
		if dryRun {
			fmt.Println("dry run: no commands sent")
			return nil
		}
		if err := tb.NM.ApplyStore(plan); err != nil {
			return err
		}
		c := tb.NM.Counters()
		fmt.Printf("reconciled: %d messages sent, %d received\n", c.Sent(), c.Received())
		for i, p := range pairs {
			if err := tb.VerifyPair(p, uint32(4242+100*i)); err != nil {
				return fmt.Errorf("data-plane verification (pair %d): %w", p.Index, err)
			}
		}
		fmt.Println("data plane verified: both customer pairs deliver over the shared core")
		again, err := tb.NM.Reconcile()
		if err != nil {
			return err
		}
		if !again.Empty() {
			return fmt.Errorf("re-reconcile not empty:\n%s", again.Render())
		}
		fmt.Printf("re-reconcile: no changes (%d components in place, %d shared) — reconcile is idempotent\n",
			again.InPlace, again.Shared)
		return nil
	}

	// withdraw
	if len(names) != 1 {
		usage()
		return fmt.Errorf("withdraw needs exactly one intent name (vpn-c1 or vpn-c2)")
	}
	known := false
	for _, in := range tb.NM.Registered() {
		if in.Name == names[0] {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("no intent %q registered (want vpn-c1 or vpn-c2)", names[0])
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		return err
	}
	fmt.Println("reconciled both intents over the shared core")
	if err := tb.NM.Withdraw(names[0]); err != nil {
		return err
	}
	plan, err := tb.NM.PlanStore()
	if err != nil {
		return err
	}
	fmt.Print(plan.Render())
	if dryRun {
		fmt.Println("dry run: withdrawal not executed")
		return nil
	}
	if err := tb.NM.ApplyStore(plan); err != nil {
		return err
	}
	fmt.Printf("withdrawn %q: %d delete batches executed, shared components kept\n", names[0], len(plan.Deletes))
	for _, p := range pairs {
		name := p.Intent("VLAN tunnel").Name
		if name == names[0] {
			continue
		}
		if err := tb.VerifyPair(p, 5353); err != nil {
			return fmt.Errorf("surviving intent %q broken by withdrawal: %w", name, err)
		}
		fmt.Printf("surviving intent %q still delivers\n", name)
	}
	return nil
}

// storeFailure maps a store-command error to its exit code and stderr
// lines. A typed ConflictError — two intents classifying the same
// traffic to different targets — gets a distinct exit code and an
// actionable line naming both intents, instead of disappearing into a
// generic failure.
func storeFailure(cmd string, err error) (code int, lines []string) {
	lines = []string{fmt.Sprintf("conman %s: %v", cmd, err)}
	var ce *nm.ConflictError
	if !errors.As(err, &ce) {
		return 1, lines
	}
	lines = append(lines,
		fmt.Sprintf("conflicting intents: %q and %q (switch rules collide at %s)", ce.IntentA, ce.IntentB, ce.Module),
		"resolution: withdraw one of them (conman withdraw <name>) or change its goal")
	return 3, lines
}

// defaultDaemonAddr is where `conman daemon` listens and `conman
// doctor` probes unless -addr overrides it.
const defaultDaemonAddr = "127.0.0.1:8347"

// runDaemon brings up the shared-core demo (two VLAN-tunnel VPN
// intents over the diamond) under the autonomous reconciliation
// daemon and serves its observability surface over HTTP until
// SIGINT/SIGTERM. The /chaos endpoints inject and repair wire faults
// so the healing loop can be exercised from the outside (the CI smoke
// job does exactly that).
func runDaemon(args []string) error {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "HTTP listen address for /status and /metrics")
	poll := fs.Duration("poll", 0, "periodic audit interval (0 disables polling; events alone drive reconciliation)")
	stateDir := fs.String("state-dir", "", "persist the intent store (snapshot + journal) in this directory and restore it on startup")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb, pairs, err := experiments.BuildDiamondShared(2)
	if err != nil {
		return err
	}
	defer tb.Close()
	if *stateDir != "" {
		lock, err := datastore.LockDir(*stateDir)
		if err != nil {
			return err
		}
		defer lock.Close()
		backend, err := datastore.NewFileBackend(*stateDir)
		if err != nil {
			return err
		}
		restored, err := tb.NM.Persist(backend)
		if err != nil {
			return err
		}
		fmt.Printf("conman daemon: restored %d intents from %s\n", restored, *stateDir)
	}
	for _, p := range pairs {
		err := tb.NM.Submit(p.Intent("VLAN tunnel"))
		var dup *nm.DuplicateIntentError
		if errors.As(err, &dup) {
			continue // already restored from the state directory
		}
		if err != nil {
			return err
		}
	}

	metrics := obs.NewMetrics()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	d, stop := tb.StartDaemon(nm.DaemonConfig{
		Poll:    *poll,
		Logger:  logger,
		Metrics: metrics,
	})
	defer stop()

	mux := obs.NewMux(func() any { return d.Status() }, metrics)
	mux.HandleFunc("/chaos/kill-wire", chaosWire(tb, false))
	mux.HandleFunc("/chaos/restore-wire", chaosWire(tb, true))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fmt.Printf("conman daemon: listening on http://%s (/status /metrics /chaos/kill-wire?wire=W)\n", ln.Addr())
	wires := tb.Net.Media()
	sort.Strings(wires)
	fmt.Printf("conman daemon: wires: %s\n", strings.Join(wires, " "))

	select {
	case <-ctx.Done():
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer shutCancel()
		_ = srv.Shutdown(shutCtx)
		stop() // quiesce the reconciler before snapshotting
		if *stateDir != "" {
			if err := tb.NM.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "conman daemon: checkpoint on shutdown: %v\n", err)
			} else {
				fmt.Printf("conman daemon: state checkpointed to %s\n", *stateDir)
			}
		}
		fmt.Println("conman daemon: shut down")
		return nil
	case err := <-serveErr:
		return err
	}
}

// chaosWire builds the fault-injection handler: POST
// /chaos/kill-wire?wire=A-B1 cuts a wire, /chaos/restore-wire brings
// it back. The daemon is not told — it must notice via the carrier
// topology re-reports, exactly like a real failure.
func chaosWire(tb *experiments.Testbed, up bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("wire")
		if name == "" {
			http.Error(w, "missing ?wire=<name> (see startup log for wire names)", http.StatusBadRequest)
			return
		}
		if _, ok := tb.Net.Medium(name); !ok {
			http.Error(w, fmt.Sprintf("unknown wire %q", name), http.StatusNotFound)
			return
		}
		if err := tb.Net.SetMediumUp(name, up); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"wire\":%q,\"up\":%v}\n", name, up)
	}
}

// chaosWiring builds the fabric for `conman chaos`. n is the family's
// natural size knob (fattree: pod arity, ring/waxman: device count,
// torus: side length); 0 picks a small default.
func chaosWiring(family string, n int, seed int64) (*topo.Wiring, error) {
	switch family {
	case "fattree":
		if n == 0 {
			n = 4
		}
		return topo.FatTree(n)
	case "ring":
		if n == 0 {
			n = 16
		}
		return topo.Ring(n)
	case "torus":
		if n == 0 {
			n = 4
		}
		return topo.Torus(n, n)
	case "waxman":
		if n == 0 {
			n = 32
		}
		return topo.Waxman(n, 0.7, 0.25, seed)
	default:
		return nil, fmt.Errorf("unknown -topo %q (fattree, ring, torus, waxman)", family)
	}
}

// runChaosCmd is the chaos harness as an operator command: one seeded
// multi-failure episode against a daemon-managed generated fabric,
// exit 0 only if every intent re-converged autonomously and delivers.
func runChaosCmd(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	family := fs.String("topo", "fattree", "fabric family: fattree, ring, torus or waxman")
	size := fs.Int("n", 0, "fabric size (fattree: pod arity, ring/waxman: devices, torus: side; 0 = family default)")
	pairsN := fs.Int("pairs", 2, "customer pairs (one VLAN intent each) riding the fabric")
	seed := fs.Int64("seed", 1, "seed for the fault picker (and the waxman graph)")
	wires := fs.Int("wires", 2, "wires to cut concurrently")
	devices := fs.Int("devices", 0, "devices to kill concurrently")
	pipes := fs.Int("pipes", 0, "applied tunnel pipes to delete concurrently")
	timeout := fs.Duration("timeout", 30*time.Second, "re-convergence deadline")
	addr := fs.String("addr", "", "serve /status and /metrics here and stay up after the episode (for doctor)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := chaosWiring(*family, *size, *seed)
	if err != nil {
		return err
	}
	tb, pairs, err := experiments.BuildTopoVLAN(w, *pairsN)
	if err != nil {
		return err
	}
	defer tb.Close()
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			return err
		}
	}
	metrics := obs.NewMetrics()
	d, stop := tb.StartDaemon(nm.DaemonConfig{Metrics: metrics})
	defer stop()

	var srv *http.Server
	if *addr != "" {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		srv = &http.Server{Handler: obs.NewMux(func() any { return d.Status() }, metrics)}
		go func() { _ = srv.Serve(ln) }()
		fmt.Printf("conman chaos: listening on http://%s (/status /metrics)\n", ln.Addr())
	}

	fmt.Printf("conman chaos: %s %s — %d devices, %d wires, %d intents\n",
		w.Family, w.Param, len(w.Devices), len(w.Wires), len(pairs))
	if err := d.WaitConverged(0, *timeout); err != nil {
		return fmt.Errorf("initial convergence: %w", err)
	}
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(90000+100*i)); err != nil {
			return fmt.Errorf("before chaos: %w", err)
		}
	}
	fmt.Printf("conman chaos: converged, delivery verified on %d pairs\n", len(pairs))

	protect, err := w.CrossCorePairs(*pairsN)
	if err != nil {
		return err
	}
	rep, err := tb.RunChaos(d, w, protect, experiments.ChaosSpec{
		Seed: *seed, Wires: *wires, Devices: *devices, Pipes: *pipes, Timeout: *timeout,
	})
	if rep != nil {
		for _, name := range rep.Wires {
			fmt.Printf("conman chaos: cut wire %s\n", name)
		}
		for _, dev := range rep.Devices {
			fmt.Printf("conman chaos: killed device %s\n", dev)
		}
		for _, req := range rep.Pipes {
			fmt.Printf("conman chaos: deleted pipe %s on %s\n", req.ID, req.Module)
		}
	}
	if err != nil {
		return err
	}
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(91000+100*i)); err != nil {
			return fmt.Errorf("after heal: %w", err)
		}
	}
	fmt.Printf("conman chaos: healed %d faults (%d candidates guarded), delivery re-verified on %d pairs\n",
		rep.Faults(), rep.Guarded, len(pairs))

	if srv == nil {
		return nil
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fmt.Println("conman chaos: serving until interrupted")
	<-ctx.Done()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shutCancel()
	_ = srv.Shutdown(shutCtx)
	return nil
}

// runDoctor snapshots a running daemon's /status and renders a
// human-readable health report; the exit code is the check result (0
// healthy, 1 not, 2 unreachable daemon / bad flags).
func runDoctor(args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "daemon address to probe")
	if err := fs.Parse(args); err != nil {
		return exitStatus{2, err}
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + *addr + "/status")
	if err != nil {
		return exitStatus{2, err}
	}
	defer resp.Body.Close()
	var st nm.DaemonStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return exitStatus{2, fmt.Errorf("decoding /status: %w", err)}
	}

	dash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	fmt.Printf("daemon at %s\n", *addr)
	fmt.Printf("  running:     %v\n", st.Running)
	fmt.Printf("  converged:   %v (generation %d)\n", st.Converged, st.ConvergeGen)
	fmt.Printf("  dirty:       %s\n", dash(strings.Join(st.Dirty, ", ")))
	fmt.Printf("  last error:  %s\n", dash(st.LastError))
	unreach := make([]string, len(st.Unreachable))
	for i, dev := range st.Unreachable {
		unreach[i] = string(dev)
	}
	fmt.Printf("  unreachable: %s\n", dash(strings.Join(unreach, ", ")))
	for _, h := range st.Intents {
		devs := make([]string, len(h.Devices))
		for i, dev := range h.Devices {
			devs[i] = string(dev)
		}
		fmt.Printf("  intent %-8s %d exclusive / %d shared components on %s\n",
			h.Name+":", h.Exclusive, h.Shared, strings.Join(devs, ","))
		if h.Path != "" {
			fmt.Printf("    path: %s\n", h.Path)
		}
	}
	fmt.Printf("  reconciles:  %d runs, %d errors\n",
		counterOf(st.Metrics, "conman_reconcile_runs_total"),
		counterOf(st.Metrics, "conman_reconcile_errors_total"))
	fmt.Printf("  events:      %d notify / %d trigger / %d topology (push), %d poll (pull), %d dropped\n",
		counterOf(st.Metrics, "conman_events_notify_total"),
		counterOf(st.Metrics, "conman_events_trigger_total"),
		counterOf(st.Metrics, "conman_events_topology_total"),
		counterOf(st.Metrics, "conman_events_poll_total"),
		counterOf(st.Metrics, "conman_events_dropped_total"))
	hits := counterOf(st.Metrics, "conman_observe_cache_hits_total")
	misses := counterOf(st.Metrics, "conman_observe_cache_misses_total")
	rate := "-"
	if hits+misses > 0 {
		rate = fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(hits+misses))
	}
	fmt.Printf("  obs cache:   %d hits / %d misses (%s hit rate), %d observes, %d recompiles\n",
		hits, misses, rate,
		counterOf(st.Metrics, "conman_observes_total"),
		counterOf(st.Metrics, "conman_store_recompiles_total"))
	fmt.Printf("  journal:     %d entries, %d snapshots\n",
		counterOf(st.Metrics, "conman_journal_entries_total"),
		counterOf(st.Metrics, "conman_snapshot_writes_total"))

	if !st.Healthy() {
		fmt.Println("UNHEALTHY")
		return exitStatus{code: 1}
	}
	fmt.Println("healthy")
	return nil
}

// runStoreAdmin operates offline on a daemon's -state-dir: `log` prints
// the journal, `show` replays the registered intents as of a sequence
// number, `rollback` appends a rollback record rewinding the intent set
// (history is kept — the rollback is itself a journal entry the next
// daemon start replays). All three take the state dir's exclusive lock,
// so they fail fast while a daemon is live instead of racing its
// journal writer.
func runStoreAdmin(args []string) error {
	if len(args) < 1 {
		usage()
		return fmt.Errorf("store needs a subcommand (log, show or rollback)")
	}
	sub, rest := args[0], args[1:]
	if sub == "-h" || sub == "-help" || sub == "--help" {
		return runHelp("store", nil)
	}
	fs := flag.NewFlagSet("store "+sub, flag.ContinueOnError)
	dir := fs.String("state-dir", "", "daemon state directory (snapshot + journal)")
	to := fs.Uint64("to", 0, "journal sequence number (show: replay up to it; rollback: rewind to it)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("store %s needs -state-dir", sub)
	}
	// Exclude a live daemon (and other admin invocations): a second
	// journal writer would hand out colliding sequence numbers, and a
	// running daemon would never apply an offline rollback anyway.
	lock, err := datastore.LockDir(*dir)
	if err != nil {
		return err
	}
	defer lock.Close()
	backend, err := datastore.NewFileBackend(*dir)
	if err != nil {
		return err
	}
	log, st, err := datastore.Open(backend)
	if err != nil {
		return err
	}
	defer log.Close()

	switch sub {
	case "log":
		all, err := backend.Entries()
		if err != nil {
			return err
		}
		fmt.Printf("state %s: %d journal entries, snapshot at seq %d, last seq %d\n",
			*dir, len(all), st.SnapshotSeq, st.LastSeq)
		for _, e := range all {
			line := fmt.Sprintf("  seq %4d  %s  %-11s", e.Seq, time.Unix(e.TimeUnix, 0).Format(time.RFC3339), e.Op)
			if e.Name != "" {
				line += " " + e.Name
			}
			switch e.Op {
			case datastore.OpApplyBegin:
				var devs []string
				if json.Unmarshal(e.Data, &devs) == nil {
					line += " devices=" + strings.Join(devs, ",")
				}
			case datastore.OpRollback:
				line += fmt.Sprintf(" to=%d", e.To)
			}
			fmt.Println(line)
			if e.Seq == st.SnapshotSeq {
				fmt.Println("  ---- snapshot ----")
			}
		}
		return nil

	case "show":
		var recs []datastore.IntentRecord
		if *to != 0 {
			// Historic view: replay the full retained journal from empty.
			all, err := backend.Entries()
			if err != nil {
				return err
			}
			recs, err = datastore.ReplayIntents(nil, all, *to)
			if err != nil {
				return err
			}
			fmt.Printf("intents as of seq %d:\n", *to)
		} else {
			base, err := datastore.SnapshotIntents(st.Snapshot)
			if err != nil {
				return err
			}
			recs, err = datastore.ReplayIntents(base, st.Entries, 0)
			if err != nil {
				return err
			}
			fmt.Printf("intents as of seq %d:\n", st.LastSeq)
		}
		if len(recs) == 0 {
			fmt.Println("  (none)")
		}
		for _, r := range recs {
			fmt.Printf("  %-12s %s\n", r.Name, compactJSON(r.Data))
		}
		return nil

	case "rollback":
		if *to == 0 {
			return fmt.Errorf("store rollback needs -to SEQ (see 'store log')")
		}
		if *to >= st.LastSeq {
			return fmt.Errorf("-to %d is not in the past (last seq %d)", *to, st.LastSeq)
		}
		all, err := backend.Entries()
		if err != nil {
			return err
		}
		recs, err := datastore.ReplayIntents(nil, all, *to)
		if err != nil {
			return err
		}
		e, err := log.Append(datastore.OpRollback, "", recs, *to)
		if err != nil {
			return err
		}
		fmt.Printf("rolled back to seq %d (rollback recorded as seq %d); intent set now:\n", *to, e.Seq)
		if len(recs) == 0 {
			fmt.Println("  (none)")
		}
		for _, r := range recs {
			fmt.Printf("  %s\n", r.Name)
		}
		fmt.Println("restart the daemon (same -state-dir) to reconcile the network to this set")
		return nil
	}
	usage()
	return fmt.Errorf("unknown store subcommand %q (want log, show or rollback)", sub)
}

// compactJSON renders a raw JSON payload on one line, truncated for
// listing.
func compactJSON(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	s := buf.String()
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}

// counterOf digs one counter out of a decoded /status metrics map;
// JSON numbers arrive as float64.
func counterOf(metrics map[string]any, name string) uint64 {
	if v, ok := metrics[name].(float64); ok {
		return uint64(v)
	}
	return 0
}

func countItems(scripts []nm.DeviceScript) int {
	n := 0
	for _, ds := range scripts {
		n += len(ds.Items)
	}
	return n
}

// runBench runs every row of the bench registry, keeping the best of
// each row's repetitions, and writes the results as a JSON array (CI
// gates it against BENCH_baseline.json with benchcompare).
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "", "write the JSON results to this file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var results []bench.Result
	for _, row := range bench.Rows() {
		r, err := row.Best()
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, r)
		if err := row.Check(r, results); err != nil {
			return err
		}
		results = append(results, r)
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0644)
}

func header(s string) {
	fmt.Printf("\n%s\n%s\n", s, strings.Repeat("=", len(s)))
}

func run(cmd string) error {
	switch cmd {
	case "table3":
		header("Table III — abstraction exposed by the GRE module")
		_, rendered, err := experiments.Table3()
		if err != nil {
			return err
		}
		fmt.Print(rendered)

	case "table4":
		header("Table IV — connectivity and switching of device A's modules")
		out, err := experiments.Table4()
		if err != nil {
			return err
		}
		fmt.Print(out)

	case "table5":
		header("Table V — commands and state variables: today (T) vs CONMan (C)")
		_, rendered, err := experiments.Table5()
		if err != nil {
			return err
		}
		fmt.Print(rendered)

	case "table6":
		header("Table VI — NM messages over the management channel")
		_, rendered, err := experiments.Table6([]int{3, 4, 5, 6, 7, 8})
		if err != nil {
			return err
		}
		fmt.Print(rendered)
		fmt.Println("formulas: GRE 3n+2 / 2n+2; MPLS and VLAN 3n-2 / 2n-1")

	case "fig3":
		header("Fig 3 — GRE-IP tunnel establishment message sequence")
		tb, err := experiments.BuildFig4()
		if err != nil {
			return err
		}
		// One worker keeps the trace in chronological order — Fig 3 is a
		// time-ordered sequence diagram.
		tb.NM.Workers = 1
		tb.NM.EnableMessageLog()
		goal := experiments.Fig4Goal()
		if _, _, err := experiments.ConfigureVPN(tb, goal, "GRE-IP tunnel"); err != nil {
			return err
		}
		for _, line := range tb.NM.MessageLog() {
			fmt.Println("  " + line)
		}

	case "fig5":
		header("Fig 5 — potential connectivity sub-graph for device A")
		edges, dot, err := experiments.Fig5()
		if err != nil {
			return err
		}
		for _, e := range edges {
			fmt.Println("  " + e)
		}
		fmt.Println("\nGraphviz:")
		fmt.Print(dot)

	case "paths":
		header("§III-C.1 — paths between <ETH,A,a> and <ETH,C,f>")
		res, err := experiments.Paths9()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())

	case "fig7":
		return comparison(experiments.Fig7, "Fig 7 — VPN via GRE-IP tunnel")
	case "fig8":
		return comparison(experiments.Fig8, "Fig 8 — VPN via MPLS LSP")
	case "fig9":
		return comparison(experiments.Fig9Run, "Fig 9 — VPN via VLAN tunneling")

	default:
		usage()
		return fmt.Errorf("unknown artifact %q", cmd)
	}
	return nil
}

func comparison(f func() (*experiments.ConfigComparison, error), title string) error {
	header(title)
	cmp, err := f()
	if err != nil {
		return err
	}
	fmt.Print(cmp.Render())
	return nil
}
