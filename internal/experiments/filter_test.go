package experiments

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"conman/internal/core"
	"conman/internal/modules"
	"conman/internal/msg"
	"conman/internal/nm"
)

// TestFilterResolutionAndDependencyMaintenance reproduces §II-E: the NM
// installs "drop packets from module X going to <FOO,C,z>" on an IP
// module; the module resolves the abstract endpoints to addresses and a
// port via listFieldsAndValues; when the application moves to another
// port, the installed trigger fires and the NM re-resolves the filter —
// the classic "application was started on some other port" failure mode
// handled automatically.
func TestFilterResolutionAndDependencyMaintenance(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	// Configure the GRE VPN so sites can exchange UDP.
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "GRE-IP tunnel"); err != nil {
		t.Fatal(err)
	}

	// A "FOO" application module on device C at port 592 (the paper's
	// example values), reachable at C's customer-side address.
	appAddr := ip("192.168.1.2")
	foo := modules.NewApp(tb.Devices["C"].MA, "FOO", "z", appAddr, 592)
	tb.Devices["C"].AddModule(foo)

	// Sanity: before any filter, datagrams reach the app. (D's kernel
	// originates them; the path is direct IP routing to C.)
	if err := tb.Customer["E"].SendUDP(ip("192.168.1.1"), appAddr, 4000, 592, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := foo.Received(); len(got) != 1 || string(got[0]) != "hello" {
		t.Fatalf("app received %v", got)
	}

	// The NM asks the inspecting IP module on C to drop traffic to the
	// app — in abstract terms only.
	target := foo.Ref()
	rule := core.FilterRule{
		Module:   core.Ref(core.NameIPv4, "C", "k"),
		ToModule: &target,
		Action:   core.ActionDrop,
	}
	ruleID, err := tb.NM.CreateFilter(rule)
	if err != nil {
		t.Fatal(err)
	}
	if ruleID == "" {
		t.Fatal("no rule id")
	}
	// The module resolved the app's concrete fields itself.
	states, err := tb.NM.ShowActual("C")
	if err != nil {
		t.Fatal(err)
	}
	var resolved map[string]string
	for _, st := range states {
		for _, f := range st.Filters {
			if f.ID == ruleID {
				resolved = f.ResolvedFields
			}
		}
	}
	if resolved["dst"] != appAddr.String() || resolved["dst-port"] != "592" {
		t.Fatalf("resolved fields = %v", resolved)
	}

	// Blocked now.
	if err := tb.Customer["E"].SendUDP(ip("192.168.1.1"), appAddr, 4000, 592, []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	if got := foo.Received(); len(got) != 1 {
		t.Fatalf("filter did not block: %d datagrams", len(got))
	}

	// Dependency maintenance: watch the app, re-resolve on change.
	if _, err := tb.NM.InstallTrigger(foo.Ref(), "self"); err != nil {
		t.Fatal(err)
	}
	events, cancel := tb.NM.Subscribe(0)
	defer cancel()

	// The application moves to port 593 — without maintenance the old
	// filter would now miss it.
	foo.SetPort(593)
	awaitTrigger(t, events, foo.Ref(), "self")
	// The NM's dependency tracker re-resolves the dependent filter.
	k, _ := tb.Devices["C"].MA.LocalModule("k")
	if err := k.(*modules.IP).ReResolveFilter(ruleID); err != nil {
		t.Fatal(err)
	}
	if err := tb.Customer["E"].SendUDP(ip("192.168.1.1"), appAddr, 4000, 593, []byte("after-move")); err != nil {
		t.Fatal(err)
	}
	if got := foo.Received(); len(got) != 1 {
		t.Fatalf("re-resolved filter did not block the new port: %d datagrams", len(got))
	}

	// Deleting the filter restores delivery.
	if err := tb.NM.Delete(core.DeleteRequest{
		Kind: core.ComponentFilterRule, Module: rule.Module, ID: ruleID,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Customer["E"].SendUDP(ip("192.168.1.1"), appAddr, 4000, 593, []byte("open-again")); err != nil {
		t.Fatal(err)
	}
	if got := foo.Received(); len(got) != 2 || string(got[1]) != "open-again" {
		t.Fatalf("after delete: %v", got)
	}
}

// awaitTrigger drains an NM event feed until the trigger watching
// module's component arrives.
func awaitTrigger(t *testing.T, events <-chan nm.Event, module core.ModuleRef, component string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Kind == nm.EventTrigger && ev.Module == module && ev.Component == component {
				return
			}
		case <-timeout:
			t.Fatalf("no trigger for %s/%s", module, component)
		}
	}
}

// TestSelfTestPrimitive exercises §II-D.2 through the NM.
func TestSelfTestPrimitive(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "GRE-IP tunnel"); err != nil {
		t.Fatal(err)
	}
	greA := core.Ref(core.NameGRE, "A", "l")
	ok, detail, err := tb.NM.SelfTest(greA, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("self-test failed: %s", detail)
	}
	// Cut the core link: the self-test must localise the fault.
	if err := tb.Net.SetMediumUp("BC", false); err != nil {
		t.Fatal(err)
	}
	ok, _, err = tb.NM.SelfTest(greA, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("self-test passed across a cut wire")
	}
}

// TestShowActualExposesNegotiatedState verifies operators can see the
// low-level values the modules derived (keys, endpoints) without the NM
// needing them.
func TestShowActualExposesNegotiatedState(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "GRE-IP tunnel"); err != nil {
		t.Fatal(err)
	}
	states, err := tb.NM.ShowActual("A")
	if err != nil {
		t.Fatal(err)
	}
	var greState *core.ModuleState
	for i, st := range states {
		if st.Ref.Name == core.NameGRE {
			greState = &states[i]
		}
	}
	if greState == nil {
		t.Fatal("no GRE state")
	}
	found := false
	for _, k := range greState.SortedLowLevel() {
		v := greState.LowLevel[k]
		if len(k) > 7 && k[:7] == "tunnel:" {
			found = true
			for _, want := range []string{"local=204.9.168.1", "remote=204.9.169.1", "ikey=1001", "okey=2001"} {
				if !containsStr(v, want) {
					t.Errorf("tunnel state missing %q: %s", want, v)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no tunnel low-level state: %v", greState.LowLevel)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPipeDeletion verifies delete() tears down a tunnel.
func TestPipeDeletion(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "GRE-IP tunnel"); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(100); err != nil {
		t.Fatal(err)
	}
	// Delete the GRE up-pipe on A: the module removes its tunnel.
	if err := tb.NM.Delete(core.DeleteRequest{
		Kind:   core.ComponentPipe,
		Module: core.Ref(core.NameGRE, "A", "l"),
		ID:     "P1",
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Devices["A"].Kernel.Tunnel("gre-P1-P2"); ok {
		t.Fatal("tunnel survived pipe deletion")
	}
	// Traffic no longer flows.
	before := len(tb.Customer["E"].ProbeEchoes())
	if err := tb.Customer["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 101); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.Customer["E"].ProbeEchoes()); got != before {
		t.Fatal("traffic still flows after pipe deletion")
	}
}

func TestFloodChannelRunsWholeVPN(t *testing.T) {
	// The self-bootstrapping channel can carry the entire configuration:
	// rebuild Fig 4 but attach everything through flood nodes.
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	// Re-attach: NM on device A's flood node, MAs on their own.
	tb.NM.AttachChannel(tb.Devices["A"].FloodNode().Endpoint(msg.NMName))
	for _, id := range []core.DeviceID{"A", "B", "C"} {
		dev := tb.Devices[id]
		dev.MA.AttachChannel(dev.FloodNode().Endpoint(string(id)))
		if err := dev.MA.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.NM.DiscoverAll(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "MPLS"); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(777); err != nil {
		t.Fatal(err)
	}
}

var _ = netip.Addr{}

// TestDeleteAndCreateFilterRideCommandBatches pins the one wire form for
// configuration: NM.CreateFilter and NM.Delete each send a one-item
// command batch, so each shows in the Table VI counters and the message
// log like any executor batch, and a failing item surfaces the device's
// own error.
func TestDeleteAndCreateFilterRideCommandBatches(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	tb.NM.ResetCounters()
	tb.NM.EnableMessageLog()
	ipC := core.Ref(core.NameIPv4, "C", "k")

	ruleID, err := tb.NM.CreateFilter(core.FilterRule{Module: ipC, Action: core.ActionDrop})
	if err != nil {
		t.Fatal(err)
	}
	if c := tb.NM.Counters(); c.CmdSent != 1 || c.AckRecv != 1 {
		t.Fatalf("after CreateFilter: CmdSent=%d AckRecv=%d, want 1 and 1", c.CmdSent, c.AckRecv)
	}
	if err := tb.NM.Delete(core.DeleteRequest{Kind: core.ComponentFilterRule, Module: ipC, ID: ruleID}); err != nil {
		t.Fatal(err)
	}
	if c := tb.NM.Counters(); c.CmdSent != 2 || c.AckRecv != 2 {
		t.Fatalf("after Delete: CmdSent=%d AckRecv=%d, want 2 and 2", c.CmdSent, c.AckRecv)
	}
	var batches []string
	for _, line := range tb.NM.MessageLog() {
		if strings.HasPrefix(line, "[cmd:") {
			batches = append(batches, line)
		}
	}
	want := []string{"[cmd:C #1] command batch -> C (1 items)", "[cmd:C #2] command batch -> C (1 items)"}
	if !reflect.DeepEqual(batches, want) {
		t.Fatalf("command log = %q, want %q", batches, want)
	}

	err = tb.NM.Delete(core.DeleteRequest{Kind: core.ComponentPipe, Module: ipC, ID: "P99"})
	if err == nil || !strings.Contains(err.Error(), "device[C]: no pipe P99") {
		t.Fatalf("deleting an unknown pipe: err = %v, want the device's item error", err)
	}
}
