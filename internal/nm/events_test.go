package nm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/msg"
)

// eventNM wires a bare NM to a hub with one device endpoint the test
// uses to inject unsolicited traffic.
func eventNM(t *testing.T) (*NM, channel.Endpoint) {
	t.Helper()
	hub := channel.NewHub()
	n := New()
	n.AttachChannel(hub.Endpoint(msg.NMName))
	return n, hub.Endpoint("dev")
}

func sendNotify(t *testing.T, ep channel.Endpoint, detail string) {
	t.Helper()
	env := msg.MustNew(msg.TypeNotify, "dev", msg.NMName, 0, msg.Notify{
		Module: core.Ref(core.NameIPv4, "dev", "g"), Kind: "test", Detail: detail,
	})
	if err := ep.Send(env); err != nil {
		t.Fatal(err)
	}
}

func sendTrigger(t *testing.T, ep channel.Endpoint, component string) {
	t.Helper()
	env := msg.MustNew(msg.TypeTrigger, "dev", msg.NMName, 0, msg.Trigger{
		Module: core.Ref(core.NameMPLS, "dev", "o"), Component: component,
	})
	if err := ep.Send(env); err != nil {
		t.Fatal(err)
	}
}

func sendTopology(t *testing.T, ep channel.Endpoint, attached bool) {
	t.Helper()
	env := msg.MustNew(msg.TypeTopology, "dev", msg.NMName, 0, msg.Topology{
		Device: "dev",
		Ports:  []msg.PortReport{{Name: "eth0", Attached: attached, PeerDevice: "peer", PeerPort: "eth1"}},
	})
	if err := ep.Send(env); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeDeliversKinds pins the event feed: notifies, triggers
// and *changed* topology re-reports each surface as one typed event.
func TestSubscribeDeliversKinds(t *testing.T) {
	n, dev := eventNM(t)
	events, cancel := n.Subscribe(16)
	defer cancel()

	sendTopology(t, dev, true) // first report: baseline, no event
	sendNotify(t, dev, "hello")
	sendTrigger(t, dev, "pipe:P0")
	sendTopology(t, dev, true)  // identical: suppressed
	sendTopology(t, dev, false) // changed: one event

	want := []EventKind{EventNotify, EventTrigger, EventTopology}
	for i, k := range want {
		select {
		case ev := <-events:
			if ev.Kind != k {
				t.Fatalf("event %d: kind %s, want %s", i, ev.Kind, k)
			}
			if ev.Device != "dev" {
				t.Fatalf("event %d: device %s, want dev", i, ev.Device)
			}
			if ev.Seq == 0 {
				t.Fatalf("event %d: zero sequence number", i)
			}
		case <-time.After(time.Second):
			t.Fatalf("event %d (%s) never arrived", i, k)
		}
	}
	select {
	case ev := <-events:
		t.Fatalf("unexpected extra event: %+v (identical topology re-report must be suppressed)", ev)
	default:
	}
}

// TestSubscribeDropsWhenFull pins the non-blocking publish contract: a
// full subscriber buffer drops events and counts them, and the channel
// handler never blocks.
func TestSubscribeDropsWhenFull(t *testing.T) {
	n, dev := eventNM(t)
	events, cancel := n.Subscribe(1)
	defer cancel()

	for i := 0; i < 4; i++ {
		sendNotify(t, dev, fmt.Sprintf("burst-%d", i))
	}
	if got := len(events); got != 1 {
		t.Errorf("buffered events = %d, want 1 (buffer size)", got)
	}
	if got := n.EventsDropped(); got != 3 {
		t.Errorf("EventsDropped = %d, want 3", got)
	}
	// The retained tail is unaffected by subscriber overflow.
	if got := len(n.Notifies()); got != 4 {
		t.Errorf("Notifies tail = %d, want 4", got)
	}
}

// TestEventTailsBounded pins the fix for the unbounded NM.notifies /
// NM.triggers growth: the retained tails cap at eventRetain and keep
// the newest entries.
func TestEventTailsBounded(t *testing.T) {
	n, dev := eventNM(t)
	total := eventRetain + 57
	for i := 0; i < total; i++ {
		sendNotify(t, dev, fmt.Sprintf("n-%d", i))
	}
	notes := n.Notifies()
	if len(notes) != eventRetain {
		t.Fatalf("Notifies tail = %d, want %d", len(notes), eventRetain)
	}
	if got, want := notes[len(notes)-1].Detail, fmt.Sprintf("n-%d", total-1); got != want {
		t.Errorf("newest notify = %q, want %q", got, want)
	}
	if got, want := notes[0].Detail, fmt.Sprintf("n-%d", total-eventRetain); got != want {
		t.Errorf("oldest kept notify = %q, want %q", got, want)
	}
}

// TestSubscribeConcurrentWithTriggers races subscriber churn against
// trigger dispatch, the one way trigger consumers receive triggers.
// Under -race this pins that the subscriber set may change
// mid-dispatch, and a subscriber that stays registered throughout still
// receives every trigger, in order.
func TestSubscribeConcurrentWithTriggers(t *testing.T) {
	n, dev := eventNM(t)
	const sent = 500
	events, cancel := n.Subscribe(sent)
	defer cancel()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, churn := n.Subscribe(1)
			churn()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < sent; i++ {
			sendTrigger(t, dev, fmt.Sprintf("pipe:P%d", i))
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	for i := 0; i < sent; i++ {
		select {
		case ev := <-events:
			if want := fmt.Sprintf("pipe:P%d", i); ev.Kind != EventTrigger || ev.Component != want {
				t.Fatalf("event %d = %v %q, want trigger %q", i, ev.Kind, ev.Component, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("received %d of %d triggers", i, sent)
		}
	}
	if got := len(n.Triggers()); got != sent {
		t.Errorf("trigger tail = %d, want %d", got, sent)
	}
}

// TestTopologyEqual pins the suppression predicate.
func TestTopologyEqual(t *testing.T) {
	a := msg.Topology{Device: "d", Ports: []msg.PortReport{{Name: "eth0", Attached: true}}}
	b := msg.Topology{Device: "d", Ports: []msg.PortReport{{Name: "eth0", Attached: true}}}
	if !topologyEqual(a, b) {
		t.Error("identical topologies compare unequal")
	}
	b.Ports[0].Attached = false
	if topologyEqual(a, b) {
		t.Error("changed attachment compares equal")
	}
	b = msg.Topology{Device: "d"}
	if topologyEqual(a, b) {
		t.Error("different port counts compare equal")
	}
}
