package nm

// Management-channel events as a consumable feed. The NM always
// received unsolicited traffic — module notifications, dependency
// triggers (§II-E), topology re-reports — but used to drop it into
// append-only slices nobody read. This file turns that traffic into
// bounded queues: a short retained tail for inspection (Notifies /
// Triggers) and live subscriber channels (Subscribe) that the
// reconciliation daemon drains. Publishing never blocks the channel
// handler; a subscriber that falls behind loses the oldest events and
// the loss is counted, which for a level-triggered consumer (the
// daemon re-reconciles from observed state, not from event payloads)
// only costs an extra reconcile pass, never correctness.

import (
	"conman/internal/core"
	"conman/internal/msg"
)

// eventRetain bounds the notify/trigger tails kept for inspection and
// is the default Subscribe buffer.
const eventRetain = 1024

// EventKind classifies an NM event.
type EventKind uint8

const (
	// EventNotify is an unsolicited module -> NM notification.
	EventNotify EventKind = iota
	// EventTrigger is a fired dependency-maintenance trigger (§II-E).
	EventTrigger
	// EventTopology is a device topology re-report that changed the
	// NM's physical view (identical re-reports are suppressed).
	EventTopology
)

func (k EventKind) String() string {
	switch k {
	case EventNotify:
		return "notify"
	case EventTrigger:
		return "trigger"
	case EventTopology:
		return "topology"
	}
	return "unknown"
}

// Event is one unsolicited management-channel occurrence.
type Event struct {
	// Seq is the NM-global publication sequence number.
	Seq uint64
	// Kind says what happened.
	Kind EventKind
	// Device is the reporting device.
	Device core.DeviceID
	// Module is the source module for notifies and triggers.
	Module core.ModuleRef
	// Component is the watched component for triggers.
	Component string
	// What is the notify kind; Detail its free-form payload.
	What   string
	Detail string
}

// Subscribe returns a live event feed and its cancel function. The
// channel is buffered (buf <= 0 selects eventRetain); events published
// while the buffer is full are dropped and counted in EventsDropped.
// Cancel unregisters the subscriber; the channel is never closed, so a
// consumer selecting on it must also select on its own done signal.
func (n *NM) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = eventRetain
	}
	ch := make(chan Event, buf)
	n.mu.Lock()
	n.subSeq++
	id := n.subSeq
	n.subs[id] = ch
	n.mu.Unlock()
	cancel := func() {
		n.mu.Lock()
		delete(n.subs, id)
		n.mu.Unlock()
	}
	return ch, cancel
}

// EventsDropped reports how many published events found a subscriber's
// buffer full (cumulative across subscribers).
func (n *NM) EventsDropped() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eventsDropped
}

// publishLocked fans an event out to every subscriber. Caller holds
// n.mu.
func (n *NM) publishLocked(ev Event) {
	n.eventSeq++
	ev.Seq = n.eventSeq
	for _, ch := range n.subs {
		select {
		case ch <- ev:
		default:
			n.eventsDropped++
		}
	}
}

// appendBounded appends to a retained-tail slice, discarding the
// oldest entries beyond eventRetain.
func appendBounded[T any](s []T, v T) []T {
	s = append(s, v)
	if len(s) > eventRetain {
		s = s[len(s)-eventRetain:]
	}
	return s
}

// topologyEqual reports whether two topology reports describe the same
// physical view.
func topologyEqual(a, b msg.Topology) bool {
	if a.Device != b.Device || len(a.Ports) != len(b.Ports) {
		return false
	}
	for i := range a.Ports {
		if a.Ports[i] != b.Ports[i] {
			return false
		}
	}
	return true
}
