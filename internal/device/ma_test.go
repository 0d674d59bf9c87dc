package device

import (
	"sync"
	"testing"

	"conman/internal/core"
	"conman/internal/msg"
)

// gatedModule is a switch-rule installer whose rule waits on a ready
// flag. during, when set, runs once inside the first attempt, after the
// attempt has read the flag: it forces the interleaving in which another
// goroutine changes state and kicks while the attempt is in flight.
type gatedModule struct {
	BaseModule
	mu       sync.Mutex
	ready    bool
	attempts int
	during   func()
	kickSelf bool // kick on every attempt
}

func (g *gatedModule) Abstraction() core.Abstraction { return core.Abstraction{Ref: g.ModRef} }
func (g *gatedModule) Actual() core.ModuleState      { return core.ModuleState{} }

func (g *gatedModule) InstallSwitchRule(*SwitchRuleInstance) error {
	g.mu.Lock()
	ready := g.ready
	g.attempts++
	during := g.during
	g.during = nil
	runaway := g.attempts > 100
	g.mu.Unlock()
	if during != nil {
		during()
	}
	if g.kickSelf {
		g.Svc.Kick()
	}
	if ready || runaway {
		return nil
	}
	return ErrPending
}

// makeReady sets the flag and kicks from another goroutine, returning
// once that Kick has returned.
func (g *gatedModule) makeReady() {
	done := make(chan struct{})
	go func() {
		g.mu.Lock()
		g.ready = true
		g.mu.Unlock()
		g.Svc.Kick()
		close(done)
	}()
	<-done
}

func gatedRig() (*MA, *gatedModule) {
	a := NewMA("X", nil, nil)
	g := &gatedModule{BaseModule: BaseModule{ModRef: core.Ref(core.NameIPv4, "X", "g"), Svc: a}}
	a.Register(g)
	for _, id := range []core.PipeID{"P1", "P2"} {
		a.RegisterPhysicalPipe(&Pipe{ID: id})
	}
	return a, g
}

func gatedRule(g *gatedModule) msg.CreateSwitchReq {
	return msg.CreateSwitchReq{Rule: core.SwitchRule{Module: g.ModRef, From: "P1", To: "P2"}}
}

// TestKickDuringRetryPassIsNotLost pins the retryPending lost wakeup: a
// Kick that lands while a pass holds the pending list must still get the
// rule retried once the state it announces is visible.
func TestKickDuringRetryPassIsNotLost(t *testing.T) {
	a, g := gatedRig()
	if _, pending, err := a.createSwitch(gatedRule(g)); err != nil || !pending {
		t.Fatalf("createSwitch: pending=%v err=%v, want a pending rule", pending, err)
	}
	g.during = g.makeReady
	a.Kick()
	if n := a.PendingRules(); n != 0 {
		t.Fatalf("%d rule(s) still pending after a kick landed mid-pass (%d attempts)", n, g.attempts)
	}
}

// TestKickDuringCreateSwitchIsNotLost covers the same window in
// createSwitch: a Kick landing after the first install attempt began,
// before the rule joined the pending list, finds nothing to retry. The
// request handler kicks after every batch item, so the rule still
// installs.
func TestKickDuringCreateSwitchIsNotLost(t *testing.T) {
	a, g := gatedRig()
	g.during = g.makeReady
	rule := gatedRule(g)
	a.handle(msg.MustNew(msg.TypeCommandBatchReq, msg.NMName, "X", 1,
		msg.CommandBatchReq{Items: []msg.CommandItem{{Switch: &rule}}}))
	if n := a.PendingRules(); n != 0 {
		t.Fatalf("%d rule(s) still pending after a kick landed mid-install (%d attempts)", n, g.attempts)
	}
}

// TestSelfKickingPendingRuleTerminates shows the rerun rule cannot
// livelock: an install that kicks on every attempt and stays pending
// gets one extra pass per Kick, not an endless loop.
func TestSelfKickingPendingRuleTerminates(t *testing.T) {
	a, g := gatedRig()
	g.kickSelf = true
	if _, pending, err := a.createSwitch(gatedRule(g)); err != nil || !pending {
		t.Fatalf("createSwitch: pending=%v err=%v, want a pending rule", pending, err)
	}
	created := g.attempts
	a.Kick()
	if n := a.PendingRules(); n != 1 {
		t.Fatalf("%d rules pending, want the self-kicking rule still pending", n)
	}
	if per := g.attempts - created; per > 2 {
		t.Fatalf("one Kick made %d attempts, want at most 2 (the pass and one kicked rerun)", per)
	}
}
