package nm

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"conman/internal/core"
	"conman/internal/msg"
)

// Intent is a declarative connectivity goal: the NM holds it as desired
// state and can (re)derive device configuration from it at any time —
// the paper's model of a manager that keeps high-level goals and
// re-invokes configuration after failures (§II, §IV). An Intent is
// side-effect free; Plan computes what would change and Apply reconciles
// the network toward it.
type Intent struct {
	// Name identifies the intent in plan renderings.
	Name string
	// Goal is the high-level connectivity goal (§III-C).
	Goal Goal
	// Prefer pins a path flavour by its Describe() string ("GRE-IP
	// tunnel", "MPLS", "VLAN tunnel"); empty selects the paper's path
	// selector (minimise pipes, prefer fast forwarding).
	Prefer string
}

// Plan is the diff between an intent's desired configuration and the
// device state the NM observed via showActual: per-device delete batches
// for stale components and create batches for missing ones. A Plan is
// inert until Apply executes it, so it doubles as the dry-run rendering.
type Plan struct {
	Intent Intent
	// Path is the chosen module-level path (nil for destroy plans the
	// intent could no longer resolve).
	Path *Path
	// Deletes are per-device batches removing stale components (switch
	// rules first, then pipes). Executed before Creates.
	Deletes []DeviceScript
	// Creates are per-device batches creating missing components, in
	// compiler order.
	Creates []DeviceScript
	// InPlace counts desired components that were already configured and
	// therefore appear in neither batch.
	InPlace int
	// Unreachable lists stranded devices (previously touched, off the
	// current path) that could not be observed — killed or partitioned.
	// Their stale state cannot be pruned this pass; the NM remembers
	// them and retries when they answer again.
	Unreachable []core.DeviceID

	// touched is the device set of the intent's current path; a
	// successful Apply records it so later Plans prune devices the path
	// migrated away from. Destroy plans clear the record instead.
	touched []core.DeviceID
	destroy bool
	// pruned lists stranded devices that were observed (and cleaned)
	// this pass; Apply clears their stale mark.
	pruned []core.DeviceID
	// handleDeps are the (provider, component) pairs desired rules embed
	// resolved handles from; Apply installs triggers for them (§II-E).
	handleDeps []handleDep
}

// Empty reports whether applying the plan would send no commands.
func (p *Plan) Empty() bool { return len(p.Deletes) == 0 && len(p.Creates) == 0 }

// Render prints the plan in the dry-run style of declarative tooling:
// every command that Apply would send, per device, plus a summary line.
func (p *Plan) Render() string {
	var b strings.Builder
	title := p.Intent.Name
	if title == "" {
		title = "(unnamed)"
	}
	fmt.Fprintf(&b, "plan for intent %q", title)
	if p.Path != nil {
		fmt.Fprintf(&b, " — path %s: %s", p.Path.Describe(), p.Path.Modules())
	}
	b.WriteString("\n")
	for _, ds := range p.Deletes {
		for _, line := range ds.Rendered {
			fmt.Fprintf(&b, "  %s: %s\n", ds.Device, line)
		}
	}
	for _, ds := range p.Creates {
		for _, line := range ds.Rendered {
			fmt.Fprintf(&b, "  %s: %s\n", ds.Device, line)
		}
	}
	creates, deletes := 0, 0
	for _, ds := range p.Creates {
		creates += len(ds.Items)
	}
	for _, ds := range p.Deletes {
		deletes += len(ds.Items)
	}
	if p.Empty() {
		fmt.Fprintf(&b, "  no changes (%d components in place)\n", p.InPlace)
	} else {
		fmt.Fprintf(&b, "  %d to create, %d to delete, %d in place\n", creates, deletes, p.InPlace)
	}
	return b.String()
}

// graph returns the potential-connectivity graph for the NM's current
// compile generation, rebuilding only when discovery, topology or
// domain knowledge moved since the last build. Cache misses rebuild
// outside n.mu (BuildGraph takes it internally); a generation that
// moved mid-build simply leaves the cache unset for the next caller.
func (n *NM) graph() (*Graph, error) {
	n.mu.Lock()
	gen := n.compileGen
	if g := n.graphCache; g != nil && n.graphGen == gen {
		n.mu.Unlock()
		return g, nil
	}
	n.mu.Unlock()
	g, err := BuildGraph(n)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.compileGen == gen {
		n.graphCache, n.graphGen = g, gen
	}
	n.mu.Unlock()
	return g, nil
}

// compileIntent resolves an intent to its chosen path and the full
// desired per-device scripts (what a from-scratch configuration would
// execute).
func (n *NM) compileIntent(intent Intent) (*Path, []DeviceScript, error) {
	g, err := n.graph()
	if err != nil {
		return nil, nil, err
	}
	chosen, stats, err := g.FindBest(FindSpec{
		From:          intent.Goal.From,
		To:            intent.Goal.To,
		TrafficDomain: intent.Goal.TrafficDomain,
		FromPipe:      intent.Goal.FromPipe,
		ToPipe:        intent.Goal.ToPipe,
		Prefer:        intent.Prefer,
	})
	if err != nil {
		return nil, nil, err
	}
	if chosen == nil {
		if stats.PreferUnknown {
			return nil, nil, fmt.Errorf("nm: intent %q: no %q path found — %q is not a path flavour the finder recognises (want a Describe() string such as \"GRE-IP tunnel\", \"MPLS\" or \"VLAN tunnel\"), so the search ran undirected", intent.Name, intent.Prefer, intent.Prefer)
		}
		if intent.Prefer != "" {
			return nil, nil, fmt.Errorf("nm: intent %q: no %q path found", intent.Name, intent.Prefer)
		}
		return nil, nil, fmt.Errorf("nm: intent %q: no path satisfies the goal", intent.Name)
	}
	scripts, err := n.Compile(chosen, intent.Goal)
	if err != nil {
		return nil, nil, err
	}
	return chosen, scripts, nil
}

// observed is the NM's per-device view of configured components, built
// from showActual.
type observed struct {
	// pipes maps a pipe id to the (upper, lower) modules it connects
	// and their remote peers. Physical pipes are excluded: the NM
	// cannot create or delete them.
	pipes map[core.PipeID]obsPipe
	// rules lists installed switch rules across the device's modules.
	rules []obsRule

	// The remaining fields are the store's binding bookkeeping, lazily
	// built by ensureIndex (storestate.go); a bare observed as observe()
	// or a test constructs it carries none of them.

	// usedIDs tracks every wire id ever observed on or allocated for the
	// device, so deleted ids are not reused while the entry is cached;
	// nextID is allocPipeID's cursor.
	usedIDs map[core.PipeID]bool
	nextID  int
	// ruleByID indexes rules by installed id; tombstoned rules (id=="")
	// are unindexed.
	ruleByID map[string]int
}

type obsPipe struct {
	upper, lower         core.ModuleRef
	upperPeer, lowerPeer core.ModuleRef
	// upperSeen reports whether the upper module reported the pipe (so
	// upperPeer is meaningful; switch ETH modules do not track pipes
	// they sit above).
	upperSeen bool
}

type obsRule struct {
	id       string
	module   core.ModuleRef
	from, to core.PipeID
	match    string
	via      string
	// matchResolved/viaResolved are the concrete values the rule was
	// installed with; a rule whose fresh resolution differs has drifted
	// and must be replaced even though its abstract form still matches.
	matchResolved string
	viaResolved   string
	// handle is the low-level handle the rule embeds from the module
	// below its To pipe (core.CanonicalHandle form), as the installing
	// module reported it; stale handles force replacement (§II-E).
	handle string
}

func classifierKey(c *core.Classifier) string {
	if c == nil {
		return ""
	}
	return c.Kind + "=" + c.Value
}

// observe fetches showActual for every device and condenses it into the
// diffable view. Devices are queried on the NM's worker pool. Devices in
// the optional set (stranded: previously touched, off every current
// path) may fail to answer — a killed device must not wedge
// reconciliation of the survivors — and are returned as unreachable
// with no entry in the map.
func (n *NM) observe(devs []core.DeviceID, optional map[core.DeviceID]bool) (map[core.DeviceID]*observed, []core.DeviceID, error) {
	out := make([]*observed, len(devs))
	unreach := make([]bool, len(devs))
	err := n.forEach(len(devs), func(i int) error {
		states, err := n.ShowActual(devs[i])
		if err != nil {
			if optional[devs[i]] {
				unreach[i] = true
				return nil
			}
			return err
		}
		o := &observed{pipes: make(map[core.PipeID]obsPipe)}
		for _, st := range states {
			for _, ps := range st.Pipes {
				// The module below a pipe reports it as an up pipe (Other
				// = the module above, Peer = its own remote peer); the
				// module above reports the same pipe as a down pipe
				// carrying the upper-side peer. Physical pipes are not
				// diffable.
				switch ps.End {
				case core.EndUp:
					op := o.pipes[ps.ID]
					op.upper, op.lower, op.lowerPeer = ps.Other, st.Ref, ps.Peer
					o.pipes[ps.ID] = op
				case core.EndDown:
					op := o.pipes[ps.ID]
					op.upperPeer, op.upperSeen = ps.Peer, true
					o.pipes[ps.ID] = op
				}
			}
			for _, r := range st.SwitchRules {
				o.rules = append(o.rules, obsRule{
					id: r.ID, module: st.Ref,
					from: r.From, to: r.To,
					match: classifierKey(r.Match), via: r.Via,
					matchResolved: r.MatchResolved, viaResolved: r.ViaResolved,
					handle: r.HandleResolved,
				})
			}
		}
		out[i] = o
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m := make(map[core.DeviceID]*observed, len(devs))
	var unreachable []core.DeviceID
	for i, d := range devs {
		if unreach[i] {
			unreachable = append(unreachable, d)
			continue
		}
		m[d] = out[i]
	}
	sort.Slice(unreachable, func(i, j int) bool { return unreachable[i] < unreachable[j] })
	return m, unreachable, nil
}

// optionalSet builds the observe() optional set from a stranded list.
func optionalSet(stranded []core.DeviceID) map[core.DeviceID]bool {
	if len(stranded) == 0 {
		return nil
	}
	set := make(map[core.DeviceID]bool, len(stranded))
	for _, d := range stranded {
		set[d] = true
	}
	return set
}

func scriptDevices(scripts []DeviceScript) []core.DeviceID {
	out := make([]core.DeviceID, len(scripts))
	for i := range scripts {
		out[i] = scripts[i].Device
	}
	return out
}

// recordIntent updates the NM's memory of which devices an applied
// plan's intent occupies.
func (n *NM) recordIntent(plan *Plan) {
	if plan.Intent.Name == "" {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if plan.destroy {
		delete(n.intentDevs, plan.Intent.Name)
		return
	}
	set := make(map[core.DeviceID]bool, len(plan.touched))
	for _, d := range plan.touched {
		set[d] = true
	}
	n.intentDevs[plan.Intent.Name] = set
}

// pruneAll builds a delete batch removing every observed switch rule
// and NM-created pipe of one device (used for devices an intent's path
// migrated away from).
func pruneAll(dev core.DeviceID, o *observed) DeviceScript {
	del := DeviceScript{Device: dev}
	for j := range o.rules {
		or := &o.rules[j]
		di, rendered := deleteItem(core.DeleteRequest{
			Kind: core.ComponentSwitchRule, Module: or.module, ID: or.id,
		})
		del.Items = append(del.Items, di)
		del.Rendered = append(del.Rendered, rendered)
	}
	ids := make([]core.PipeID, 0, len(o.pipes))
	for id, op := range o.pipes {
		if op.lower.IsZero() {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		di, rendered := deleteItem(core.DeleteRequest{
			Kind: core.ComponentPipe, Module: o.pipes[id].lower, ID: string(id),
		})
		del.Items = append(del.Items, di)
		del.Rendered = append(del.Rendered, rendered)
	}
	return del
}

// deleteItem builds one delete command plus its rendering.
func deleteItem(req core.DeleteRequest) (msg.CommandItem, string) {
	return msg.CommandItem{Delete: &msg.DeleteReq{Req: req}},
		fmt.Sprintf("delete (%s, %s, %s)", req.Kind, req.Module, req.ID)
}

// Plan computes the reconciliation diff for an intent: a one-intent
// projection of the store's reconcile. The intent is compiled and merged
// into a throwaway store state that holds only it, every device on the
// chosen path is observed fresh — plus any device a previous Apply of
// this intent touched that the path has since migrated away from — and
// the store's per-device diff yields batches that create what is
// missing and delete what is stale. Planning sends no configuration
// commands; Apply(plan) twice in a row therefore sends zero commands on
// the second pass.
func (n *NM) Plan(intent Intent) (*Plan, error) {
	path, scripts, err := n.compileIntent(intent)
	if err != nil {
		return nil, err
	}
	_, sp, err := n.projectIntent(intent, path, scripts)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Intent: intent, Path: path, Deletes: sp.Deletes, Creates: sp.Creates,
		InPlace: sp.InPlace, Unreachable: sp.Unreachable,
		touched: scriptDevices(scripts), pruned: sp.pruned, handleDeps: sp.handleDeps,
	}, nil
}

// projectIntent runs the store planner on a throwaway state holding only
// the intent. Its stranded candidates are the devices a previous Apply
// of the intent recorded.
func (n *NM) projectIntent(intent Intent, path *Path, scripts []DeviceScript) (*storeState, *StorePlan, error) {
	ss := newStoreState()
	if err := ss.mergeIntent(intent, path, scripts); err != nil {
		return nil, nil, err
	}
	n.mu.Lock()
	var recorded []core.DeviceID
	for dev := range n.intentDevs[intent.Name] {
		recorded = append(recorded, dev)
	}
	n.mu.Unlock()
	sp := &StorePlan{}
	if err := n.diffPass(ss, sp, nil, recorded); err != nil {
		return nil, nil, err
	}
	return ss, sp, nil
}

// PlanDestroy computes the teardown plan for an intent as "bind, then
// withdraw" in the intent's projection: the full rematch binds the
// intent's components to what is installed, the deletions of observed
// state it did not claim are dropped (it belongs to someone else), and
// withdrawing the intent queues the deletion of exactly its bound
// components — switch rules before pipes, each in reverse creation
// order. Stranded devices are pruned as
// in Plan. Planning sends no configuration commands.
func (n *NM) PlanDestroy(intent Intent) (*Plan, error) {
	path, scripts, err := n.compileIntent(intent)
	if err != nil {
		return nil, err
	}
	ss, bound, err := n.projectIntent(intent, path, scripts)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Intent: intent, Path: path, destroy: true, Unreachable: bound.Unreachable, pruned: bound.pruned}
	pruned := make(map[core.DeviceID]bool, len(bound.pruned))
	for _, dev := range bound.pruned {
		pruned[dev] = true
	}
	for _, ds := range bound.Deletes {
		if pruned[ds.Device] {
			plan.Deletes = append(plan.Deletes, ds)
		}
	}
	for _, du := range ss.unions {
		du.pendingDelRules, du.pendingDelPipes = nil, nil
	}
	ss.removeContribs(intent.Name)
	withdrawn := &StorePlan{}
	for _, dev := range ss.order {
		du := ss.unions[dev]
		// Reverse creation order, as a teardown undoes a build.
		slices.Reverse(du.pendingDelRules)
		slices.Reverse(du.pendingDelPipes)
		if ce := ss.cache[dev]; ce != nil {
			du.deltaDiff(n, ce.o, withdrawn)
		}
	}
	plan.Deletes = append(plan.Deletes, withdrawn.Deletes...)
	return plan, nil
}

// Apply reconciles the network toward the plan's intent: stale
// components are deleted first, then missing ones created, through the
// same executor as ApplyStore. Applying an empty plan sends nothing;
// applying the same intent's fresh Plan right after a successful Apply
// is therefore a no-op.
func (n *NM) Apply(plan *Plan) error {
	// The per-intent path writes device state behind the store's
	// observation cache, so every touched device's generation is bumped
	// and the next store pass observes it fresh.
	touched := scriptDeviceSet(plan.Deletes)
	for dev := range scriptDeviceSet(plan.Creates) {
		touched[dev] = true
	}
	defer n.invalidateDevices(touched)
	if err := n.execute(fmt.Sprintf("apply %q", plan.Intent.Name), plan.Deletes, plan.Creates,
		plan.handleDeps, plan.pruned, plan.Unreachable, nil, nil); err != nil {
		return err
	}
	n.recordIntent(plan)
	return nil
}

// execute is the one executor behind Apply and ApplyStore: deletes, then
// creates, then a dependency-maintenance trigger on every provider
// component a desired rule embeds handles from (§II-E), then the
// stale-device bookkeeping. A failed phase invalidates its devices'
// observations. deleted and created, when set, run after their phase
// succeeds (the store writes through its observation cache there).
func (n *NM) execute(op string, deletes, creates []DeviceScript, deps []handleDep, pruned, unreachable []core.DeviceID,
	deleted func(), created func([]msg.CommandBatchResp)) error {
	if len(deletes) > 0 {
		if _, err := n.executeCollect(deletes); err != nil {
			n.invalidateDevices(scriptDeviceSet(deletes))
			return fmt.Errorf("nm: %s (teardown phase): %w", op, err)
		}
		if deleted != nil {
			deleted()
		}
	}
	if len(creates) > 0 {
		resps, err := n.executeCollect(creates)
		if err != nil {
			n.invalidateDevices(scriptDeviceSet(creates))
			return fmt.Errorf("nm: %s: %w", op, err)
		}
		if created != nil {
			created(resps)
		}
	}
	if err := n.installHandleTriggers(deps); err != nil {
		return fmt.Errorf("nm: %s (triggers): %w", op, err)
	}
	n.markStale(pruned, unreachable)
	return nil
}

// Destroy tears an intent's configuration back down: it plans the
// teardown against observed state and applies it, returning the plan
// that was executed.
func (n *NM) Destroy(intent Intent) (*Plan, error) {
	plan, err := n.PlanDestroy(intent)
	if err != nil {
		return nil, err
	}
	if err := n.Apply(plan); err != nil {
		return plan, err
	}
	return plan, nil
}
