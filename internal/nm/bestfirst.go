package nm

// The path-search core (§III-C.1: the NM "determines the sequence of
// modules" for a goal). One set of hop rules — the search methods below:
// the depth and cycle check, the header effects with the Fig 6 pruning
// rules, the clean-stack acceptance test and the peer-group replay —
// serves two drivers. FindPaths (pathfinder.go) walks them depth-first
// and materialises every protocol-sane variant; on long L2 chains that
// space is exponential and the DefaultMaxPaths cap truncates it. FindBest
// keeps a priority queue of partial paths ordered by the paper's
// selection metric — pipes instantiated, then forwarding speed, then hop
// count — and a dominance table keyed on (module, entry, open peer-group
// stack, flavour) so only promising prefixes expand. The best path pops
// first, without the variant space ever being built; the number of
// expanded states is linear in path length on the chains where
// enumeration explodes.

import (
	"container/heap"
	"fmt"
	"strings"

	"conman/internal/core"
)

// bfMaxExpand is the runaway safety valve on queue expansions. The
// dominance table bounds the reachable state space far below this on
// every real topology; hitting the valve is reported as an error.
const bfMaxExpand = 1 << 20

// DefaultMaxStack bounds how many protocol headers a best-first partial
// path may hold open: comfortably above the paper's deepest stack
// (GRE-over-MPLS opens five). An L2 chain admits unbounded re-tagging
// (push a fresh VLAN header at every switch); those never-selectable
// deep variants are what would make the best-first state space
// quadratic instead of linear. The enumerator is left unbounded for
// parity with the paper's Fig 6 pruning rules.
const DefaultMaxStack = 8

// bfStack is one open protocol header on a partial path's stack, as an
// immutable linked list shared between the partial paths that diverge
// above it (top points down). Nodes are immutable, so the dominance-key
// signature is rendered once, on the first best-first frontier
// insertion that reads it; the enumerator never renders it.
type bfStack struct {
	below     *bfStack
	protocol  core.ModuleName
	domain    string
	external  bool
	depth     int    // headers open including this one
	cachedSig string // this header's rendering + everything below
}

// pushStack opens a header above s.
func pushStack(s *bfStack, protocol core.ModuleName, domain string, external bool) *bfStack {
	n := &bfStack{below: s, protocol: protocol, domain: domain, external: external, depth: 1}
	if s != nil {
		n.depth = s.depth + 1
	}
	return n
}

// sig renders the open-header stack, top first, for the dominance key.
func (s *bfStack) sig() string {
	if s == nil {
		return ""
	}
	if s.cachedSig == "" {
		var b strings.Builder
		// %q quoting keeps the signature injective for arbitrary operator
		// domain strings.
		fmt.Fprintf(&b, "%s/%q", s.protocol, s.domain)
		if s.external {
			b.WriteByte('!')
		}
		b.WriteByte(';')
		b.WriteString(s.below.sig())
		s.cachedSig = b.String()
	}
	return s.cachedSig
}

// bfFlavor accumulates the Describe()-relevant features of a partial
// path. It is part of the dominance key so a cheap prefix of one path
// flavour never prunes the prefix of another: FindBest must be able to
// return the best path of the *preferred* flavour, and the features
// below are exactly what Describe derives a flavour from.
type bfFlavor struct {
	hasGRE     bool
	ipGroups   uint8 // internal IPv4 groups pushed (capped)
	vlanGroups uint8 // VLAN groups pushed (capped)
	vlanUsed   bool
	plainDev   bool // a fully traversed device had no VLAN hop
	ipOffMPLS  bool // a fully traversed device had IPv4 hops but no MPLS
	firstMPLS  core.DeviceID
	lastMPLS   core.DeviceID
}

func (f bfFlavor) sig() string {
	var b strings.Builder
	if f.hasGRE {
		b.WriteByte('g')
	}
	if f.vlanUsed {
		b.WriteByte('v')
	}
	if f.plainDev {
		b.WriteByte('t')
	}
	if f.ipOffMPLS {
		b.WriteByte('i')
	}
	// %q quoting keeps the signature injective for arbitrary device ids.
	fmt.Fprintf(&b, "%d.%d.%q%q", f.ipGroups, f.vlanGroups, string(f.firstMPLS), string(f.lastMPLS))
	return b.String()
}

// bfNode is one hop of a partial path, in either driver. Hops form a
// parent-linked chain; a completed path is materialised by replaying
// the chain through the peer-group bookkeeping, so both drivers build
// structurally identical Paths.
type bfNode struct {
	parent *bfNode
	node   *Node
	mode   core.SwitchMode

	entryVia   *Node       // co-located module we entered from (up/down entries)
	entryPhys  core.PipeID // physical pipe we entered on ("" otherwise)
	parentExit core.PipeID // the pipe the parent exited on (physical transitions)
	finalPhys  core.PipeID // accepting external exit (accepted leaves only)
	accepted   bool

	// Score so far, in the selection metric's order.
	depth int
	pipes int
	fast  bool

	stack *bfStack
	flav  bfFlavor
	// Per-device flavour accumulators, folded into flav when the path
	// leaves the device over a wire (or accepted).
	devVLAN, devIPv4, devMPLS bool

	// mods/modes mirror Path.Modules() / modeString incrementally; they
	// are the deterministic tie-breaks matching the enumerator's sort,
	// built by the best-first push only.
	mods, modes string
	seq         int  // insertion order, the final tie-break
	dropped     bool // superseded on its dominance frontier; skip on pop
}

// dominates reports whether a recorded arrival makes the candidate
// redundant: no completion of the candidate can beat the best
// completion of the recorded one under (pipes, fast, hops, module
// sequence). Pipes and hops only grow by suffix-identical amounts from
// a shared state, and fast only ORs in, so Pareto comparison is sound;
// on full score ties the lexicographically smaller prefix wins, exactly
// like the enumerator's sorted tie-break.
func (r *bfNode) dominates(c *bfNode) bool {
	if r.pipes > c.pipes || r.depth > c.depth || (!r.fast && c.fast) {
		return false
	}
	if r.pipes < c.pipes || r.depth < c.depth || (r.fast && !c.fast) {
		return true
	}
	if r.mods != c.mods {
		return r.mods < c.mods
	}
	return r.modes <= c.modes
}

// bfLess is the frontier (and final-answer) ordering: the selection
// metric, then the enumerator-parity tie-breaks, then insertion order.
func bfLess(a, b *bfNode) bool {
	if a.pipes != b.pipes {
		return a.pipes < b.pipes
	}
	if a.fast != b.fast {
		return a.fast
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	if a.mods != b.mods {
		return a.mods < b.mods
	}
	if a.modes != b.modes {
		return a.modes < b.modes
	}
	return a.seq < b.seq
}

type bfHeap []*bfNode

func (h bfHeap) Len() int           { return len(h) }
func (h bfHeap) Less(i, j int) bool { return bfLess(h[i], h[j]) }
func (h bfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bfHeap) Push(x any)        { *h = append(*h, x.(*bfNode)) }
func (h *bfHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// search holds what both drivers share: the spec, the derived bounds
// and the prune counters. Its methods are the hop rules.
type search struct {
	g        *Graph
	spec     FindSpec
	stats    PruneStats
	maxPaths int // spec.MaxPaths, or DefaultMaxPaths when zero
	maxDepth int
	maxStack int // open-header bound; 0 = unbounded
	// initial is the header stack the customer frame arrives with: an
	// Ethernet header (pushed by the customer's equipment) around an IP
	// packet in the customer's address domain.
	initial *bfStack
}

// newSearch derives the shared search state. The depth bound is twice
// the node count, the upper limit the per-module visit rule already
// implies, so large linear topologies search without an artificial
// ceiling.
func (g *Graph) newSearch(spec FindSpec, maxStack int) search {
	maxPaths := spec.MaxPaths
	if maxPaths == 0 {
		maxPaths = DefaultMaxPaths
	}
	return search{
		g:        g,
		spec:     spec,
		maxPaths: maxPaths,
		maxDepth: 2 * len(g.nodes),
		maxStack: maxStack,
		initial: pushStack(
			pushStack(nil, core.NameIPv4, spec.TrafficDomain, true),
			core.NameETH, "", true),
	}
}

type bfFinder struct {
	search
	queue bfHeap
	seen  map[string][]*bfNode
	seq   int
}

// FindBest returns the single best path for the spec: the preferred
// flavour's best when spec.Prefer is set, the paper's selection metric
// otherwise (fewest pipes instantiated, fast forwarding on ties, then
// hop count). It runs the goal-directed best-first search and never
// materialises the variant space. A nil path with a nil error means no
// protocol-sane path (or none of the preferred flavour) exists.
func (g *Graph) FindBest(spec FindSpec) (*Path, PruneStats, error) {
	return g.findBest(spec, DefaultMaxStack)
}

// findBest is FindBest with an explicit open-header bound.
func (g *Graph) findBest(spec FindSpec, maxStack int) (*Path, PruneStats, error) {
	from, entryPipe, err := g.resolveEndpoints(spec)
	if err != nil {
		return nil, PruneStats{}, err
	}
	f := &bfFinder{search: g.newSearch(spec, maxStack), seen: make(map[string][]*bfNode)}
	f.stats.PreferUnknown = spec.Prefer != "" && !PreferRecognized(spec.Prefer)
	heap.Init(&f.queue)
	f.enter(nil, from, core.EndPhy, nil, entryPipe, "")

	// held is the best acceptable completion popped so far. It cannot
	// be returned the moment it pops: pipes are monotone along a path
	// but the fast bit is not (a tied-on-pipes route may gain fast
	// forwarding deeper in), so an equal-pipes better completion can
	// still be hiding behind an unexpanded prefix. Draining the frontier
	// until its minimum pipe count exceeds the held completion's makes
	// the result exact — nothing left can even tie.
	var held *bfNode
	var heldPath *Path
	acceptedPops := 0
	for f.queue.Len() > 0 {
		if held != nil && f.queue[0].pipes > held.pipes {
			return heldPath, f.stats, nil
		}
		b := heap.Pop(&f.queue).(*bfNode)
		if b.dropped {
			continue
		}
		if b.accepted {
			p := f.materialize(b, b.finalPhys)
			if f.spec.Prefer == "" || p.Describe() == f.spec.Prefer {
				if held == nil || bfLess(b, held) {
					held, heldPath = b, p
				}
			} else if acceptedPops++; acceptedPops >= f.maxPaths {
				return heldPath, f.stats, nil
			}
			continue
		}
		if f.stats.Expanded++; f.stats.Expanded > bfMaxExpand {
			return nil, f.stats, fmt.Errorf("nm: best-first search exceeded %d expansions", bfMaxExpand)
		}
		f.expand(b)
	}
	if held != nil {
		return heldPath, f.stats, nil
	}
	// Completeness net: the dominance key deliberately omits the set of
	// modules a prefix has visited, so in a topology where equal-scored
	// arms reconverge, the surviving arm could later be blocked by the
	// per-module visit limit while the pruned one would have completed.
	// No built-in scenario triggers this, but FindBest is the default
	// compile engine for arbitrary topologies — so an empty result that
	// was not caused by an explicit valve (DefaultMaxStack prune,
	// accepted-pop cap) is re-checked against the enumerator before "no
	// path" is reported. The cost is paid only on the no-path error
	// path (including a Prefer flavour that genuinely does not exist),
	// bounded by the enumerator's own MaxPaths cap. Known residual of
	// the same hole: if the blocked survivor completes via a *worse*
	// suffix instead of not at all, the returned path can be
	// metric-suboptimal — accepted as the price of a visited-set-free
	// dominance key (tracked in ROADMAP's finder follow-ups).
	if f.stats.StackCap == 0 && acceptedPops < f.maxPaths {
		paths, estats, err := g.FindPaths(spec)
		f.stats.Expanded += estats.Expanded
		return PickPath(paths, spec.Prefer), f.stats, err
	}
	return nil, f.stats, nil
}

// coLocated returns the modules b's up or down exit leads into on its
// device, and the end they are entered at.
func (s *search) coLocated(b *bfNode) ([]*Node, core.PipeEnd) {
	next, end := s.g.Above(b.node), core.EndDown
	if b.mode.To == core.EndDown {
		next, end = s.g.Below(b.node), core.EndUp
	}
	if len(next) == 0 {
		s.stats.DeadEnd++
	}
	return next, end
}

// expand pushes every admissible successor of a popped partial path.
func (f *bfFinder) expand(b *bfNode) {
	if b.mode.To != core.EndPhy {
		next, end := f.coLocated(b)
		for _, n := range next {
			f.enter(b, n, end, b.node, "", "")
		}
		return
	}
	// External exits only ever complete the path at the goal module
	// (accepts rejects everything else), so skip them entirely on
	// transit nodes and, when the spec pins the exit port, probe that
	// one attachment instead of scanning the edge switch's thousands of
	// customer ports.
	if b.node.Ref == f.spec.To {
		if f.spec.ToPipe != "" {
			if pa, ok := f.g.PhysAt(b.node, f.spec.ToPipe); ok && pa.External && pa.Pipe != b.entryPhys {
				f.maybeAccept(b, pa.Pipe)
			}
		} else {
			for _, pa := range f.g.Externals(b.node) {
				if pa.Pipe != b.entryPhys {
					f.maybeAccept(b, pa.Pipe)
				}
			}
		}
	}
	for _, pa := range f.g.Wires(b.node) {
		if pa.Pipe != b.entryPhys { // never exit the pipe we entered on
			f.enter(b, pa.Peer, core.EndPhy, nil, pa.PeerPipe, pa.Pipe)
		}
	}
}

// enter tries every switching mode of node reachable from the given
// entry end, pushing one child hop per admissible mode.
func (f *bfFinder) enter(parent *bfNode, node *Node, entry core.PipeEnd, entryVia *Node, entryPhys, parentExit core.PipeID) {
	visits := 0
	for b := parent; b != nil; b = b.parent {
		if b.node == node {
			visits++
		}
	}
	if !f.admits(parent, node, visits) {
		return
	}
	for _, mode := range node.Abs.Switch.Modes {
		if mode.From != entry {
			continue
		}
		if child := f.makeChild(parent, node, mode, entryVia, entryPhys, parentExit); child != nil {
			f.push(child)
		}
	}
}

// admits applies the depth bound and the paper's cycle rule to entering
// node below parent, on a path that has visited it visits times: each
// module at most once per path, twice for [phy => down] L2 ETH modules
// (Fig 9b traverses module a twice).
func (s *search) admits(parent *bfNode, node *Node, visits int) bool {
	if parent != nil && parent.depth >= s.maxDepth {
		return false
	}
	if visits >= visitLimit(node) {
		s.stats.Visited++
		return false
	}
	return true
}

// makeChild applies the mode's header effect and the paper's pruning
// rules (protocol sanity, external-frame termination, Fig 6b address
// domains) to produce the child hop, or nil when the branch is pruned.
func (s *search) makeChild(parent *bfNode, node *Node, mode core.SwitchMode, entryVia *Node, entryPhys, parentExit core.PipeID) *bfNode {
	stack := s.initial
	if parent != nil {
		stack = parent.stack
	}
	newStack := stack
	switch mode.Effect() {
	case core.EffectPop, core.EffectProcess:
		if stack == nil {
			s.stats.StackUnderflow++
			return nil
		}
		if canon(stack.protocol) != canon(node.Ref.Name) {
			s.stats.NameMismatch++
			return nil
		}
		// The customer's own Ethernet framing may only be terminated at
		// the goal's endpoint modules.
		if stack.external && canon(stack.protocol) == core.NameETH &&
			node.Ref != s.spec.From && node.Ref != s.spec.To {
			s.stats.ExternalLeak++
			return nil
		}
		// Address-domain rule (Fig 6b).
		if !s.spec.DisableDomainPruning &&
			canon(node.Ref.Name) == core.NameIPv4 &&
			stack.domain != "" && node.Domain != "" && stack.domain != node.Domain {
			s.stats.DomainMismatch++
			return nil
		}
		if mode.Effect() == core.EffectPop {
			newStack = stack.below
		}
	case core.EffectPush:
		if s.maxStack > 0 && stack != nil && stack.depth >= s.maxStack {
			s.stats.StackCap++
			return nil
		}
		newStack = pushStack(stack, node.Ref.Name, node.Domain, false)
	}

	child := &bfNode{
		parent: parent, node: node, mode: mode,
		entryVia: entryVia, entryPhys: entryPhys, parentExit: parentExit,
		depth: 1, stack: newStack,
	}
	if parent != nil {
		child.depth = parent.depth + 1
		child.pipes = parent.pipes
		if entryPhys == "" {
			child.pipes++ // the parent exits through an up-down pipe
		}
		child.fast = parent.fast
		child.flav = parent.flav
		if entryPhys == "" {
			child.devVLAN, child.devIPv4, child.devMPLS = parent.devVLAN, parent.devIPv4, parent.devMPLS
		} else {
			// Crossing a wire completes the parent's device traversal:
			// fold its flavour accumulators and start fresh.
			foldDevice(&child.flav, parent)
		}
	}
	if node.Abs.Attributes["forwarding"] == "fast" {
		child.fast = true
	}
	applyFlavor(child, node, mode)
	if s.spec.Prefer != "" && !flavorViable(s.spec.Prefer, child.flav) {
		s.stats.PreferMismatch++
		return nil
	}
	return child
}

// PreferRecognized reports whether a preference string belongs to one
// of the flavour families the goal-directed pruner understands (the
// Describe() vocabulary: VLAN tunnel variants, plain, MPLS, GRE-IP and
// IP-IP tunnels, with or without qualifiers). An unrecognised string
// never matches any built-in Describe() output, so the search runs
// undirected and finds nothing of that flavour; FindBest flags it via
// PruneStats.PreferUnknown so callers can warn instead of reporting a
// bare "no path".
func PreferRecognized(prefer string) bool {
	switch {
	case strings.HasPrefix(prefer, "VLAN"),
		prefer == "plain",
		prefer == "MPLS",
		strings.HasPrefix(prefer, "GRE-IP tunnel"),
		strings.HasPrefix(prefer, "IP-IP tunnel"):
		return true
	}
	return false
}

// flavorViable reports whether a partial path's flavour features can
// still complete into the preferred Describe() string — the
// goal-direction of the search. Only monotone features are consulted
// (hasGRE, vlanUsed, group counts, plainDev and firstMPLS never revert
// once set), so a false here is definitive; unrecognised preference
// strings (see PreferRecognized) disable the filter rather than risk
// hiding the preferred path, costing only extra expansions.
func flavorViable(prefer string, fl bfFlavor) bool {
	switch {
	case prefer == "VLAN tunnel":
		// One tag spanning every switch: no transparently bridged
		// device, no second tag group.
		return !fl.plainDev && fl.vlanGroups <= 1
	case prefer == "VLAN tunnel (segmented)":
		return !fl.plainDev
	case strings.HasPrefix(prefer, "VLAN"):
		return true
	case prefer == "plain":
		return !fl.hasGRE && !fl.vlanUsed && fl.ipGroups == 0 && fl.firstMPLS == ""
	case prefer == "MPLS":
		return !fl.hasGRE && !fl.vlanUsed && fl.ipGroups == 0
	case strings.HasPrefix(prefer, "GRE-IP tunnel"):
		if fl.vlanUsed {
			return false
		}
		return prefer != "GRE-IP tunnel" || fl.firstMPLS == ""
	case strings.HasPrefix(prefer, "IP-IP tunnel"):
		if fl.vlanUsed || fl.hasGRE {
			return false
		}
		return prefer != "IP-IP tunnel" || fl.firstMPLS == ""
	default:
		return true
	}
}

// foldDevice folds a left device's accumulators into the flavour.
func foldDevice(fl *bfFlavor, b *bfNode) {
	if !b.devVLAN {
		fl.plainDev = true
	}
	if b.devIPv4 && !b.devMPLS {
		fl.ipOffMPLS = true
	}
}

// applyFlavor records one hop's contribution to the flavour signature.
func applyFlavor(b *bfNode, node *Node, mode core.SwitchMode) {
	name := canon(node.Ref.Name)
	push := mode.Effect() == core.EffectPush
	switch name {
	case core.NameGRE:
		b.flav.hasGRE = true
	case core.NameVLAN:
		b.flav.vlanUsed = true
		b.devVLAN = true
		if push && b.flav.vlanGroups < 3 {
			b.flav.vlanGroups++
		}
	case core.NameIPv4:
		b.devIPv4 = true
		if push && b.flav.ipGroups < 3 {
			b.flav.ipGroups++
		}
	case core.NameMPLS:
		b.devMPLS = true
		if b.flav.firstMPLS == "" {
			b.flav.firstMPLS = node.Ref.Device
		}
		b.flav.lastMPLS = node.Ref.Device
	}
}

// push inserts a child into the frontier unless a recorded arrival at
// the same dominance state makes it redundant; recorded arrivals the
// child supersedes are dropped (skipped when they pop).
func (f *bfFinder) push(child *bfNode) {
	if p := child.parent; p != nil {
		child.mods = p.mods + ", " + string(child.node.Ref.Module)
		child.modes = p.modes + child.mode.String()
	} else {
		child.mods = string(child.node.Ref.Module)
		child.modes = child.mode.String()
	}
	key := fmt.Sprintf("%s|%s|%q|%s|%s|%v%v%v",
		child.node.Ref, child.mode, string(child.entryPhys),
		child.stack.sig(), child.flav.sig(),
		child.devVLAN, child.devIPv4, child.devMPLS)
	recs := f.seen[key]
	for _, r := range recs {
		if r.dominates(child) {
			return
		}
	}
	kept := recs[:0]
	for _, r := range recs {
		if child.dominates(r) {
			r.dropped = true
		} else {
			kept = append(kept, r)
		}
	}
	f.seen[key] = append(kept, child)
	f.seq++
	child.seq = f.seq
	heap.Push(&f.queue, child)
}

// accepts reports whether b completes a path by exiting on pipe: the
// goal module's (pinned) external pipe, with a clean header stack — the
// freshly pushed Ethernet header directly above the customer's original
// IP packet, every header pushed inside the network popped.
func (s *search) accepts(b *bfNode, pipe core.PipeID) bool {
	if b.node.Ref != s.spec.To || (s.spec.ToPipe != "" && pipe != s.spec.ToPipe) {
		return false
	}
	st := b.stack
	return st != nil && !st.external && canon(st.protocol) == core.NameETH &&
		st.below != nil && st.below.external && st.below.below == nil
}

// maybeAccept pushes a completed-path leaf when b exits on an accepting
// pipe.
func (f *bfFinder) maybeAccept(b *bfNode, pipe core.PipeID) {
	if !f.accepts(b, pipe) {
		return
	}
	leaf := *b
	leaf.accepted = true
	leaf.finalPhys = pipe
	f.seq++
	leaf.seq = f.seq
	heap.Push(&f.queue, &leaf)
}

// materialize rebuilds the full Path from an accepted hop chain that
// leaves on exit, replaying the peer-group bookkeeping: pushes open a
// group, processors join it, pops close it.
func (s *search) materialize(leaf *bfNode, exit core.PipeID) *Path {
	var chain []*bfNode
	for b := leaf; b != nil; b = b.parent {
		chain = append(chain, b)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	groups := []PeerGroup{
		{Protocol: core.NameETH, External: true},
		{Protocol: core.NameIPv4, Domain: s.spec.TrafficDomain, External: true},
	}
	stack := []int{0, 1}
	hops := make([]Hop, len(chain))
	for i, b := range chain {
		h := Hop{Node: b.node, Mode: b.mode, EntryVia: b.entryVia, EntryPhys: b.entryPhys}
		switch b.mode.Effect() {
		case core.EffectPop:
			h.Group = stack[0]
			groups[h.Group].Members = append(groups[h.Group].Members, i)
			groups[h.Group].Closed = true
			stack = stack[1:]
		case core.EffectProcess:
			h.Group = stack[0]
			groups[h.Group].Members = append(groups[h.Group].Members, i)
		case core.EffectPush:
			h.Group = len(groups)
			groups = append(groups, PeerGroup{
				Protocol: b.node.Ref.Name, Domain: b.node.Domain, Members: []int{i},
			})
			stack = append([]int{h.Group}, stack...)
		}
		if i+1 < len(chain) {
			next := chain[i+1]
			if next.entryPhys == "" {
				h.ExitVia = next.node
			} else {
				h.ExitPhys = next.parentExit
			}
		} else {
			h.ExitPhys = exit
		}
		hops[i] = h
	}
	return &Path{Hops: hops, Groups: groups}
}
