package nm

import (
	"fmt"
	"sort"
	"strings"

	"conman/internal/core"
)

// PeerGroup records every module that touched one protocol header along a
// path: the pusher first, processors in order, the popper last. The NM
// derives pipe peer relationships from these groups (§III-C.1: "This also
// allows the NM to determine modules that are peers of each other").
type PeerGroup struct {
	Protocol core.ModuleName
	Domain   string
	Members  []int // hop indices, in path order
	External bool  // header originated outside the managed domain
	Closed   bool  // popped within the path
}

// Hop is one module traversal in a found path.
type Hop struct {
	Node *Node
	Mode core.SwitchMode
	// EntryVia/ExitVia are the co-located neighbour modules for up/down
	// entries and exits (nil for physical).
	EntryVia, ExitVia *Node
	// EntryPhys/ExitPhys are set for physical entries and exits.
	EntryPhys, ExitPhys core.PipeID
	// Group is the index of the PeerGroup this hop touched.
	Group int
}

// Path is one protocol-sane module-level path.
type Path struct {
	Hops   []Hop
	Groups []PeerGroup
}

// Modules returns the path as the paper prints it: the module-id sequence
// ("a, g, l, h, b, c, i, d, e, j, n, k, f").
func (p *Path) Modules() string {
	ids := make([]string, len(p.Hops))
	for i, h := range p.Hops {
		ids[i] = string(h.Node.Ref.Module)
	}
	return strings.Join(ids, ", ")
}

// Pipes counts the up-down pipes the path would instantiate (the paper's
// selection metric: "minimizes the total number of pipes instantiated in
// the routers").
func (p *Path) Pipes() int {
	n := 0
	for _, h := range p.Hops {
		if h.ExitVia != nil {
			n++
		}
	}
	return n
}

// uses reports whether any hop's module has the given name.
func (p *Path) uses(name core.ModuleName) bool {
	for _, h := range p.Hops {
		if h.Node.Ref.Name == name {
			return true
		}
	}
	return false
}

// Describe classifies the path in the paper's §III-C.1 vocabulary, e.g.
// "MPLS", "GRE-IP tunnel", "IP-IP over MPLS (A-B)".
func (p *Path) Describe() string {
	var tunnel string
	hasGRE := p.uses(core.NameGRE)
	ipGroups := 0
	for _, g := range p.Groups {
		if g.Protocol == core.NameIPv4 && !g.External {
			ipGroups++
		}
	}
	switch {
	case hasGRE:
		tunnel = "GRE-IP tunnel"
	case ipGroups > 0:
		tunnel = "IP-IP tunnel"
	}
	var mplsDevs []string
	seen := map[string]bool{}
	for _, h := range p.Hops {
		if h.Node.Ref.Name == core.NameMPLS && !seen[string(h.Node.Ref.Device)] {
			seen[string(h.Node.Ref.Device)] = true
			mplsDevs = append(mplsDevs, string(h.Node.Ref.Device))
		}
	}
	if p.uses(core.NameVLAN) {
		// Distinguish the canonical configuration (one VLAN spanning
		// every switch, Fig 9) from variants where a transit switch
		// bridges tagged frames with [phy => phy] only, or where the
		// tag is popped and re-pushed mid-path (segmented tunnels).
		withVLAN := map[core.DeviceID]bool{}
		all := map[core.DeviceID]bool{}
		for _, h := range p.Hops {
			all[h.Node.Ref.Device] = true
			if h.Node.Ref.Name == core.NameVLAN {
				withVLAN[h.Node.Ref.Device] = true
			}
		}
		vlanGroups := 0
		for _, g := range p.Groups {
			if g.Protocol == core.NameVLAN {
				vlanGroups++
			}
		}
		switch {
		case len(withVLAN) < len(all):
			return "VLAN tunnel (transparent core)"
		case vlanGroups > 1:
			return "VLAN tunnel (segmented)"
		default:
			return "VLAN tunnel"
		}
	}
	switch {
	case len(mplsDevs) == 0 && tunnel == "":
		return "plain"
	case len(mplsDevs) == 0:
		return tunnel
	case tunnel == "":
		return "MPLS"
	default:
		span := fmt.Sprintf("%s-%s", mplsDevs[0], mplsDevs[len(mplsDevs)-1])
		all := true
		for _, h := range p.Hops {
			if h.Node.Ref.Name == core.NameIPv4 && !seen[string(h.Node.Ref.Device)] {
				all = false
			}
		}
		if all {
			return fmt.Sprintf("%s over MPLS", tunnel)
		}
		return fmt.Sprintf("%s over MPLS (%s)", tunnel, span)
	}
}

// PruneStats counts why the search abandoned branches (Fig 6's
// examples), plus how many states it expanded — the cost metric the
// exhaustive-vs-best-first benchmark compares.
type PruneStats struct {
	NameMismatch   int // header/protocol mismatch ("protocol sanity")
	DomainMismatch int // peers in different address domains (Fig 6b)
	Visited        int // cycle avoidance
	DeadEnd        int
	StackUnderflow int
	ExternalLeak   int // customer L2 header handled off the endpoints
	StackCap       int // encapsulation deeper than DefaultMaxStack (best-first)
	PreferMismatch int // prefixes that can no longer match Prefer (best-first)
	Expanded       int // module entries explored (DFS visits / queue pops)
	// PreferUnknown reports that FindSpec.Prefer was set to a string the
	// finder does not recognise as a Describe() flavour family. The
	// search still runs — goal-direction is disabled rather than risking
	// hiding the preferred path — but no built-in flavour can ever match
	// such a string, so a nil result usually means a typo (e.g.
	// "GRE tunnel" instead of "GRE-IP tunnel") rather than a missing
	// path. Callers surface it as a warning; see PreferRecognized.
	PreferUnknown bool
}

// DefaultMaxPaths is the enumeration cap applied when FindSpec.MaxPaths
// is zero. For the exhaustive enumerator it bounds the materialised
// variant space (on long L2 chains that space is exponential, and only
// the canonical-first mode ordering keeps the canonical path inside the
// cap — selection over the truncated set is unreliable). The best-first
// finder does not enumerate, so for it the cap is a safety valve only:
// the number of completed-but-unpreferred paths it will pop before
// giving up.
const DefaultMaxPaths = 1000

// FindSpec describes what the path finder should connect.
type FindSpec struct {
	// From/To are the endpoint (customer-facing) ETH modules.
	From, To core.ModuleRef
	// TrafficDomain is the address domain of the customer traffic the
	// path must carry (e.g. "C1").
	TrafficDomain string
	// FromPipe/ToPipe optionally pin the external physical pipes the
	// path must enter and leave through ("Phy-<port>"). Zero values keep
	// the default: enter on the From module's first external pipe, leave
	// on any external pipe of To. Pinning matters on multi-tenant edges
	// where one module fronts several customer ports.
	FromPipe, ToPipe core.PipeID
	// MaxPaths bounds the search (0 = DefaultMaxPaths): the enumeration
	// cap for FindPaths, the accepted-path safety valve for FindBest.
	MaxPaths int
	// Prefer pins a path flavour by its Describe() string ("GRE-IP
	// tunnel", "MPLS", "VLAN tunnel") for FindBest. Empty selects by the
	// paper's metric: fewest pipes, fast forwarding on ties (§III-C.1).
	// FindPaths ignores it; PickPath applies it to an enumeration.
	Prefer string
	// DisableDomainPruning turns off the Fig 6(b) rule (for the ablation
	// benchmark).
	DisableDomainPruning bool
}

// visitLimit implements the paper's cycle avoidance: each module appears
// at most once in a path. L2-switch ETH modules are the one exception —
// the paper's own Fig 9b script sends the packet through module a twice
// (customer port in, VLAN tag, trunk port out) — so modules advertising
// [phy => down] may be traversed twice.
func visitLimit(n *Node) int {
	if n.Abs.Switch.Supports(core.SwPhyDown) {
		return 2
	}
	return 1
}

// FindPaths enumerates all protocol-sane paths from spec.From's external
// physical pipe to spec.To's, applying the paper's two pruning rules:
// encapsulation sanity and address-domain compatibility (§III-C.1). It
// is a depth-first driver over the same hop rules FindBest uses, with
// no flavour direction and no stack bound, descending no further once
// MaxPaths paths are found.
func (g *Graph) FindPaths(spec FindSpec) ([]*Path, PruneStats, error) {
	from, entryPipe, err := g.resolveEndpoints(spec)
	if err != nil {
		return nil, PruneStats{}, err
	}
	spec.Prefer = ""
	e := &enumerator{search: g.newSearch(spec, 0), visits: make(map[*Node]int)}
	e.enter(nil, from, core.EndPhy, nil, entryPipe, "")
	// Deterministic result order: by length, module sequence, then mode
	// sequence (paths can share modules but differ in switching modes).
	sort.Slice(e.paths, func(i, j int) bool {
		a, b := e.paths[i], e.paths[j]
		if len(a.Hops) != len(b.Hops) {
			return len(a.Hops) < len(b.Hops)
		}
		if am, bm := a.Modules(), b.Modules(); am != bm {
			return am < bm
		}
		return modeString(a) < modeString(b)
	})
	return e.paths, e.stats, nil
}

// enumerator is FindPaths' depth-first driver: it follows every hop the
// shared rules admit and materialises every accepted leaf.
type enumerator struct {
	search
	paths  []*Path
	visits map[*Node]int // per module, along the current path
}

// enter explores node below parent, trying its modes in modeRank order.
func (e *enumerator) enter(parent *bfNode, node *Node, entry core.PipeEnd, entryVia *Node, entryPhys, parentExit core.PipeID) {
	if len(e.paths) >= e.maxPaths || !e.admits(parent, node, e.visits[node]) {
		return
	}
	e.visits[node]++
	e.stats.Expanded++
	var modes []core.SwitchMode
	for _, mode := range node.Abs.Switch.Modes {
		if mode.From == entry {
			modes = append(modes, mode)
		}
	}
	sort.SliceStable(modes, func(i, j int) bool { return modeRank(modes[i]) < modeRank(modes[j]) })
	for _, mode := range modes {
		b := e.makeChild(parent, node, mode, entryVia, entryPhys, parentExit)
		if b == nil {
			continue
		}
		if mode.To != core.EndPhy {
			next, end := e.coLocated(b)
			for _, n := range next {
				e.enter(b, n, end, node, "", "")
			}
			continue
		}
		for _, pa := range e.g.Phys(node) {
			switch {
			case pa.Pipe == entryPhys: // never exit the pipe we entered on
			case pa.External:
				if e.accepts(b, pa.Pipe) {
					e.paths = append(e.paths, e.materialize(b, pa.Pipe))
				}
			case pa.Peer != nil:
				e.enter(b, pa.Peer, core.EndPhy, nil, pa.PeerPipe, pa.Pipe)
			}
		}
	}
	e.visits[node]--
}

// resolveEndpoints validates the spec's endpoint modules and resolves
// the external physical pipe the search must enter on.
func (g *Graph) resolveEndpoints(spec FindSpec) (*Node, core.PipeID, error) {
	from, ok := g.Node(spec.From)
	if !ok {
		return nil, "", fmt.Errorf("nm: unknown module %s", spec.From)
	}
	if _, ok := g.Node(spec.To); !ok {
		return nil, "", fmt.Errorf("nm: unknown module %s", spec.To)
	}
	var entryPipe core.PipeID
	if spec.FromPipe != "" {
		// Pinned entry port: direct lookup instead of scanning an edge
		// switch's customer ports.
		if pa, ok := g.PhysAt(from, spec.FromPipe); ok && pa.External {
			entryPipe = pa.Pipe
		}
	} else {
		for _, pa := range g.Phys(from) {
			if pa.External {
				entryPipe = pa.Pipe
				break
			}
		}
	}
	if entryPipe == "" {
		if spec.FromPipe != "" {
			return nil, "", fmt.Errorf("nm: %s has no external physical pipe %s", spec.From, spec.FromPipe)
		}
		return nil, "", fmt.Errorf("nm: %s has no external physical pipe", spec.From)
	}
	return from, entryPipe, nil
}

func modeString(p *Path) string {
	var b strings.Builder
	for _, h := range p.Hops {
		b.WriteString(h.Mode.String())
	}
	return b.String()
}

func canon(n core.ModuleName) core.ModuleName {
	if n == "IP" {
		return core.NameIPv4
	}
	return n
}

// modeRank orders mode exploration so the canonical configuration is
// enumerated first when the path cap truncates an exponential search
// space (a long L2 chain where every transit switch could also bridge
// transparently or pop-and-repush the tag): header processing dives
// deepest, pushes come next, pops unwind, and phy exits — which leave
// the device without touching its protocol modules — are tried last.
// Declared order breaks ties, so small-topology enumerations are
// unchanged.
func modeRank(m core.SwitchMode) int {
	if m.To == core.EndPhy {
		return 3
	}
	switch m.Effect() {
	case core.EffectProcess:
		return 0
	case core.EffectPush:
		return 1
	default:
		return 2
	}
}

// SelectPath implements the paper's selector: minimise instantiated
// pipes, preferring modules that advertise fast forwarding (the MPLS
// preference of §III-C.1) on ties.
func SelectPath(paths []*Path) *Path {
	if len(paths) == 0 {
		return nil
	}
	best := paths[0]
	bestFast := pathFast(best)
	for _, p := range paths[1:] {
		switch {
		case p.Pipes() < best.Pipes():
			best, bestFast = p, pathFast(p)
		case p.Pipes() == best.Pipes() && pathFast(p) && !bestFast:
			best, bestFast = p, true
		}
	}
	return best
}

// PickPath chooses from an enumeration the way FindBest chooses from its
// search: the first path of the preferred flavour when prefer is set
// (nil if there is none), SelectPath otherwise.
func PickPath(paths []*Path, prefer string) *Path {
	if prefer == "" {
		return SelectPath(paths)
	}
	for _, p := range paths {
		if p.Describe() == prefer {
			return p
		}
	}
	return nil
}

func pathFast(p *Path) bool {
	for _, h := range p.Hops {
		if h.Node.Abs.Attributes["forwarding"] == "fast" {
			return true
		}
	}
	return false
}
