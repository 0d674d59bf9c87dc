package experiments

import (
	"fmt"
	"strings"

	"conman/internal/core"
	"conman/internal/legacy"
	"conman/internal/nm"
)

// ---------------------------------------------------------------------------
// Table III — the GRE module abstraction

// Table3 returns the abstraction the GRE module on device A exposes,
// rendered row by row as the paper's Table III.
func Table3() (core.Abstraction, string, error) {
	tb, err := BuildFig4()
	if err != nil {
		return core.Abstraction{}, "", err
	}
	info, _ := tb.NM.Device("A")
	for _, abs := range info.Modules {
		if abs.Ref.Name == core.NameGRE {
			return abs, RenderTable3(abs), nil
		}
	}
	return core.Abstraction{}, "", fmt.Errorf("no GRE module on device A")
}

// RenderTable3 prints an abstraction in Table III's layout.
func RenderTable3(a core.Abstraction) string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-22s %s\n", k, v) }
	names := func(ns []core.ModuleName) string {
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = n.Display()
		}
		if len(parts) == 0 {
			return "None"
		}
		return strings.Join(parts, ", ")
	}
	row("Name", a.Ref.String())
	row("Up.Con-Modules", names(a.Up.Connectable))
	deps := "None"
	if len(a.Up.Dependencies) > 0 {
		var ds []string
		for _, d := range a.Up.Dependencies {
			ds = append(ds, d.Description)
		}
		deps = strings.Join(ds, "; ")
	}
	row("Up.Dependencies", deps)
	row("Down.Con-Modules", names(a.Down.Connectable))
	deps = "None"
	if len(a.Down.Dependencies) > 0 {
		deps = fmt.Sprintf("%d dependencies", len(a.Down.Dependencies))
	}
	row("Down.Dependencies", deps)
	phys := "None"
	if len(a.Physical) > 0 {
		phys = fmt.Sprintf("%d pipes", len(a.Physical))
	}
	row("Physical pipes", phys)
	row("Peerable-Mod.", names(a.Peerable))
	filter := "Nil"
	if a.Filter.CanFilter() {
		filter = "classifiers available"
	}
	row("Filter", filter)
	row("Switch", a.Switch.ModesString())
	row("Perf Reporting", strings.Join(a.PerfReporting, "; "))
	var tos []string
	for _, t := range a.Tradeoffs {
		tos = append(tos, t.String())
	}
	to := "Nil"
	if len(tos) > 0 {
		to = strings.Join(tos, " ")
	}
	row("Perf Trade-Offs", to)
	enf := "Nil"
	if a.Enforcement.Queuing || a.Enforcement.Shaping || len(a.Enforcement.ServiceClasses) > 0 {
		enf = "queuing/shaping"
	}
	row("Perf Enforcement", enf)
	sec := "Nil"
	if a.Security.Offers() {
		sec = "integrity/authenticity/confidentiality"
	}
	row("Security", sec)
	return b.String()
}

// ---------------------------------------------------------------------------
// Table IV — connectivity and switching of device A's modules

// Table4 renders the connectivity and switching capabilities of every
// module on device A, as the paper's Table IV.
func Table4() (string, error) {
	tb, err := BuildFig4()
	if err != nil {
		return "", err
	}
	info, _ := tb.NM.Device("A")
	var b strings.Builder
	names := func(ns []core.ModuleName) string {
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = n.Display()
		}
		if len(parts) == 0 {
			return "None"
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	for _, abs := range info.Modules {
		phy := "None"
		if len(abs.Physical) > 0 {
			var ps []string
			for _, p := range abs.Physical {
				if p.External {
					ps = append(ps, string(p.Pipe)+" (customer-facing)")
				} else {
					ps = append(ps, string(p.Pipe))
				}
			}
			phy = strings.Join(ps, ", ")
		}
		fmt.Fprintf(&b, "%s  Up: %s, Down: %s, Phy: %s, Switching: %s\n",
			abs.Ref, names(abs.Up.Connectable), names(abs.Down.Connectable), phy,
			abs.Switch.ModesString())
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Fig 5 — potential connectivity sub-graph of device A

// Fig5 returns the edge list and DOT rendering of device A's potential
// connectivity sub-graph.
func Fig5() (edges []string, dot string, err error) {
	tb, err := BuildFig4()
	if err != nil {
		return nil, "", err
	}
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		return nil, "", err
	}
	return g.DeviceSubgraph("A"), g.DOT("A"), nil
}

// ---------------------------------------------------------------------------
// Fig 6 + §III-C.1 — path finder behaviour

// Paths9Result is the outcome of the path enumeration experiment.
type Paths9Result struct {
	Paths []*nm.Path
	Stats nm.PruneStats
}

// Paths9 enumerates all paths between <ETH,A,a> and <ETH,C,f> — the paper
// reports exactly nine.
func Paths9() (*Paths9Result, error) {
	tb, err := BuildFig4()
	if err != nil {
		return nil, err
	}
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		return nil, err
	}
	goal := Fig4Goal()
	paths, stats, err := g.FindPaths(nm.FindSpec{
		From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain,
	})
	if err != nil {
		return nil, err
	}
	return &Paths9Result{Paths: paths, Stats: stats}, nil
}

// Render prints the enumeration like the paper's path list.
func (r *Paths9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d paths between <ETH,A,a> and <ETH,C,f>:\n", len(r.Paths))
	for i, p := range r.Paths {
		fmt.Fprintf(&b, "(%c) %-32s %s\n", 'a'+i, p.Describe()+":", p.Modules())
	}
	fmt.Fprintf(&b, "pruned branches: %d protocol-sanity, %d address-domain (Fig 6b), %d cycle, %d customer-L2\n",
		r.Stats.NameMismatch, r.Stats.DomainMismatch, r.Stats.Visited, r.Stats.ExternalLeak)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figs 7, 8, 9 — configuration comparisons

// ConfigComparison is one "today vs CONMan" experiment outcome.
type ConfigComparison struct {
	Scenario     string
	Today        legacy.Script
	CONManScript string // device A's rendered CONMan batch
	AllScripts   []nm.DeviceScript
	DeviceLog    []string // device-level commands the modules generated on A
	Messages     nm.Counters
	Verified     bool
}

// runVPN builds a testbed, configures the VPN along the path with the
// given description, verifies the data plane and returns the comparison.
func runVPN(buildVLAN bool, pathDesc string, today legacy.Script, token uint32) (*ConfigComparison, error) {
	var (
		tb  *Testbed
		err error
	)
	if buildVLAN {
		tb, err = BuildFig9()
	} else {
		tb, err = BuildFig4()
	}
	if err != nil {
		return nil, err
	}
	goal := Fig4Goal()
	if buildVLAN {
		goal = Fig9Goal()
	}
	// Plan the goal as a declarative intent; on the fresh testbed the
	// plan is pure creation, so the applied batches — and the message
	// accounting — are identical to the old one-shot compile+execute.
	plan, err := tb.NM.Plan(VPNIntent(goal, pathDesc))
	if err != nil {
		return nil, err
	}
	tb.NM.ResetCounters()
	if err := tb.NM.Apply(plan); err != nil {
		return nil, err
	}
	cmp := &ConfigComparison{
		Scenario:   pathDesc,
		Today:      today,
		AllScripts: plan.Creates,
		Messages:   tb.NM.Counters(),
		DeviceLog:  tb.Devices["A"].Kernel.ExecLog(),
	}
	for _, s := range plan.Creates {
		if s.Device == "A" {
			cmp.CONManScript = s.Script()
		}
	}
	if err := tb.VerifyConnectivity(token); err != nil {
		return cmp, err
	}
	cmp.Verified = true
	return cmp, nil
}

// Fig7 regenerates the GRE comparison.
func Fig7() (*ConfigComparison, error) {
	return runVPN(false, "GRE-IP tunnel", legacy.TodayGRE(), 7000)
}

// Fig8 regenerates the MPLS comparison.
func Fig8() (*ConfigComparison, error) {
	return runVPN(false, "MPLS", legacy.TodayMPLS(), 8000)
}

// Fig9Run regenerates the VLAN comparison.
func Fig9Run() (*ConfigComparison, error) {
	return runVPN(true, "VLAN tunnel", legacy.TodayVLAN(), 9000)
}

// Render prints the comparison side by side.
func (c *ConfigComparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", c.Scenario)
	fmt.Fprintf(&b, "--- Configuration today (%s):\n%s\n", c.Today.Title, c.Today.Text())
	fmt.Fprintf(&b, "\n--- CONMan configuration (algorithmically generated by the NM, router A):\n%s\n", c.CONManScript)
	fmt.Fprintf(&b, "\n--- Device-level commands the modules derived on router A:\n")
	for _, l := range c.DeviceLog {
		fmt.Fprintf(&b, "    %s\n", l)
	}
	fmt.Fprintf(&b, "\nNM messages: %d sent, %d received; data plane verified: %v\n",
		c.Messages.Sent(), c.Messages.Received(), c.Verified)
	return b.String()
}

// ---------------------------------------------------------------------------
// Table V — commands and state variables

// Table5 computes the full Table V from the live system: today scripts
// from the legacy package, CONMan scripts freshly compiled and counted.
func Table5() ([]legacy.TableVRow, string, error) {
	rows := make([]legacy.TableVRow, 0, 3)
	specs := []struct {
		name  string
		vlan  bool
		desc  string
		today legacy.Script
	}{
		{"GRE", false, "GRE-IP tunnel", legacy.TodayGRE()},
		{"MPLS", false, "MPLS", legacy.TodayMPLS()},
		{"VLAN", true, "VLAN tunnel", legacy.TodayVLAN()},
	}
	for i, s := range specs {
		cmp, err := runVPN(s.vlan, s.desc, s.today, uint32(50000+1000*i))
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", s.name, err)
		}
		conman := legacy.ClassifyCONMan(s.name, cmp.CONManScript)
		rows = append(rows, legacy.TableVRow{
			Scenario: s.name,
			Today:    legacy.Count(s.today),
			CONMan:   legacy.Count(conman),
		})
	}
	return rows, legacy.RenderTableV(rows), nil
}

// ---------------------------------------------------------------------------
// Table VI — NM messaging overhead vs path length

// Table6Row is one measurement.
type Table6Row struct {
	Scenario       string
	N              int
	Sent, Received int
	WantSent       int
	WantReceived   int
}

// Matches reports whether the measurement equals the paper's formula.
func (r Table6Row) Matches() bool {
	return r.Sent == r.WantSent && r.Received == r.WantReceived
}

// Table6 sweeps chain lengths and measures the NM's configuration
// messages, comparing them to the paper's closed forms: GRE 3n+2 / 2n+2,
// MPLS 3n-2 / 2n-1, VLAN 3n-2 / 2n-1. The paper's accounting runs were
// strictly sequential, so Table6 runs the NM with one worker; the scale
// tests assert the concurrent executor produces the same counters.
func Table6(ns []int) ([]Table6Row, string, error) {
	var rows []Table6Row
	for _, n := range ns {
		for _, sc := range LinearScenarios() {
			tb, err := sc.Build(n)
			if err != nil {
				return nil, "", fmt.Errorf("%s n=%d: %w", sc.Name, n, err)
			}
			tb.NM.Workers = 1
			if _, err := sc.ConfigureLinear(tb, n); err != nil {
				return nil, "", err
			}
			c := tb.NM.Counters()
			rows = append(rows, Table6Row{
				Scenario: sc.Name, N: n,
				Sent: c.Sent(), Received: c.Received(),
				WantSent: sc.WantSent(n), WantReceived: sc.WantRecv(n),
			})
		}
	}
	var b strings.Builder
	b.WriteString("Scenario  n   Sent (paper)   Received (paper)\n")
	for _, r := range rows {
		mark := "ok"
		if !r.Matches() {
			mark = "MISMATCH"
		}
		fmt.Fprintf(&b, "%-9s %-3d %4d (%4d)    %4d (%4d)   %s\n",
			r.Scenario, r.N, r.Sent, r.WantSent, r.Received, r.WantReceived, mark)
	}
	return rows, b.String(), nil
}
