package experiments

import "conman/internal/nm"

// nmBuild builds the NM's potential graph for a testbed.
func nmBuild(tb *Testbed) (*nm.Graph, error) { return nm.BuildGraph(tb.NM) }

// nmSpec turns a goal into a path-finder spec.
func nmSpec(goal nm.Goal) nm.FindSpec {
	return nm.FindSpec{From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain}
}

// VPNIntent wraps a goal as a named intent; prefer pins a path flavour
// by description ("MPLS", "GRE-IP tunnel", "VLAN tunnel") or "" for the
// paper's automatic selector.
func VPNIntent(goal nm.Goal, prefer string) nm.Intent {
	name := prefer
	if name == "" {
		name = "vpn"
	}
	return nm.Intent{Name: name, Goal: goal, Prefer: prefer}
}

// ConfigureVPN is the one-call high-level API the examples use: plan the
// goal as an intent and apply the reconciliation. On a fresh testbed the
// plan is pure creation, so this behaves exactly like the old one-shot
// pipeline; on a partially (or differently) configured one it heals or
// reconfigures. Returns the chosen path and the create batches applied.
func ConfigureVPN(tb *Testbed, goal nm.Goal, prefer string) (*nm.Path, []nm.DeviceScript, error) {
	plan, err := tb.NM.Plan(VPNIntent(goal, prefer))
	if err != nil {
		return nil, nil, err
	}
	if err := tb.NM.Apply(plan); err != nil {
		return nil, nil, err
	}
	return plan.Path, plan.Creates, nil
}
