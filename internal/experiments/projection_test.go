package experiments

import (
	"fmt"
	"strings"
	"testing"

	"conman/internal/core"
	"conman/internal/nm"
)

// batchLines renders per-device batches one "device: command" per line.
func batchLines(batches []nm.DeviceScript) string {
	var b strings.Builder
	for _, ds := range batches {
		for _, line := range ds.Rendered {
			fmt.Fprintf(&b, "%s: %s\n", ds.Device, line)
		}
	}
	return b.String()
}

// TestPlanIsOneIntentStoreProjection pins NM.Plan as a projection of the
// store's reconcile: on a fresh testbed, a per-intent Plan renders the
// same delete and create lines as the PlanStore of a fresh NM whose
// store holds only that intent.
func TestPlanIsOneIntentStoreProjection(t *testing.T) {
	type flavour struct {
		name   string
		build  func() (*Testbed, error)
		intent nm.Intent
	}
	flavours := []flavour{
		{"fig4/GRE", BuildFig4, VPNIntent(Fig4Goal(), "GRE-IP tunnel")},
		{"fig4/MPLS", BuildFig4, VPNIntent(Fig4Goal(), "MPLS")},
		{"fig9/VLAN", BuildFig9, VPNIntent(Fig9Goal(), "VLAN tunnel")},
	}
	for _, sc := range LinearScenarios() {
		for _, n := range []int{3, 8} {
			sc, n := sc, n
			flavours = append(flavours, flavour{
				fmt.Sprintf("linear-%s/n=%d", sc.Name, n),
				func() (*Testbed, error) { return sc.Build(n) },
				sc.Intent(n),
			})
		}
	}
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			per, err := f.build()
			if err != nil {
				t.Fatal(err)
			}
			defer per.Close()
			plan, err := per.NM.Plan(f.intent)
			if err != nil {
				t.Fatal(err)
			}

			store, err := f.build()
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if err := store.NM.Submit(f.intent); err != nil {
				t.Fatal(err)
			}
			sp, err := store.NM.PlanStore()
			if err != nil {
				t.Fatal(err)
			}

			if len(plan.Creates) == 0 {
				t.Fatal("fresh testbed planned no creates")
			}
			if got, want := batchLines(plan.Creates), batchLines(sp.Creates); got != want {
				t.Errorf("creates differ\n--- Plan ---\n%s--- PlanStore ---\n%s", got, want)
			}
			if got, want := batchLines(plan.Deletes), batchLines(sp.Deletes); got != want {
				t.Errorf("deletes differ\n--- Plan ---\n%s--- PlanStore ---\n%s", got, want)
			}
			if plan.InPlace != sp.InPlace {
				t.Errorf("in place: Plan %d, PlanStore %d", plan.InPlace, sp.InPlace)
			}
		})
	}
}

// TestDestroyLeavesOtherIntentsComponents pins the teardown contract on
// a shared device: Destroy deletes only components its own intent binds,
// never observed state another intent installed. Both VPNs of the
// shared-core diamond are reconciled through the store; the teardown
// plan of vpn-c1 must delete its own customer-port rules at the edges
// and none of vpn-c2's, which only vpn-c2 installed.
func TestDestroyLeavesOtherIntentsComponents(t *testing.T) {
	tb, pairs, err := BuildDiamondShared(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	// The installed rule ids on each customer port of the edge switches.
	portRules := map[core.PipeID][]string{}
	for _, dev := range []core.DeviceID{"A", "C"} {
		states, err := tb.NM.ShowActual(dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range states {
			for _, r := range st.SwitchRules {
				for _, port := range []core.PipeID{"Phy-cust1", "Phy-cust2"} {
					if r.From == port || r.To == port {
						portRules[port] = append(portRules[port], r.ID)
					}
				}
			}
		}
	}
	if len(portRules["Phy-cust1"]) != 4 || len(portRules["Phy-cust2"]) != 4 {
		t.Fatalf("want 4 port rules per customer after reconcile, got %v", portRules)
	}

	plan, err := tb.NM.PlanDestroy(pairs[0].Intent("VLAN tunnel"))
	if err != nil {
		t.Fatal(err)
	}
	deletes := batchLines(plan.Deletes)
	for _, id := range portRules["Phy-cust1"] {
		if !strings.Contains(deletes, ", "+id+")") {
			t.Errorf("teardown of vpn-c1 keeps its rule %s:\n%s", id, deletes)
		}
	}
	for _, id := range portRules["Phy-cust2"] {
		if strings.Contains(deletes, ", "+id+")") {
			t.Errorf("teardown of vpn-c1 deletes vpn-c2's rule %s:\n%s", id, deletes)
		}
	}
}
