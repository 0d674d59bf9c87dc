package core

import (
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"
)

func TestModuleRefString(t *testing.T) {
	cases := []struct {
		ref  ModuleRef
		want string
	}{
		{Ref(NameIPv4, "A", "g"), "<IP,A,g>"},
		{Ref(NameGRE, "B", "b'"), "<GRE,B,b'>"},
		{Ref(NameETH, "C", "f"), "<ETH,C,f>"},
	}
	for _, c := range cases {
		if got := c.ref.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.ref, got, c.want)
		}
		back, err := ParseModuleRef(c.want)
		if err != nil {
			t.Fatalf("parse %q: %v", c.want, err)
		}
		if back != c.ref {
			t.Errorf("round trip %q -> %+v, want %+v", c.want, back, c.ref)
		}
	}
}

func TestParseModuleRefErrors(t *testing.T) {
	for _, bad := range []string{"", "IP,A,g", "<IP,A>", "<a,b,c,d>"} {
		if _, err := ParseModuleRef(bad); err == nil {
			t.Errorf("ParseModuleRef(%q): want error", bad)
		}
	}
}

func TestQuickModuleRefRoundTrip(t *testing.T) {
	f := func(dev, mod string) bool {
		for _, s := range []string{dev, mod} {
			for _, r := range s {
				if r == ',' || r == '<' || r == '>' || r == '\n' {
					return true // skip separators; identifiers exclude them
				}
			}
			if s == "" {
				return true
			}
		}
		ref := Ref(NameGRE, DeviceID(dev), ModuleID(mod))
		back, err := ParseModuleRef(ref.String())
		return err == nil && back == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchModeEffects(t *testing.T) {
	cases := []struct {
		mode SwitchMode
		want HeaderEffect
	}{
		{SwUpDown, EffectPush},
		{SwUpPhy, EffectPush},
		{SwDownPhy, EffectPush},
		{SwDownUp, EffectPop},
		{SwPhyUp, EffectPop},
		{SwPhyDown, EffectPop},
		{SwDownDown, EffectProcess},
		{SwUpUp, EffectProcess},
		{SwPhyPhy, EffectProcess},
	}
	for _, c := range cases {
		if got := c.mode.Effect(); got != c.want {
			t.Errorf("%s effect = %s, want %s", c.mode, got, c.want)
		}
	}
}

func TestSwitchModeString(t *testing.T) {
	if s := SwDownUp.String(); s != "[down => up]" {
		t.Errorf("got %q", s)
	}
	if s := SwPhyPhy.String(); s != "[phy => phy]" {
		t.Errorf("got %q", s)
	}
}

func TestMetricParseRoundTrip(t *testing.T) {
	for m := MetricDelay; m <= MetricOrdering; m++ {
		back, err := ParseMetric(m.String())
		if err != nil || back != m {
			t.Errorf("metric %v round trip: %v %v", m, back, err)
		}
	}
	if _, err := ParseMetric("bogus"); err == nil {
		t.Error("want error for unknown metric")
	}
}

func TestTradeoffKeyAndString(t *testing.T) {
	to := Tradeoff{
		Give:  []Metric{MetricJitter, MetricDelay},
		Get:   []Metric{MetricOrdering},
		Scope: EndUp,
	}
	if got := to.String(); got != "{[jitter, delay] vs [ordering] | up-pipe}" {
		t.Errorf("String = %q", got)
	}
	if got := to.Key(); got != "jitter, delay|ordering|up" {
		t.Errorf("Key = %q", got)
	}
}

// TestParseTradeoffKey pins ParseTradeoffKey as the inverse of Key and
// its rejection of keys Key cannot write.
func TestParseTradeoffKey(t *testing.T) {
	for _, to := range []Tradeoff{
		{Give: []Metric{MetricJitter, MetricDelay}, Get: []Metric{MetricOrdering}, Scope: EndUp},
		{Give: []Metric{MetricLossRate}, Get: []Metric{MetricErrorRate, MetricBandwidth}, Scope: EndPhy},
	} {
		got, err := ParseTradeoffKey(to.Key())
		if err != nil || !reflect.DeepEqual(got, to) {
			t.Errorf("ParseTradeoffKey(%q) = %+v, %v; want %+v", to.Key(), got, err, to)
		}
	}
	for _, bad := range []string{"", "ordering", "delay|ordering", "delay|speed|up", "delay|ordering|sideways"} {
		if _, err := ParseTradeoffKey(bad); err == nil {
			t.Errorf("ParseTradeoffKey(%q): want error", bad)
		}
	}
}

func TestPipeSpecCanConnect(t *testing.T) {
	p := PipeSpec{Connectable: []ModuleName{NameIPv4, NameGRE}}
	if !p.CanConnect(NameIPv4) || !p.CanConnect(NameGRE) || p.CanConnect(NameETH) {
		t.Error("CanConnect wrong")
	}
}

func TestAbstractionClone(t *testing.T) {
	a := Abstraction{
		Ref:      Ref(NameGRE, "A", "l"),
		Up:       PipeSpec{Connectable: []ModuleName{NameIPv4}},
		Peerable: []ModuleName{NameGRE},
		Switch:   SwitchSpec{Modes: []SwitchMode{SwUpDown}},
		Tradeoffs: []Tradeoff{{
			Give: []Metric{MetricLossRate}, Get: []Metric{MetricErrorRate}, Scope: EndUp,
		}},
		Security:   SecuritySpec{StateDependency: &Dependency{Kind: DepExternalState, Token: "keys"}},
		Attributes: map[string]string{"k": "v"},
	}
	b := a.Clone()
	b.Up.Connectable[0] = NameETH
	b.Switch.Modes[0] = SwPhyPhy
	b.Tradeoffs[0].Get[0] = MetricDelay
	b.Security.StateDependency.Token = "changed"
	b.Attributes["k"] = "changed"
	if a.Up.Connectable[0] != NameIPv4 || a.Switch.Modes[0] != SwUpDown ||
		a.Tradeoffs[0].Get[0] != MetricErrorRate ||
		a.Security.StateDependency.Token != "keys" || a.Attributes["k"] != "v" {
		t.Error("Clone aliases original state")
	}
}

func TestAbstractionJSONRoundTrip(t *testing.T) {
	a := Abstraction{
		Ref:      Ref(NameIPv4, "A", "g"),
		Up:       PipeSpec{Connectable: []ModuleName{NameIPv4, NameGRE}},
		Down:     PipeSpec{Connectable: []ModuleName{NameETH}},
		Peerable: []ModuleName{NameIPv4},
		Switch: SwitchSpec{
			Modes: []SwitchMode{SwDownUp, SwDownDown}, StateSource: StateLocal,
		},
		Attributes: map[string]string{"address-domain": "C1"},
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Abstraction
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ref != a.Ref || len(back.Switch.Modes) != 2 ||
		back.Attributes["address-domain"] != "C1" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestSwitchSpecSupports(t *testing.T) {
	s := SwitchSpec{Modes: []SwitchMode{SwDownUp, SwUpDown}}
	if !s.Supports(SwDownUp) || s.Supports(SwPhyPhy) {
		t.Error("Supports wrong")
	}
	if got := s.ModesString(); got != "[down => up],[up => down]" {
		t.Errorf("ModesString = %q", got)
	}
}

func TestFilterSpecCanFilter(t *testing.T) {
	var f FilterSpec
	if f.CanFilter() {
		t.Error("empty spec filters")
	}
	f.Classifiers = []FilterClassifier{FilterByModule}
	if !f.CanFilter() {
		t.Error("spec with classifiers does not filter")
	}
}

func TestSecuritySpecOffers(t *testing.T) {
	if (SecuritySpec{}).Offers() {
		t.Error("empty security offers")
	}
	if !(SecuritySpec{Integrity: true}).Offers() {
		t.Error("integrity not offered")
	}
}

func TestCanPeer(t *testing.T) {
	a := Abstraction{Peerable: []ModuleName{NameGRE}}
	if !a.CanPeer(NameGRE) || a.CanPeer(NameIPv4) {
		t.Error("CanPeer wrong")
	}
}

func TestPrimitivesTableI(t *testing.T) {
	ps := Primitives()
	want := []Primitive{
		PrimShowPotential, PrimShowActual, PrimCreate,
		PrimDelete, PrimConveyMessage, PrimListFieldsAndValues,
	}
	if len(ps) != len(want) {
		t.Fatalf("got %d primitives", len(ps))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("primitive %d = %s, want %s", i, ps[i], want[i])
		}
	}
}

func TestEnumStrings(t *testing.T) {
	// Exercising all String methods keeps renders stable.
	for _, s := range []string{
		EndUp.String(), EndDown.String(), EndPhy.String(),
		EffectPush.String(), EffectPop.String(), EffectProcess.String(),
		DepTradeoff.String(), DepExternalState.String(), DepControlModule.String(),
		FilterByModule.String(), FilterByDevice.String(), FilterByPipe.String(), FilterByModuleType.String(),
		StateLocal.String(), StateExternal.String(),
		KindData.String(), KindControl.String(), KindApplication.String(),
		PipeCreating.String(), PipeUp.String(), PipeDown.String(),
		ComponentPipe.String(), ComponentSwitchRule.String(), ComponentFilterRule.String(), ComponentPerfState.String(),
		ActionDrop.String(), ActionAllow.String(),
	} {
		if s == "" {
			t.Error("empty enum string")
		}
	}
	if NameIPv4.Display() != "IP" || NameGRE.Display() != "GRE" {
		t.Error("Display wrong")
	}
}

func TestModuleStateSortedLowLevel(t *testing.T) {
	st := ModuleState{LowLevel: map[string]string{"b": "2", "a": "1", "c": "3"}}
	keys := st.SortedLowLevel()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("keys = %v", keys)
	}
}

func TestClassifierString(t *testing.T) {
	if got := (Classifier{Kind: "tagged"}).String(); got != "Tagged" {
		t.Errorf("got %q", got)
	}
}
