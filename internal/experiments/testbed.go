// Package experiments builds the paper's evaluation environments and
// regenerates every table and figure of the evaluation section (§III):
// the Fig 4 VPN testbed, the Fig 9 switched topology, linear-n sweeps for
// Table VI, and runners that produce the paper artifacts.
package experiments

import (
	"net/netip"
	"time"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/kernel"
	"conman/internal/modules"
	"conman/internal/msg"
	"conman/internal/netsim"
	"conman/internal/nm"
	"conman/internal/packet"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// EndpointFactory creates named management-channel endpoints; it
// abstracts the transport a testbed runs its management traffic over
// (in-process Hub, real UDP sockets, ...).
type EndpointFactory func(name string) (channel.Endpoint, error)

// Testbed is a built environment: simulated network, managed devices,
// unmanaged customer routers, management channel and NM.
type Testbed struct {
	Net *netsim.Network
	// Hub is the in-process management channel (nil when the testbed was
	// built over another transport via an EndpointFactory).
	Hub      *channel.Hub
	NM       *nm.NM
	Devices  map[core.DeviceID]*device.Device
	Customer map[core.DeviceID]*kernel.Kernel

	factory   EndpointFactory
	endpoints []channel.Endpoint
}

// newEndpoint creates (and tracks for Close) one management-channel
// endpoint through the testbed's transport.
func (tb *Testbed) newEndpoint(name string) (channel.Endpoint, error) {
	ep, err := tb.factory(name)
	if err != nil {
		return nil, err
	}
	tb.endpoints = append(tb.endpoints, ep)
	return ep, nil
}

// Close releases the management-channel endpoints (real sockets for
// transports like UDP; a no-op for the in-process Hub).
func (tb *Testbed) Close() {
	for _, ep := range tb.endpoints {
		_ = ep.Close()
	}
	tb.endpoints = nil
}

// customerRouter creates an unmanaged customer edge router (the paper's D
// and E): uplink address, site LAN, default route to the ISP, proxy ARP.
func customerRouter(net *netsim.Network, id core.DeviceID, uplinkAddr, lan netip.Prefix, gw netip.Addr) (*kernel.Kernel, error) {
	dev := id
	k := kernel.New(dev, kernel.RoleRouter,
		func(port string, frame []byte) error {
			return net.Send(netsim.PortID{Device: dev, Name: port}, frame)
		},
		func(port string) (packet.MAC, bool) {
			m, err := net.PortMAC(netsim.PortID{Device: dev, Name: port})
			return m, err == nil
		})
	net.AddDevice(id, k)
	if _, err := net.AddPort(id, "eth0"); err != nil {
		return nil, err
	}
	k.AddPhysical("eth0")
	if err := k.AddAddr("eth0", uplinkAddr); err != nil {
		return nil, err
	}
	k.AddLAN("lan0", lan)
	k.SetIPForward(true)
	k.SetProxyARP(true)
	if err := k.AddRoute("", kernel.Route{Via: gw, Dev: "eth0", MPLSKey: -1}); err != nil {
		return nil, err
	}
	return k, nil
}

// connect joins two ports.
func connect(net *netsim.Network, name string, a, b netsim.PortID) error {
	_, err := net.Connect(name, a, b)
	return err
}

// BuildFig4 constructs the paper's Fig 4 testbed: ISP edge routers A and
// C, core router B, customer routers D (site S1) and E (site S2), with
// the module inventory of Fig 4(b) / Table IV, a management channel and a
// started NM that has discovered topology and potential.
func BuildFig4() (*Testbed, error) {
	net := netsim.New()
	hub := channel.NewHub()
	tb := &Testbed{
		Net: net, Hub: hub, NM: nm.New(),
		Devices:  make(map[core.DeviceID]*device.Device),
		Customer: make(map[core.DeviceID]*kernel.Kernel),
	}
	tb.NM.AttachChannel(hub.Endpoint(msg.NMName))

	// Managed routers.
	a, err := device.New(net, "A", kernel.RoleRouter, "eth1", "eth2")
	if err != nil {
		return nil, err
	}
	b, err := device.New(net, "B", kernel.RoleRouter, "eth0", "eth1")
	if err != nil {
		return nil, err
	}
	c, err := device.New(net, "C", kernel.RoleRouter, "eth2", "eth1")
	if err != nil {
		return nil, err
	}
	a.MarkExternal("eth1")
	c.MarkExternal("eth1")
	tb.Devices["A"], tb.Devices["B"], tb.Devices["C"] = a, b, c

	// Customer routers (outside the managed domain).
	d, err := customerRouter(net, "D", pfx("192.168.0.1/24"), pfx("10.0.1.1/24"), ip("192.168.0.2"))
	if err != nil {
		return nil, err
	}
	e, err := customerRouter(net, "E", pfx("192.168.1.1/24"), pfx("10.0.2.1/24"), ip("192.168.1.2"))
	if err != nil {
		return nil, err
	}
	tb.Customer["D"], tb.Customer["E"] = d, e

	// Wires.
	for _, l := range []struct {
		name string
		a, b netsim.PortID
	}{
		{"DA", netsim.PortID{Device: "D", Name: "eth0"}, netsim.PortID{Device: "A", Name: "eth1"}},
		{"AB", netsim.PortID{Device: "A", Name: "eth2"}, netsim.PortID{Device: "B", Name: "eth0"}},
		{"BC", netsim.PortID{Device: "B", Name: "eth1"}, netsim.PortID{Device: "C", Name: "eth2"}},
		{"CE", netsim.PortID{Device: "C", Name: "eth1"}, netsim.PortID{Device: "E", Name: "eth0"}},
	} {
		if err := connect(net, l.name, l.a, l.b); err != nil {
			return nil, err
		}
	}

	// Modules, per Fig 4(b): A has ETH a,b; IP g (customer side), h
	// (ISP); GRE l; MPLS o. B has ETH c,d; IP i; MPLS p. C has ETH e,f;
	// IP j (ISP), k (customer); GRE n; MPLS q.
	addETH := func(dev *device.Device, id core.ModuleID, iface string, external bool) {
		m := modules.NewETH(dev.MA, id, false, iface)
		if external {
			m.RegisterPhysical(dev.MA, iface)
		} else {
			m.RegisterPhysical(dev.MA)
		}
		dev.AddModule(m)
	}
	addIP := func(dev *device.Device, id core.ModuleID, domain string, addrs map[string]netip.Prefix) error {
		m, err := modules.NewIP(dev.MA, id, domain, addrs)
		if err != nil {
			return err
		}
		dev.AddModule(m)
		return nil
	}

	addETH(a, "a", "eth1", true)
	addETH(a, "b", "eth2", false)
	if err := addIP(a, "g", "C1", map[string]netip.Prefix{"eth1": pfx("192.168.0.2/24")}); err != nil {
		return nil, err
	}
	if err := addIP(a, "h", "ISP", map[string]netip.Prefix{"eth2": pfx("204.9.168.1/24")}); err != nil {
		return nil, err
	}
	a.AddModule(modules.NewGRE(a.MA, "l"))
	a.AddModule(modules.NewMPLS(a.MA, "o", 10001))

	addETH(b, "c", "eth0", false)
	addETH(b, "d", "eth1", false)
	if err := addIP(b, "i", "ISP", map[string]netip.Prefix{
		"eth0": pfx("204.9.168.2/24"),
		"eth1": pfx("204.9.169.2/24"),
	}); err != nil {
		return nil, err
	}
	b.AddModule(modules.NewMPLS(b.MA, "p", 2001))

	addETH(c, "e", "eth2", false)
	addETH(c, "f", "eth1", true)
	if err := addIP(c, "j", "ISP", map[string]netip.Prefix{"eth2": pfx("204.9.169.1/24")}); err != nil {
		return nil, err
	}
	if err := addIP(c, "k", "C1", map[string]netip.Prefix{"eth1": pfx("192.168.1.2/24")}); err != nil {
		return nil, err
	}
	c.AddModule(modules.NewGRE(c.MA, "n"))
	c.AddModule(modules.NewMPLS(c.MA, "q", 3001))

	// Management channel + device start.
	for _, dev := range []*device.Device{a, b, c} {
		dev.MA.AttachChannel(hub.Endpoint(string(dev.ID)))
		if err := dev.MA.Start(); err != nil {
			return nil, err
		}
	}

	// The NM's admitted protocol-specific knowledge (§III-C): address
	// domains and site gateways.
	tb.NM.SetDomain("C1-S1", "10.0.1.0/24")
	tb.NM.SetDomain("C1-S2", "10.0.2.0/24")
	tb.NM.SetGateway("S1-gateway", "192.168.0.1")
	tb.NM.SetGateway("S2-gateway", "192.168.1.1")

	if err := tb.NM.DiscoverAll(); err != nil {
		return nil, err
	}
	return tb, nil
}

// Fig4Goal is the high-level goal of §III-C: connectivity between the
// customer-facing interfaces of A and C for traffic between C1-S1 and
// C1-S2.
func Fig4Goal() nm.Goal {
	return nm.Goal{
		From:          core.Ref(core.NameETH, "A", "a"),
		To:            core.Ref(core.NameETH, "C", "f"),
		FromDomain:    "C1-S1",
		ToDomain:      "C1-S2",
		FromGateway:   "S1-gateway",
		ToGateway:     "S2-gateway",
		TrafficDomain: "C1",
	}
}

// VerifyConnectivity injects probe traffic between the customer sites and
// reports whether both directions deliver (§"Data-plane verification" in
// DESIGN.md). It also confirms isolation: traffic to an unconfigured
// prefix must not leak. It probes the canonical D/E customer pair of the
// paper testbeds; shared-core testbeds verify each of their pairs via
// VerifyPair.
func (tb *Testbed) VerifyConnectivity(token uint32) error {
	return tb.VerifyPair(SharedPair{
		Index: 1, D: "D", E: "E",
		SrcIP: ip("10.0.1.1"), DstIP: ip("10.0.2.1"),
	}, token)
}

// WaitStableCounters polls the NM counters every 10ms until ten
// consecutive reads are identical or timeout has passed, and returns
// the last read. Asynchronous transports deliver module relays after
// Apply returns; this is the point at which their counts are final.
func (tb *Testbed) WaitStableCounters(timeout time.Duration) nm.Counters {
	deadline := time.Now().Add(timeout)
	last := tb.NM.Counters()
	for stable := 0; stable < 10 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if cur := tb.NM.Counters(); cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
	}
	return last
}

// BuildFig9 constructs the VLAN tunneling topology of Fig 9: three
// managed L2 switches between the customer routers, QinQ tunnel ports at
// the edges.
func BuildFig9() (*Testbed, error) {
	net := netsim.New()
	hub := channel.NewHub()
	tb := &Testbed{
		Net: net, Hub: hub, NM: nm.New(),
		Devices:  make(map[core.DeviceID]*device.Device),
		Customer: make(map[core.DeviceID]*kernel.Kernel),
	}
	tb.NM.AttachChannel(hub.Endpoint(msg.NMName))

	mkSwitch := func(id core.DeviceID, custPort, trunkLeft, trunkRight string) (*device.Device, error) {
		ports := []string{}
		if custPort != "" {
			ports = append(ports, custPort)
		}
		if trunkLeft != "" {
			ports = append(ports, trunkLeft)
		}
		if trunkRight != "" {
			ports = append(ports, trunkRight)
		}
		dev, err := device.New(net, id, kernel.RoleSwitch, ports...)
		if err != nil {
			return nil, err
		}
		if custPort != "" {
			dev.MarkExternal(custPort)
		}
		ethID := core.ModuleID(map[core.DeviceID]string{"A": "a", "B": "b", "C": "c"}[id])
		eth := modules.NewETH(dev.MA, ethID, true, ports...)
		if custPort != "" {
			eth.RegisterPhysical(dev.MA, custPort)
		} else {
			eth.RegisterPhysical(dev.MA)
		}
		dev.AddModule(eth)
		vlanID := core.ModuleID(map[core.DeviceID]string{"A": "d", "B": "e", "C": "f"}[id])
		dev.AddModule(modules.NewVLAN(dev.MA, vlanID, 22, "C1", 1504))
		tb.Devices[id] = dev
		return dev, nil
	}

	swA, err := mkSwitch("A", "gigabitethernet0/7", "", "gigabitethernet0/9")
	if err != nil {
		return nil, err
	}
	swB, err := mkSwitch("B", "", "gigabitethernet0/1", "gigabitethernet0/2")
	if err != nil {
		return nil, err
	}
	swC, err := mkSwitch("C", "gigabitethernet0/7", "gigabitethernet0/9", "")
	if err != nil {
		return nil, err
	}

	// Customer routers share a subnet across the L2 tunnel.
	d, err := customerRouter(net, "D", pfx("192.168.5.1/24"), pfx("10.0.1.1/24"), ip("192.168.5.2"))
	if err != nil {
		return nil, err
	}
	e, err := customerRouter(net, "E", pfx("192.168.5.2/24"), pfx("10.0.2.1/24"), ip("192.168.5.1"))
	if err != nil {
		return nil, err
	}
	if err := d.AddRoute("", kernel.Route{Dst: pfx("10.0.2.0/24"), Via: ip("192.168.5.2"), Dev: "eth0", MPLSKey: -1}); err != nil {
		return nil, err
	}
	if err := e.AddRoute("", kernel.Route{Dst: pfx("10.0.1.0/24"), Via: ip("192.168.5.1"), Dev: "eth0", MPLSKey: -1}); err != nil {
		return nil, err
	}
	tb.Customer["D"], tb.Customer["E"] = d, e

	for _, l := range []struct {
		name string
		a, b netsim.PortID
	}{
		{"D-SwA", netsim.PortID{Device: "D", Name: "eth0"}, netsim.PortID{Device: "A", Name: "gigabitethernet0/7"}},
		{"SwA-SwB", netsim.PortID{Device: "A", Name: "gigabitethernet0/9"}, netsim.PortID{Device: "B", Name: "gigabitethernet0/1"}},
		{"SwB-SwC", netsim.PortID{Device: "B", Name: "gigabitethernet0/2"}, netsim.PortID{Device: "C", Name: "gigabitethernet0/9"}},
		{"SwC-E", netsim.PortID{Device: "C", Name: "gigabitethernet0/7"}, netsim.PortID{Device: "E", Name: "eth0"}},
	} {
		if err := connect(net, l.name, l.a, l.b); err != nil {
			return nil, err
		}
	}

	for _, dev := range []*device.Device{swA, swB, swC} {
		dev.MA.AttachChannel(hub.Endpoint(string(dev.ID)))
		if err := dev.MA.Start(); err != nil {
			return nil, err
		}
	}
	tb.NM.SetDomain("C1-S1", "10.0.1.0/24")
	tb.NM.SetDomain("C1-S2", "10.0.2.0/24")
	tb.NM.SetGateway("S1-gateway", "192.168.5.1")
	tb.NM.SetGateway("S2-gateway", "192.168.5.2")
	if err := tb.NM.DiscoverAll(); err != nil {
		return nil, err
	}
	return tb, nil
}

// Fig9Goal is the VLAN tunnel goal: connectivity between the two
// customer-facing switch ports.
func Fig9Goal() nm.Goal {
	return nm.Goal{
		From:          core.Ref(core.NameETH, "A", "a"),
		To:            core.Ref(core.NameETH, "C", "c"),
		FromDomain:    "C1-S1",
		ToDomain:      "C1-S2",
		FromGateway:   "S1-gateway",
		ToGateway:     "S2-gateway",
		TrafficDomain: "C1",
		TagClassified: true,
	}
}
