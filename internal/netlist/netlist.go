// Package netlist models analog circuits at the device level: devices
// with typed ports, nets connecting them, and named sub-circuit scopes.
// It is the common input format of every placer and of the layout-aware
// sizing flow, and includes a SPICE-like parser and writer so circuits
// can be stored as text.
//
// A netlist carries two kinds of size information. Electrical
// parameters (transistor W/L in micrometers, capacitance, resistance)
// live in Device.Params and drive the performance evaluator of the
// sizing flow. The layout footprint (Device.FW, Device.FH, integer grid
// units) drives the placers; it is either assigned explicitly by
// circuit generators or derived from the electrical parameters by the
// layout template engine.
package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// DeviceType classifies a device card.
type DeviceType int

// Device types recognized by the netlist and by the structural
// recognition pass in package hier.
const (
	NMOS DeviceType = iota
	PMOS
	Resistor
	Capacitor
	Block // pre-characterized layout block with a fixed footprint
)

// String implements fmt.Stringer.
func (t DeviceType) String() string {
	switch t {
	case NMOS:
		return "nmos"
	case PMOS:
		return "pmos"
	case Resistor:
		return "res"
	case Capacitor:
		return "cap"
	case Block:
		return "block"
	}
	return fmt.Sprintf("DeviceType(%d)", int(t))
}

// Device is one placeable, sizeable circuit element.
type Device struct {
	Name   string
	Type   DeviceType
	Ports  map[string]string  // port name -> net name ("D","G","S","B"; "P","N" for R/C)
	Params map[string]float64 // electrical parameters ("w", "l", "c", "r", "m")
	FW, FH int                // layout footprint in grid units (0 = not yet derived)
}

// PortNames returns the device's port names in sorted order.
func (d *Device) PortNames() []string {
	names := make([]string, 0, len(d.Ports))
	for p := range d.Ports {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}

// Param returns the named parameter, or def when absent.
func (d *Device) Param(name string, def float64) float64 {
	if v, ok := d.Params[name]; ok {
		return v
	}
	return def
}

// IsMOS reports whether the device is a MOS transistor.
func (d *Device) IsMOS() bool { return d.Type == NMOS || d.Type == PMOS }

// Pin identifies one connection point: a device port.
type Pin struct {
	Device string
	Port   string
}

// Circuit is a flat collection of devices plus the nets they form.
// Hierarchical structure (sub-circuit grouping) is represented
// separately by package hier so that both exact circuit hierarchy and
// virtual clustering hierarchies can coexist over the same netlist.
type Circuit struct {
	Name    string
	Devices []*Device // in declaration order
	byName  map[string]*Device
}

// NewCircuit returns an empty circuit with the given name.
func NewCircuit(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]*Device)}
}

// Add inserts a device. It returns an error when the name is empty or
// already taken.
func (c *Circuit) Add(d *Device) error {
	if d.Name == "" {
		return fmt.Errorf("netlist: device with empty name")
	}
	if _, dup := c.byName[d.Name]; dup {
		return fmt.Errorf("netlist: duplicate device %q", d.Name)
	}
	if d.Ports == nil {
		d.Ports = map[string]string{}
	}
	if d.Params == nil {
		d.Params = map[string]float64{}
	}
	c.Devices = append(c.Devices, d)
	c.byName[d.Name] = d
	return nil
}

// MustAdd is Add that panics on error, for use by circuit generators
// with programmatically unique names.
func (c *Circuit) MustAdd(d *Device) {
	if err := c.Add(d); err != nil {
		panic(err)
	}
}

// Device returns the named device, or nil.
func (c *Circuit) Device(name string) *Device { return c.byName[name] }

// Nets returns a map from net name to the pins on that net, built from
// the current device port assignments.
func (c *Circuit) Nets() map[string][]Pin {
	nets := map[string][]Pin{}
	for _, d := range c.Devices {
		for port, net := range d.Ports {
			if net == "" {
				continue
			}
			nets[net] = append(nets[net], Pin{Device: d.Name, Port: port})
		}
	}
	for _, pins := range nets {
		sort.Slice(pins, func(i, j int) bool {
			if pins[i].Device != pins[j].Device {
				return pins[i].Device < pins[j].Device
			}
			return pins[i].Port < pins[j].Port
		})
	}
	return nets
}

// NetNames returns the sorted names of all nets.
func (c *Circuit) NetNames() []string {
	nets := c.Nets()
	names := make([]string, 0, len(nets))
	for n := range nets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SignalNets returns net -> device names, excluding the named global
// nets (supplies), which placers should not optimize wirelength for.
func (c *Circuit) SignalNets(globals ...string) map[string][]string {
	skip := map[string]bool{}
	for _, g := range globals {
		skip[g] = true
	}
	out := map[string][]string{}
	for net, pins := range c.Nets() {
		if skip[net] {
			continue
		}
		seen := map[string]bool{}
		var devs []string
		for _, p := range pins {
			if !seen[p.Device] {
				seen[p.Device] = true
				devs = append(devs, p.Device)
			}
		}
		if len(devs) >= 2 {
			out[net] = devs
		}
	}
	return out
}

// ConnectedDevices returns, for each device, the set of devices sharing
// at least one non-global net with it. Used by proximity-cluster
// validation and by the hierarchy detector.
func (c *Circuit) ConnectedDevices(globals ...string) map[string]map[string]bool {
	adj := map[string]map[string]bool{}
	for _, d := range c.Devices {
		adj[d.Name] = map[string]bool{}
	}
	for _, devs := range c.SignalNets(globals...) {
		for i := 0; i < len(devs); i++ {
			for j := i + 1; j < len(devs); j++ {
				adj[devs[i]][devs[j]] = true
				adj[devs[j]][devs[i]] = true
			}
		}
	}
	return adj
}

// Validate checks structural sanity: every device has at least one
// port, MOS devices have D/G/S ports, and footprints are non-negative.
func (c *Circuit) Validate() error {
	for _, d := range c.Devices {
		if len(d.Ports) == 0 {
			return fmt.Errorf("netlist: device %q has no ports", d.Name)
		}
		if d.IsMOS() {
			for _, p := range []string{"D", "G", "S"} {
				if _, ok := d.Ports[p]; !ok {
					return fmt.Errorf("netlist: MOS %q missing port %s", d.Name, p)
				}
			}
		}
		if d.FW < 0 || d.FH < 0 {
			return fmt.Errorf("netlist: device %q has negative footprint", d.Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := NewCircuit(c.Name)
	for _, d := range c.Devices {
		nd := &Device{
			Name:   d.Name,
			Type:   d.Type,
			Ports:  make(map[string]string, len(d.Ports)),
			Params: make(map[string]float64, len(d.Params)),
			FW:     d.FW,
			FH:     d.FH,
		}
		for k, v := range d.Ports {
			nd.Ports[k] = v
		}
		for k, v := range d.Params {
			nd.Params[k] = v
		}
		out.MustAdd(nd)
	}
	return out
}

// String renders the circuit in the SPICE-like format accepted by
// Parse.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".circuit %s\n", c.Name)
	for _, d := range c.Devices {
		b.WriteString(formatDevice(d))
		b.WriteByte('\n')
	}
	b.WriteString(".end\n")
	return b.String()
}

func formatDevice(d *Device) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", d.Name, d.Type)
	for _, p := range d.PortNames() {
		fmt.Fprintf(&b, " %s=%s", p, d.Ports[p])
	}
	params := make([]string, 0, len(d.Params))
	for k := range d.Params {
		params = append(params, k)
	}
	sort.Strings(params)
	for _, k := range params {
		fmt.Fprintf(&b, " %s=%g", k, d.Params[k])
	}
	if d.FW > 0 || d.FH > 0 {
		fmt.Fprintf(&b, " fw=%d fh=%d", d.FW, d.FH)
	}
	return b.String()
}
