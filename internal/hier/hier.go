// Package hier detects circuit hierarchy from a device-level netlist,
// in the spirit of the sizing-rules method (Graeb et al. [9], Massier
// et al. [21]) the paper cites as the automatic way to obtain the
// hierarchy tree of Section IV (Fig. 6) and the clusters of Section
// III. It recognizes the basic analog building blocks — differential
// pairs and current mirrors — and groups the remaining devices by
// connectivity, producing:
//
//   - a hierarchy tree (constraint.Node) whose leaf sub-circuits are
//     the "basic module sets" of the deterministic placer, and
//   - the layout constraints those blocks imply: symmetry for
//     differential pairs, common-centroid for current mirrors,
//     proximity for connectivity clusters.
package hier

import (
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/netlist"
)

// BlockKind classifies a recognized structure.
type BlockKind int

// Recognized analog building blocks.
const (
	DiffPair BlockKind = iota
	CurrentMirror
	Cluster // connectivity group with no specific structure
)

// String implements fmt.Stringer.
func (k BlockKind) String() string {
	switch k {
	case DiffPair:
		return "diff-pair"
	case CurrentMirror:
		return "current-mirror"
	case Cluster:
		return "cluster"
	}
	return fmt.Sprintf("BlockKind(%d)", int(k))
}

// Block is one recognized structure over device names.
type Block struct {
	Kind    BlockKind
	Name    string
	Devices []string
}

// Detect recognizes differential pairs and current mirrors in the
// circuit. globals name supply nets (ignored for matching
// common-source tests, since every device shares them). Devices are
// assigned to at most one block, differential pairs taking precedence;
// leftovers are not reported (see BuildTree for full coverage).
func Detect(c *netlist.Circuit, globals ...string) []Block {
	isGlobal := map[string]bool{}
	for _, g := range globals {
		isGlobal[g] = true
	}
	taken := map[string]bool{}
	var blocks []Block

	mosDevices := make([]*netlist.Device, 0, len(c.Devices))
	for _, d := range c.Devices {
		if d.IsMOS() {
			mosDevices = append(mosDevices, d)
		}
	}

	// Differential pairs: two same-type MOS sharing a non-global
	// source net, with distinct gate nets.
	bySource := map[string][]*netlist.Device{}
	for _, d := range mosDevices {
		s := d.Ports["S"]
		if s != "" && !isGlobal[s] {
			bySource[s] = append(bySource[s], d)
		}
	}
	for _, net := range sortedKeys(bySource) {
		devs := bySource[net]
		for i := 0; i < len(devs); i++ {
			for j := i + 1; j < len(devs); j++ {
				a, b := devs[i], devs[j]
				if taken[a.Name] || taken[b.Name] || a.Type != b.Type {
					continue
				}
				if a.Ports["G"] == b.Ports["G"] {
					continue // common gate: mirror-like, not a diff pair
				}
				taken[a.Name], taken[b.Name] = true, true
				blocks = append(blocks, Block{
					Kind:    DiffPair,
					Name:    fmt.Sprintf("dp_%s_%s", a.Name, b.Name),
					Devices: []string{a.Name, b.Name},
				})
			}
		}
	}

	// Current mirrors: same-type MOS sharing gate net and source net,
	// at least one diode-connected (D == G).
	type key struct {
		g, s string
		t    netlist.DeviceType
	}
	byGS := map[key][]*netlist.Device{}
	for _, d := range mosDevices {
		if taken[d.Name] {
			continue
		}
		g, s := d.Ports["G"], d.Ports["S"]
		if g == "" || s == "" || isGlobal[g] {
			continue
		}
		byGS[key{g, s, d.Type}] = append(byGS[key{g, s, d.Type}], d)
	}
	keys := make([]key, 0, len(byGS))
	for k := range byGS {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].g != keys[j].g {
			return keys[i].g < keys[j].g
		}
		if keys[i].s != keys[j].s {
			return keys[i].s < keys[j].s
		}
		return keys[i].t < keys[j].t
	})
	for _, k := range keys {
		devs := byGS[k]
		if len(devs) < 2 {
			continue
		}
		diode := false
		for _, d := range devs {
			if d.Ports["D"] == d.Ports["G"] {
				diode = true
				break
			}
		}
		if !diode {
			continue
		}
		names := make([]string, 0, len(devs))
		for _, d := range devs {
			if !taken[d.Name] {
				names = append(names, d.Name)
			}
		}
		if len(names) < 2 {
			continue
		}
		sort.Strings(names)
		for _, n := range names {
			taken[n] = true
		}
		blocks = append(blocks, Block{
			Kind:    CurrentMirror,
			Name:    "cm_" + names[0],
			Devices: names,
		})
	}
	return blocks
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BuildTree detects blocks and assembles the layout design hierarchy:
// a root node whose children are the recognized blocks (as
// constraint-carrying sub-circuits) plus one node per remaining
// device. Differential pairs become symmetry nodes, current mirrors
// become common-centroid nodes (each device contributing itself as a
// single unit), and the root itself carries no constraint.
func BuildTree(c *netlist.Circuit, globals ...string) (*constraint.Node, []Block) {
	blocks := Detect(c, globals...)
	root := &constraint.Node{Name: c.Name}
	used := map[string]bool{}
	for _, b := range blocks {
		child := &constraint.Node{Name: b.Name, Devices: b.Devices}
		switch b.Kind {
		case DiffPair:
			child.Kind = constraint.KindSymmetry
			child.Pairs = [][2]string{{b.Devices[0], b.Devices[1]}}
		case CurrentMirror:
			// Mirror devices with identical footprints can be matched
			// as a symmetric row (pairs outside-in, central self for
			// odd counts); ratioed mirrors fall back to proximity.
			if equalFootprints(c, b.Devices) {
				child.Kind = constraint.KindSymmetry
				for i, j := 0, len(b.Devices)-1; i < j; i, j = i+1, j-1 {
					child.Pairs = append(child.Pairs, [2]string{b.Devices[i], b.Devices[j]})
				}
				if len(b.Devices)%2 == 1 {
					child.Selfs = []string{b.Devices[len(b.Devices)/2]}
				}
			} else {
				child.Kind = constraint.KindProximity
			}
		default:
			child.Kind = constraint.KindProximity
		}
		root.Children = append(root.Children, child)
		for _, d := range b.Devices {
			used[d] = true
		}
	}
	for _, d := range c.Devices {
		if !used[d.Name] {
			root.Devices = append(root.Devices, d.Name)
		}
	}
	return root, blocks
}

// equalFootprints reports whether all named devices share one
// footprint.
func equalFootprints(c *netlist.Circuit, names []string) bool {
	if len(names) == 0 {
		return true
	}
	first := c.Device(names[0])
	for _, n := range names[1:] {
		d := c.Device(n)
		if d == nil || first == nil || d.FW != first.FW || d.FH != first.FH {
			return false
		}
	}
	return true
}

// BasicModuleSets returns the leaf-level module groups of a hierarchy
// tree — the "basic module sets" whose placements the deterministic
// placer of Section IV enumerates exhaustively. Each set is the device
// list of one leaf node (a node without children); direct devices of
// inner nodes form singleton sets.
func BasicModuleSets(root *constraint.Node) [][]string {
	var out [][]string
	var walk func(n *constraint.Node)
	walk = func(n *constraint.Node) {
		if len(n.Children) == 0 {
			if len(n.Devices) > 0 {
				out = append(out, append([]string(nil), n.Devices...))
			}
			return
		}
		for _, d := range n.Devices {
			out = append(out, []string{d})
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}
