// Hierarchy: build a layout design hierarchy in the style of Fig. 2 —
// sub-circuits with symmetry and proximity constraints under a top
// design — model it with HB*-trees (Fig. 5), and produce a placement
// whose islands stay mirrored through every annealing move (Fig. 4).
//
//	go run ./examples/hierarchy
package main

import (
	"fmt"
	"log"

	"repro/internal/anneal"
	"repro/internal/circuits"
	"repro/internal/constraint"
	"repro/internal/hbstar"
	"repro/internal/hier"
	"repro/internal/place"
)

func main() {
	// Fig. 2-style design: the folded cascode has four symmetric
	// pairs, a matched mirror and a proximity-bound bias cluster.
	bench := circuits.FoldedCascode()
	fmt.Printf("design %q: %d devices\n", bench.Name, len(bench.Circuit.Devices))
	printTree(bench.Tree, 0)

	// The hierarchy can also be detected automatically from the
	// netlist (sizing-rules style), as Section III assumes.
	detected, blocks := hier.BuildTree(bench.Circuit, "vdd", "gnd")
	fmt.Printf("\nstructural recognition found %d blocks:\n", len(blocks))
	for _, b := range blocks {
		fmt.Printf("  %-14s %v\n", b.Kind, b.Devices)
	}
	_ = detected

	// Place with HB*-trees: one tree per sub-circuit plus the top.
	prob, err := place.FromBench(bench)
	if err != nil {
		log.Fatal(err)
	}
	prob.WireWeight = 0.5
	res, err := hbstar.Place(prob, bench.Tree,
		anneal.Options{Seed: 3, MovesPerStage: 150, MaxStages: 200, StallStages: 40})
	if err != nil {
		log.Fatal(err)
	}
	bb := res.Placement.BBox()
	fmt.Printf("\nHB*-tree placement: %dx%d, usage %.1f%%, legal=%v\n",
		bb.W, bb.H, 100*res.Placement.AreaUsage(), res.Placement.Legal())
	if len(res.Violations) == 0 {
		fmt.Println("all hierarchical constraints satisfied")
	}
	for _, v := range res.Violations {
		fmt.Println("violation:", v)
	}
}

func printTree(n *constraint.Node, depth int) {
	pad := ""
	for i := 0; i < depth; i++ {
		pad += "  "
	}
	kind := ""
	if n.Kind != constraint.KindNone {
		kind = " [" + n.Kind + "]"
	}
	fmt.Printf("%s%s%s %v\n", pad, n.Name, kind, n.Devices)
	for _, c := range n.Children {
		printTree(c, depth+1)
	}
}
