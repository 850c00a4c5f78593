package wire

import "repro/placer"

// FromCanon puts a deep copy of a placer problem on the wire, with
// the version written explicitly. The input is not normalized
// implicitly; encode what you mean.
func FromCanon(cp *placer.Problem) *Problem {
	return &Problem{Version: Version, Problem: *cp.Clone()}
}
