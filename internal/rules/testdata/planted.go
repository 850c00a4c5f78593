// Package planted breaks the engine-name rule on purpose: each line
// marked "want" compares an engine name, spelled after the marker, and
// the rule test checks that the checker reports exactly those.
package planted

import p "repro/placer"

func pick(method string) int {
	if method == p.SeqPair { // want p.SeqPair
		return 1
	}
	if "bstar" != method { // want "bstar"
		return 2
	}
	switch method {
	case p.HBStar, "esf": // want p.HBStar "esf"
		return 3
	case "portfolio", "nosuch": // not engines
		return 4
	}
	if len(method) == p.MaxShapeModules { // a placer constant, not an engine
		return 5
	}
	return 0
}
