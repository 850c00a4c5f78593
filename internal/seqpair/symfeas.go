package seqpair

import (
	"fmt"
	"math/rand"
	"sort"
)

// Group is a symmetry group over module ids: pairs of symmetric
// modules plus self-symmetric modules, all sharing one vertical axis
// (the paper's γ = {(C,D), (B,G), A, F}).
type Group struct {
	Pairs [][2]int
	Selfs []int
}

// Members returns all module ids in the group.
func (g Group) Members() []int {
	out := make([]int, 0, g.Size())
	for _, p := range g.Pairs {
		out = append(out, p[0], p[1])
	}
	out = append(out, g.Selfs...)
	return out
}

// Size returns 2p + s, the number of modules in the group.
func (g Group) Size() int { return 2*len(g.Pairs) + len(g.Selfs) }

// Sym returns sym(m) and whether m belongs to the group.
// Self-symmetric modules map to themselves.
func (g Group) Sym(m int) (int, bool) {
	for _, p := range g.Pairs {
		if p[0] == m {
			return p[1], true
		}
		if p[1] == m {
			return p[0], true
		}
	}
	for _, s := range g.Selfs {
		if s == m {
			return m, true
		}
	}
	return 0, false
}

// Validate checks that group members are distinct and within [0, n).
func (g Group) Validate(n int) error {
	seen := map[int]bool{}
	for _, m := range g.Members() {
		if m < 0 || m >= n {
			return fmt.Errorf("seqpair: group member %d out of range [0,%d)", m, n)
		}
		if seen[m] {
			return fmt.Errorf("seqpair: module %d appears twice in group", m)
		}
		seen[m] = true
	}
	return nil
}

// ValidateGroups checks each group and that groups are disjoint.
func ValidateGroups(n int, groups []Group) error {
	seen := map[int]bool{}
	for i, g := range groups {
		if err := g.Validate(n); err != nil {
			return err
		}
		for _, m := range g.Members() {
			if seen[m] {
				return fmt.Errorf("seqpair: module %d in two groups (second is group %d)", m, i)
			}
			seen[m] = true
		}
	}
	return nil
}

// membersByAlpha returns the group's members sorted by alpha position.
func (sp *SP) membersByAlpha(g Group) []int {
	ms := g.Members()
	sort.Slice(ms, func(i, j int) bool { return sp.posA[ms[i]] < sp.posA[ms[j]] })
	return ms
}

// SymmetricFeasibleGroup reports whether sp satisfies property (1) of
// the paper for one group: for any distinct members x, y,
//
//	α⁻¹(x) < α⁻¹(y)  ⇔  β⁻¹(sym(y)) < β⁻¹(sym(x)).
//
// Equivalently, the subsequence of β restricted to group members must
// read sym(m_k), ..., sym(m_1) where m_1..m_k is the members'
// α-order. The check is O(k log k) for a group of k members.
func (sp *SP) SymmetricFeasibleGroup(g Group) bool {
	ms := sp.membersByAlpha(g)
	// Expected β order: sym of reversed α order.
	k := len(ms)
	expect := make([]int, k)
	for i, m := range ms {
		s, _ := g.Sym(m)
		expect[k-1-i] = s
	}
	// Actual β order of members.
	actual := append([]int(nil), ms...)
	sort.Slice(actual, func(i, j int) bool { return sp.posB[actual[i]] < sp.posB[actual[j]] })
	for i := range expect {
		if expect[i] != actual[i] {
			return false
		}
	}
	return true
}

// SymmetricFeasible reports whether sp satisfies property (1) for
// every group.
func (sp *SP) SymmetricFeasible(groups []Group) bool {
	for _, g := range groups {
		if !sp.SymmetricFeasibleGroup(g) {
			return false
		}
	}
	return true
}

// RepairSF rewrites beta so that sp becomes symmetric-feasible for
// every group, leaving alpha untouched and moving only group members
// within beta (each group's members keep their original beta
// *positions* but are reordered among themselves). Any sequence-pair
// maps to an S-F one this way, which gives both a legal initial
// solution and a cheap projection after arbitrary moves.
func (sp *SP) RepairSF(groups []Group) {
	for _, g := range groups {
		ms := sp.membersByAlpha(g)
		k := len(ms)
		// Positions currently holding group members, ascending.
		pos := make([]int, k)
		for i, m := range ms {
			pos[i] = sp.posB[m]
		}
		sort.Ints(pos)
		// Desired occupancy: sym(m_k) first, ..., sym(m_1) last.
		for i := 0; i < k; i++ {
			s, _ := g.Sym(ms[k-1-i])
			p := pos[i]
			sp.Beta[p] = s
			sp.posB[s] = p
		}
	}
}

// MoveKind enumerates the S-F-preserving perturbations used by the
// simulated-annealing placer.
type MoveKind int

// Move kinds. SwapAlphaPaired and SwapBetaPaired realize the paper's
// rule: "if two cells from distinct symmetric pairs are interchanged in
// the sequence α, then their symmetric counterparts must be
// interchanged as well in the sequence β."
const (
	SwapAlphaFree   MoveKind = iota // swap two non-group modules in α
	SwapBetaFree                    // swap two non-group modules in β
	SwapBothFree                    // swap two non-group modules in both
	SwapAlphaPaired                 // swap two group members in α, fix β
	SwapGroupRotate                 // rotate three group members in α, fix β
)

// PerturbSF applies one random S-F-preserving move and returns the
// kind applied. The receiver must already be symmetric-feasible; the
// result is guaranteed symmetric-feasible. Modules outside every group
// are "free". When a chosen move has no applicable operands (e.g. no
// free modules), PerturbSF falls back to a paired swap; with fewer than
// two modules it is a no-op.
func (sp *SP) PerturbSF(rng *rand.Rand, groups []Group) MoveKind {
	kind, _, _ := sp.PerturbSFTouched(rng, groups)
	return kind
}

// PerturbSFTouched is PerturbSF reporting which modules the move
// touched: for the free-module kinds the swapped pair (a, b); for the
// group kinds (paired swap, rotation, and their repair) a = b = -1,
// meaning the caller must treat the whole sequence as disturbed. The
// RNG draw sequence is identical to PerturbSF's for every input —
// including the allocation-free fast path taken when groups is empty,
// where the free pool is all of 0..n-1 and never needs materializing
// (profiling the n ≥ 10⁴ walks showed the pool allocations dominating
// move cost).
func (sp *SP) PerturbSFTouched(rng *rand.Rand, groups []Group) (MoveKind, int, int) {
	n := sp.N()
	if n < 2 {
		return SwapBothFree, -1, -1
	}
	if len(groups) == 0 {
		// Fast path: every module is free, pool[i] == i, so the draws
		// (kind, i, j) below replicate the general path bit for bit
		// without building inGroup/free.
		kind := MoveKind(rng.Intn(5))
		if kind >= SwapAlphaPaired {
			kind = SwapBothFree
		}
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		switch kind {
		case SwapAlphaFree:
			sp.SwapModulesAlpha(a, b)
		case SwapBetaFree:
			sp.SwapModulesBeta(a, b)
		default:
			sp.SwapModulesAlpha(a, b)
			sp.SwapModulesBeta(a, b)
		}
		return kind, a, b
	}
	inGroup := make([]bool, n)
	var members []int
	for _, g := range groups {
		for _, m := range g.Members() {
			inGroup[m] = true
			members = append(members, m)
		}
	}
	var free []int
	for m := 0; m < n; m++ {
		if !inGroup[m] {
			free = append(free, m)
		}
	}
	kind := MoveKind(rng.Intn(5))
	if len(free) < 2 && kind <= SwapBothFree {
		kind = SwapAlphaPaired
	}
	if len(members) < 2 && kind >= SwapAlphaPaired {
		if len(free) < 2 {
			return SwapBothFree, -1, -1
		}
		kind = SwapBothFree
	}
	pick2 := func(pool []int) (int, int) {
		i := rng.Intn(len(pool))
		j := rng.Intn(len(pool) - 1)
		if j >= i {
			j++
		}
		return pool[i], pool[j]
	}
	switch kind {
	case SwapAlphaFree:
		a, b := pick2(free)
		sp.SwapModulesAlpha(a, b)
		return kind, a, b
	case SwapBetaFree:
		a, b := pick2(free)
		sp.SwapModulesBeta(a, b)
		return kind, a, b
	case SwapBothFree:
		a, b := pick2(free)
		sp.SwapModulesAlpha(a, b)
		sp.SwapModulesBeta(a, b)
		return kind, a, b
	case SwapAlphaPaired:
		a, b := pick2(members)
		sp.SwapModulesAlpha(a, b)
		sp.RepairSF(groups)
	case SwapGroupRotate:
		if len(members) < 3 {
			a, b := pick2(members)
			sp.SwapModulesAlpha(a, b)
			sp.RepairSF(groups)
			return SwapAlphaPaired, -1, -1
		}
		i := rng.Intn(len(members))
		j := rng.Intn(len(members))
		k := rng.Intn(len(members))
		if i != j && j != k && i != k {
			a, b, c := members[i], members[j], members[k]
			// Rotate a -> b -> c -> a in alpha.
			pa, pb, pc := sp.posA[a], sp.posA[b], sp.posA[c]
			sp.Alpha[pb], sp.Alpha[pc], sp.Alpha[pa] = a, b, c
			sp.posA[a], sp.posA[b], sp.posA[c] = pb, pc, pa
		} else {
			a, b := pick2(members)
			sp.SwapModulesAlpha(a, b)
		}
		sp.RepairSF(groups)
	}
	return kind, -1, -1
}

// PerturbLocal applies one range-limited sequence move — a swap of
// alpha positions i and j with |i−j| ≤ window, a beta swap of the
// modules at those alpha positions, or both — and returns the two
// alpha positions it disturbed, lo < hi (0, 0 when n < 2); every
// position between them keeps its scan inputs. Range limiting is the
// classic TimberWolf-style large-instance move discipline: two close
// points keep the incremental packer's re-scan short, which is what
// makes n ≥ 10⁴ walks affordable. It does not preserve symmetric
// feasibility and is only used on problems without symmetry groups.
func (sp *SP) PerturbLocal(rng *rand.Rand, window int) (lo, hi int) {
	n := sp.N()
	if n < 2 {
		return 0, 0
	}
	if window < 1 {
		window = 1
	}
	if window > n/2 {
		window = n / 2
	}
	kind := rng.Intn(3)
	i := rng.Intn(n)
	d := 1 + rng.Intn(window)
	j := i + d
	if j >= n {
		j = i - d // in range: i ≥ n−d and d ≤ n/2 imply i−d ≥ n−2d ≥ 0
	}
	switch kind {
	case 0:
		sp.SwapAlpha(i, j)
	case 1:
		sp.SwapModulesBeta(sp.Alpha[i], sp.Alpha[j])
	default:
		sp.SwapAlpha(i, j)
		sp.SwapModulesBeta(sp.Alpha[i], sp.Alpha[j])
	}
	if i > j {
		i, j = j, i
	}
	return i, j
}

// RandomSF returns a random symmetric-feasible sequence-pair over n
// modules: a uniformly random pair projected by RepairSF.
func RandomSF(n int, groups []Group, rng *rand.Rand) *SP {
	sp := New(n)
	sp.Shuffle(rng)
	sp.RepairSF(groups)
	return sp
}
