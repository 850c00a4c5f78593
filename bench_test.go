package repro

import (
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/bstar"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/hbstar"
	"repro/internal/place"
	"repro/internal/seqpair"
	"repro/internal/shapefn"
	"repro/internal/sizing"
)

// ---------------------------------------------------------------------------
// Section II — sequence-pairs with symmetry constraints.

// BenchmarkFig1SymmetricPacking packs the paper's Fig. 1 code into a
// geometrically symmetric placement.
func BenchmarkFig1SymmetricPacking(b *testing.B) {
	sp, err := seqpair.FromSequences([]int{4, 1, 0, 5, 2, 3, 6}, []int{4, 1, 2, 3, 5, 0, 6})
	if err != nil {
		b.Fatal(err)
	}
	groups := []seqpair.Group{{Pairs: [][2]int{{2, 3}, {1, 6}}, Selfs: []int{0, 5}}}
	w := []int{16, 10, 9, 9, 12, 14, 10}
	h := []int{8, 12, 10, 10, 30, 8, 12}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sp.PackSymmetric(w, h, groups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLemmaEnumeration counts all symmetric-feasible codes of the
// paper's n = 7 example (35,280 of 25,401,600) by pruned enumeration.
func BenchmarkLemmaEnumeration(b *testing.B) {
	n, groups := core.PaperLemmaExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := seqpair.CountSFExact(n, groups); got != 35280 {
			b.Fatalf("count = %d", got)
		}
	}
}

// BenchmarkSeqPairPackingScaling measures one packing evaluation at
// growing module counts — the O(n log log n) claim of Section II.
func BenchmarkSeqPairPackingScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(sizeName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			sp := seqpair.New(n)
			sp.Shuffle(rng)
			w := make([]int, n)
			h := make([]int, n)
			for i := range w {
				w[i] = 1 + rng.Intn(50)
				h[i] = 1 + rng.Intn(50)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Pack(w, h)
			}
		})
	}
}

// BenchmarkPackingNaiveVsFast is the ablation of the vEB-queue packer
// against the O(n²) longest-path packer.
func BenchmarkPackingNaiveVsFast(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(2))
	sp := seqpair.New(n)
	sp.Shuffle(rng)
	w := make([]int, n)
	h := make([]int, n)
	for i := range w {
		w[i] = 1 + rng.Intn(50)
		h[i] = 1 + rng.Intn(50)
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp.PackNaive(w, h)
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp.Pack(w, h)
		}
	})
}

// BenchmarkSFMovesVsRejection is the ablation of the S-F-preserving
// move set against arbitrary moves with rejection of non-S-F codes.
func BenchmarkSFMovesVsRejection(b *testing.B) {
	bench := circuits.MillerOpAmp()
	prob, err := place.FromBench(bench)
	if err != nil {
		b.Fatal(err)
	}
	opt := anneal.Options{Seed: 3, MovesPerStage: 60, MaxStages: 60, StallStages: 20}
	b.Run("sf-moves", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := place.SeqPair(prob, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rejection", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := place.SeqPairUnconstrainedMoves(prob, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Section III — hierarchical placement.

// BenchmarkHBStarPacking measures one full hierarchical packing of a
// mid-size benchmark's HB*-tree forest.
func BenchmarkHBStarPacking(b *testing.B) {
	bench, err := circuits.TableIBench("folded_casc")
	if err != nil {
		b.Fatal(err)
	}
	forest, err := hbstar.Build(bench.Tree, func(name string) (int, int, error) {
		d := bench.Circuit.Device(name)
		return d.FW, d.FH, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHBStarContourVsBBox ablates the contour nodes: packing with
// skyline outlines versus bounding-box outlines.
func BenchmarkHBStarContourVsBBox(b *testing.B) {
	bench, err := circuits.TableIBench("buffer")
	if err != nil {
		b.Fatal(err)
	}
	build := func(bbox bool) *hbstar.Forest {
		f, err := hbstar.Build(bench.Tree, func(name string) (int, int, error) {
			d := bench.Circuit.Device(name)
			return d.FW, d.FH, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		f.BBoxOutline = bbox
		return f
	}
	for _, mode := range []struct {
		name string
		bbox bool
	}{{"contour", false}, {"bbox", true}} {
		f := build(mode.bbox)
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Pack(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Section IV — deterministic placement with shape functions (Table I,
// Figs. 7 and 8).

// BenchmarkTable1 regenerates one Table I row per sub-benchmark, ESF
// and RSF.
func BenchmarkTable1(b *testing.B) {
	for _, name := range []string{"miller_v2", "comparator_v2", "folded_casc"} {
		bench, err := circuits.TableIBench(name)
		if err != nil {
			b.Fatal(err)
		}
		prob, err := place.FromBench(bench)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			label    string
			enhanced bool
		}{{"esf", true}, {"rsf", false}} {
			b.Run(name+"/"+m.label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := shapefn.Place(b.Context(), prob, bench.Tree, m.enhanced)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Placement.Legal() {
						b.Fatal("illegal placement")
					}
				}
			})
		}
	}
}

// BenchmarkTable1Large runs the two largest Table I circuits (the
// paper's biasynth and lnamixbias rows).
func BenchmarkTable1Large(b *testing.B) {
	for _, name := range []string{"biasynth", "lnamixbias"} {
		bench, err := circuits.TableIBench(name)
		if err != nil {
			b.Fatal(err)
		}
		prob, err := place.FromBench(bench)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapefn.Place(b.Context(), prob, bench.Tree, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Curves computes the ESF and RSF staircases of the
// lnamixbias root function (the data of Fig. 8).
func BenchmarkFig8Curves(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		esf, rsf, err := core.RunFig8("lnamixbias")
		if err != nil {
			b.Fatal(err)
		}
		if len(esf) == 0 || len(rsf) == 0 {
			b.Fatal("empty curves")
		}
	}
}

// BenchmarkBStarEnumeration walks all n!·Catalan(n) trees for n = 6
// (95,040 trees), the kernel of basic-module-set enumeration.
func BenchmarkBStarEnumeration(b *testing.B) {
	w := []int{3, 5, 7, 9, 11, 13}
	h := []int{13, 11, 9, 7, 5, 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		bstar.EnumerateTrees(w, h, func(*bstar.Tree) bool {
			count++
			return true
		})
		if count != 95040 {
			b.Fatalf("count = %d", count)
		}
	}
}

// ---------------------------------------------------------------------------
// Representation ablations (Section II's motivation).

// BenchmarkSlicingVsNonslicing compares the slicing baseline against
// the non-slicing B*-tree placer on heterogeneous analog sizes.
func BenchmarkSlicingVsNonslicing(b *testing.B) {
	bench, err := circuits.TableIBench("miller_v2")
	if err != nil {
		b.Fatal(err)
	}
	prob, err := place.FromBench(bench)
	if err != nil {
		b.Fatal(err)
	}
	prob.Groups = nil
	prob.WireWeight = 0
	opt := anneal.Options{Seed: 5, MovesPerStage: 60, MaxStages: 80, StallStages: 25}
	b.Run("slicing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := place.Slicing(prob, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Placement.Area()), "area")
		}
	})
	b.Run("bstar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := place.BStar(prob, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Placement.Area()), "area")
		}
	})
}

// BenchmarkAbsoluteVsTopological compares the absolute-coordinate
// baseline (feasible and infeasible configurations) against the
// topological B*-tree placer.
func BenchmarkAbsoluteVsTopological(b *testing.B) {
	bench := circuits.MillerOpAmp()
	prob, err := place.FromBench(bench)
	if err != nil {
		b.Fatal(err)
	}
	prob.Groups = nil
	opt := anneal.Options{Seed: 7, MovesPerStage: 80, MaxStages: 80, StallStages: 25}
	b.Run("absolute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := place.Absolute(prob, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topological", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := place.BStar(prob, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Section V — layout-aware sizing (Fig. 10).

// BenchmarkFig10Sizing runs the two sizing flows.
func BenchmarkFig10Sizing(b *testing.B) {
	opt := anneal.Options{Seed: 1, MovesPerStage: 250, MaxStages: 250, StallStages: 60}
	b.Run("nominal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sizing.Run(sizing.Problem{
				Spec: sizing.Fig10Spec(), Mode: sizing.Nominal, Base: sizing.DefaultBase(),
			}, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("aware", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sizing.Run(sizing.Problem{
				Spec: sizing.Fig10Spec(), Mode: sizing.LayoutAware, MaxAspect: 1.3,
				Base: sizing.DefaultBase(),
			}, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Optimization-engine hot path (zero-allocation packing, multi-start).

// BenchmarkBStarTreePacking compares the compatibility wrapper against
// workspace-reuse packing of one B*-tree — the annealing inner loop's
// dominant operation. The packinto variant is allocation-free at
// steady state.
func BenchmarkBStarTreePacking(b *testing.B) {
	const n = 100
	rng := rand.New(rand.NewSource(4))
	w := make([]int, n)
	h := make([]int, n)
	for i := range w {
		w[i] = 1 + rng.Intn(40)
		h[i] = 1 + rng.Intn(40)
	}
	tr := bstar.NewRandom(w, h, rng)
	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Pack()
		}
	})
	b.Run("packinto", func(b *testing.B) {
		var ws bstar.PackWorkspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.PackInto(&ws)
		}
	})
}

// BenchmarkSeqPairPackInto measures the fully workspace-reused FAST-SP
// evaluation (the in-place annealer's path), against which Pack's
// caller-owned slices are the only remaining allocations.
func BenchmarkSeqPairPackInto(b *testing.B) {
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	sp := seqpair.New(n)
	sp.Shuffle(rng)
	w := make([]int, n)
	h := make([]int, n)
	for i := range w {
		w[i] = 1 + rng.Intn(50)
		h[i] = 1 + rng.Intn(50)
	}
	var ws seqpair.PackWorkspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.PackInto(&ws, w, h)
	}
}

// BenchmarkParallelMultiStart compares one serial annealing chain
// against 4-worker multi-start with the same per-chain schedule (equal
// wall-clock on a 4-core machine; worker 0 replicates the serial
// chain, so the reduction never returns a worse cost).
func BenchmarkParallelMultiStart(b *testing.B) {
	bench := circuits.MillerOpAmp()
	prob, err := place.FromBench(bench)
	if err != nil {
		b.Fatal(err)
	}
	opt := anneal.Options{Seed: 3, MovesPerStage: 100, MaxStages: 40, StallStages: 40}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := place.SeqPair(prob, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Cost, "cost")
		}
	})
	b.Run("workers4", func(b *testing.B) {
		popt := opt
		popt.Workers = 4
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := place.SeqPair(prob, popt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Cost, "cost")
		}
	})
}

// ---------------------------------------------------------------------------
// Composable objective: incremental dirty-net evaluation.

// wirelengthHeavyProblem builds a synthetic wirelength-heavy instance:
// n modules and 2n random nets of 3–6 pins, the regime where cost
// evaluation dominates the annealing move.
func wirelengthHeavyProblem(n int, seed int64) *place.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &place.Problem{
		Names:      make([]string, n),
		W:          make([]int, n),
		H:          make([]int, n),
		WireWeight: 1,
	}
	for i := 0; i < n; i++ {
		p.Names[i] = "m" + itoa(i)
		p.W[i] = 1 + rng.Intn(30)
		p.H[i] = 1 + rng.Intn(30)
	}
	for len(p.Nets) < 2*n {
		deg := 3 + rng.Intn(4)
		net := make([]int, 0, deg)
		for len(net) < deg {
			net = append(net, rng.Intn(n))
		}
		p.Nets = append(p.Nets, net)
	}
	return p
}

// BenchmarkIncrementalDirtyNet measures the composable objective's
// incremental dirty-net evaluation against full recompute on a
// wirelength-heavy instance (n = 300 modules, 600 nets).
//
// The placer-* pair runs the whole absolute-coordinate placer — the
// same move sequence in both modes (incremental evaluation is exact,
// so acceptance decisions are identical) — with Problem.FullEval
// toggling the evaluation strategy. The model-* pair isolates the
// HPWL term itself under single-module moves: full recompute of all
// 600 nets versus the module→nets dirty set.
func BenchmarkIncrementalDirtyNet(b *testing.B) {
	const n = 300
	opt := anneal.Options{Seed: 9, MovesPerStage: 60, MaxStages: 40, StallStages: 12}
	for _, mode := range []struct {
		name string
		full bool
	}{{"placer-full", true}, {"placer-incremental", false}} {
		b.Run(mode.name, func(b *testing.B) {
			prob := wirelengthHeavyProblem(n, 11)
			prob.FullEval = mode.full
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := place.Absolute(prob, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Cost, "cost")
			}
		})
	}

	prob := wirelengthHeavyProblem(n, 11)
	coords := func(rng *rand.Rand) (x, y []int) {
		x = make([]int, n)
		y = make([]int, n)
		for i := range x {
			x[i], y[i] = rng.Intn(2000), rng.Intn(2000)
		}
		return x, y
	}
	b.Run("model-full", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		x, y := coords(rng)
		m := prob.NewModel()
		m.Eval(x, y, prob.W, prob.H, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mi := rng.Intn(n)
			x[mi], y[mi] = rng.Intn(2000), rng.Intn(2000)
			m.Eval(x, y, prob.W, prob.H, nil)
		}
	})
	b.Run("model-incremental", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		x, y := coords(rng)
		m := prob.NewModel()
		m.Eval(x, y, prob.W, prob.H, nil)
		moved := make([]int, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mi := rng.Intn(n)
			x[mi], y[mi] = rng.Intn(2000), rng.Intn(2000)
			moved[0] = mi
			m.UpdateMoved(x, y, prob.W, prob.H, nil, moved)
		}
	})
}

func sizeName(n int) string { return "n" + itoa(n) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
