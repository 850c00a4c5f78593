package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/placer"
)

func testProblem() *Problem {
	return &Problem{Version: Version, Problem: placer.Problem{
		Name: "toy",
		Modules: []Module{
			{Name: "A", W: 4, H: 2}, {Name: "B", W: 4, H: 2},
			{Name: "C", W: 3, H: 3}, {Name: "D", W: 5, H: 1},
		},
		Symmetry:  []SymGroup{{Pairs: [][2]int{{0, 1}}}},
		Nets:      [][]int{{0, 2}, {1, 3}},
		Proximity: [][]int{{2, 3}},
		Objective: Objective{AreaWeight: 1, WireWeight: 1},
	}}
}

// TestObjectiveDefaultCanonical: area_weight 0 means the default 1,
// so both spellings must share a content address.
func TestObjectiveDefaultCanonical(t *testing.T) {
	p := testProblem()
	q := testProblem()
	q.Objective.AreaWeight = 0
	hp, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hq, err := q.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hp != hq {
		t.Fatalf("area_weight 0 and 1 hash differently: %s vs %s", hp, hq)
	}
}

func TestRoundTrip(t *testing.T) {
	p := testProblem()
	b, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodeProblem(b)
	if err != nil {
		t.Fatalf("decoding own canonical encoding: %v", err)
	}
	b2, err := p2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("canonical encoding not stable:\n%s\n%s", b, b2)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round-trip changed the problem:\n%+v\n%+v", p, p2)
	}
}

// TestHashPermutationInvariant: permuting nets, pair endpoints and
// group members must not change the content address.
func TestHashPermutationInvariant(t *testing.T) {
	p := testProblem()
	h1, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	q := testProblem()
	q.Nets = [][]int{{3, 1}, {2, 0}}                   // nets and members permuted
	q.Symmetry = []SymGroup{{Pairs: [][2]int{{1, 0}}}} // endpoints swapped
	q.Version = 0                                      // version omitted
	h2, err := q.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("semantically equal problems hash differently: %s vs %s", h1, h2)
	}

	r := testProblem()
	r.Modules[0].W = 6 // a real change must change the hash
	h3, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("different problems share a hash")
	}
}

func TestRequestHashCoversOptions(t *testing.T) {
	a := Request{Problem: *testProblem()}
	b := Request{Problem: *testProblem(), Options: Options{Seed: 42}}
	// The spelled-out service defaults must hash like the zero value,
	// or semantically identical requests would split the cache.
	c := Request{Problem: *testProblem(), Options: Options{
		Method: placer.SeqPair, Workers: 1,
		MovesPerStage: 150, MaxStages: 200, StallStages: 40, Cooling: 0.95,
	}}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Fatal("different seeds must not share a cache key")
	}
	if ha != hc {
		t.Fatal("explicit defaults must hash like omitted options")
	}
	// A deadline cannot change a completed result, so it must not
	// split the cache.
	d := Request{Problem: *testProblem(), Options: Options{TimeoutMS: 30000}}
	hd, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hd != ha {
		t.Fatal("timeout_ms must not enter the content address")
	}

	// The clone-free fast path must agree with Hash once normalized.
	canon, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRequest(canon)
	if err != nil {
		t.Fatal(err)
	}
	hfast, err := dec.HashNormalized()
	if err != nil {
		t.Fatal(err)
	}
	if hfast != ha {
		t.Fatalf("HashNormalized %s disagrees with Hash %s", hfast, ha)
	}
}

// TestHierarchyHashPermutationInvariant: different spellings of one
// hierarchy (pair endpoint order, sibling order, member order) must
// share a content address.
func TestHierarchyHashPermutationInvariant(t *testing.T) {
	mk := func(pair [2]string, flip bool) *Problem {
		p := testProblem()
		p.Symmetry = nil
		kids := []*Node{
			{Name: "dp", Kind: "symmetry", Devices: []string{"A", "B"}, Pairs: [][2]string{pair}},
			{Name: "rest", Kind: "proximity", Devices: []string{"C", "D"}},
		}
		if flip {
			kids[0], kids[1] = kids[1], kids[0]
			kids[1].Devices = []string{"B", "A"}
		}
		p.Hierarchy = &Node{Name: "root", Children: kids}
		return p
	}
	h1, err := mk([2]string{"A", "B"}, false).Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := mk([2]string{"B", "A"}, true).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hierarchy spellings split the content address: %s vs %s", h1, h2)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Problem){
		"no modules":         func(p *Problem) { p.Modules = nil },
		"empty name":         func(p *Problem) { p.Modules[0].Name = "" },
		"dup name":           func(p *Problem) { p.Modules[1].Name = "A" },
		"zero width":         func(p *Problem) { p.Modules[0].W = 0 },
		"future version":     func(p *Problem) { p.Version = 99 },
		"self pair":          func(p *Problem) { p.Symmetry[0].Pairs[0] = [2]int{1, 1} },
		"sym out of range":   func(p *Problem) { p.Symmetry[0].Pairs[0] = [2]int{0, 9} },
		"dup across groups":  func(p *Problem) { p.Symmetry = append(p.Symmetry, SymGroup{Selfs: []int{0}}) },
		"empty group":        func(p *Problem) { p.Symmetry = append(p.Symmetry, SymGroup{}) },
		"net out of range":   func(p *Problem) { p.Nets[0][0] = -1 },
		"net dup member":     func(p *Problem) { p.Nets[0] = []int{2, 2} },
		"one-module net":     func(p *Problem) { p.Nets[0] = []int{2} },
		"prox out of range":  func(p *Problem) { p.Proximity[0][0] = 77 },
		"prox dup member":    func(p *Problem) { p.Proximity = append(p.Proximity, []int{0, 1, 0}) },
		"power length":       func(p *Problem) { p.Power = []float64{1} },
		"negative power":     func(p *Problem) { p.Power = []float64{1, 1, -2, 1} },
		"negative weight":    func(p *Problem) { p.Objective.WireWeight = -1 },
		"half outline":       func(p *Problem) { p.Objective.OutlineW = 50 },
		"bad hierarchy kind": func(p *Problem) { p.Hierarchy = &Node{Kind: "mystery"} },
		"unknown device":     func(p *Problem) { p.Hierarchy = &Node{Devices: []string{"nope"}} },
		"device owned twice": func(p *Problem) {
			p.Hierarchy = &Node{Devices: []string{"A"}, Children: []*Node{{Name: "x", Devices: []string{"A"}}}}
		},
		"dangling sym target": func(p *Problem) {
			p.Hierarchy = &Node{Devices: []string{"A"}, Kind: "symmetry", Pairs: [][2]string{{"A", "ghost"}}}
		},
		"empty centroid unit": func(p *Problem) {
			p.Hierarchy = &Node{Devices: []string{"A"}, Kind: "common_centroid", Units: map[string][]string{"u": {}}}
		},
		"dangling centroid unit": func(p *Problem) {
			p.Hierarchy = &Node{Devices: []string{"A"}, Kind: "common_centroid", Units: map[string][]string{"u": {"ghost"}}}
		},
		"unnamed child": func(p *Problem) {
			p.Hierarchy = &Node{Name: "r", Children: []*Node{{Devices: []string{"A"}}}}
		},
		"duplicate child name": func(p *Problem) {
			p.Hierarchy = &Node{Name: "r", Children: []*Node{
				{Name: "x", Devices: []string{"A"}}, {Name: "x", Devices: []string{"B"}}}}
		},
		"child shadows device": func(p *Problem) {
			p.Hierarchy = &Node{Name: "r", Devices: []string{"A"},
				Children: []*Node{{Name: "A", Devices: []string{"B"}}}}
		},
	}
	for name, mutate := range cases {
		p := testProblem()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

func TestDecodeStrict(t *testing.T) {
	if _, err := DecodeProblem([]byte(`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"objective":{},"bogus":3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	const valid = `{"version":1,"modules":[{"name":"A","w":1,"h":1}],"objective":{}}`
	if _, err := DecodeProblem([]byte(valid + "  \n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	// A stray closing delimiter is trailing data too, though
	// json.Decoder.More reports no further value before it.
	for _, tail := range []string{" trailing", "}", "]", "]]]garbage"} {
		if _, err := DecodeProblem([]byte(valid + tail)); err == nil {
			t.Errorf("problem with trailing %q accepted", tail)
		}
		if _, err := DecodeRequest([]byte(`{"problem":` + valid + `}` + tail)); err == nil {
			t.Errorf("request with trailing %q accepted", tail)
		}
		if _, err := DecodeBatchRequest([]byte(`{"items":[{"problem":` + valid + `}]}` + tail)); err == nil {
			t.Errorf("batch with trailing %q accepted", tail)
		}
	}
	if _, err := DecodeRequest([]byte(`{"problem":{"modules":[{"name":"A","w":1,"h":1}],"objective":{}},"options":{"method":"sorcery"}}`)); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestCanonRoundTrip: placer → wire via FromCanon must be lossless —
// same content address, and byte-identical canonical encodings —
// including the hierarchy. (The semantic conversions to the engines'
// internal representations are tested with the placer package.)
func TestCanonRoundTrip(t *testing.T) {
	for name, p := range map[string]*Problem{
		"toy": testProblem(),
		"hierarchy": func() *Problem {
			p := testProblem()
			p.Hierarchy = &Node{
				Name: "root",
				Children: []*Node{
					{Name: "dp", Kind: "symmetry", Devices: []string{"A", "B"},
						Pairs: [][2]string{{"A", "B"}},
						Units: map[string][]string{"u": {"A"}}},
				},
				Devices: []string{"C", "D"},
			}
			p.Symmetry = nil
			return p
		}(),
	} {
		back := FromCanon(&p.Problem)
		h1, err := p.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h1 != h2 {
			t.Fatalf("%s: FromCanon changed the content address", name)
		}
		c1, _ := p.Canonical()
		c2, _ := back.Canonical()
		if !bytes.Equal(c1, c2) {
			t.Fatalf("%s: canonical bytes changed:\n%s\n%s", name, c1, c2)
		}
	}
}

// TestFromBenchMiller: a built-in benchmark reaches the wire with its
// flat view, hierarchy and conventional objective intact.
func TestFromBenchMiller(t *testing.T) {
	bp, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	p := FromCanon(bp)
	if len(p.Modules) != 9 {
		t.Fatalf("miller has 9 modules, wire sees %d", len(p.Modules))
	}
	if len(p.Symmetry) != 2 {
		t.Fatalf("miller has 2 device-level symmetry groups, wire sees %d", len(p.Symmetry))
	}
	if p.Hierarchy == nil {
		t.Fatal("hierarchy lost")
	}
	if p.Objective.WireWeight != 1 {
		t.Fatalf("conventional objective lost: %+v", p.Objective)
	}
}

// TestCanonicalDeterministic guards against map-ordering leaks into
// the canonical encoding (hierarchy units are a map).
func TestCanonicalDeterministic(t *testing.T) {
	p := testProblem()
	p.Hierarchy = &Node{
		Name:    "root",
		Devices: []string{"A", "B", "C", "D"},
		Units:   map[string][]string{"u1": {"A"}, "u2": {"B"}, "u0": {"C"}},
	}
	first, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b, err := p.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, b) {
			t.Fatalf("canonical encoding unstable at iteration %d", i)
		}
	}
}

// TestNormalizeIdempotent feeds randomized valid problems through
// Normalize twice; the second pass must be the identity.
func TestNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		p := &Problem{Problem: placer.Problem{Modules: make([]Module, n)}}
		for i := range p.Modules {
			p.Modules[i] = Module{Name: string(rune('a' + i)), W: 1 + rng.Intn(9), H: 1 + rng.Intn(9)}
		}
		if n >= 4 && rng.Intn(2) == 0 {
			p.Symmetry = []SymGroup{{Pairs: [][2]int{{rng.Intn(2) * 3, 1 + rng.Intn(2)}}}}
		}
		for i := 0; i < rng.Intn(4); i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				p.Nets = append(p.Nets, []int{a, b})
			}
		}
		if err := p.Validate(); err != nil {
			continue
		}
		p.Normalize()
		c1, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		p.Normalize()
		c2, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("normalize not idempotent:\n%s\n%s", c1, c2)
		}
	}
}

// TestResultCloneIsDeep fills every field of a Result by reflection —
// every pointer set, every slice two elements long, all the way down
// through traces and engine traces — and checks that Clone is equal,
// encodes to the same bytes, and shares nothing: writing through every
// slice and pointer of the clone leaves the original's encoding
// unchanged. A field added without Clone support fails here.
func TestResultCloneIsDeep(t *testing.T) {
	orig := new(Result)
	n := 0
	fillValue(t, reflect.ValueOf(orig).Elem(), &n)
	want, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	c := orig.Clone()
	if !reflect.DeepEqual(c, orig) {
		t.Fatalf("Clone differs from the original:\n got %+v\nwant %+v", c, orig)
	}
	if got, err := json.Marshal(c); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Clone encodes differently (err %v):\n got %s\nwant %s", err, got, want)
	}
	scribbleValue(t, reflect.ValueOf(c).Elem())
	if got, _ := json.Marshal(orig); !bytes.Equal(got, want) {
		t.Fatalf("writing through the clone changed the original:\n got %s\nwant %s", got, want)
	}
	if (*Result)(nil).Clone() != nil || (*Trace)(nil).Clone() != nil {
		t.Fatal("Clone of nil is not nil")
	}
}

// fillValue sets every field reachable from v to a distinct non-zero
// value, allocating pointers and two-element slices on the way.
func fillValue(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fillValue: %s fields are not covered; teach Clone and this test about them", v.Type())
	}
}

// scribbleValue overwrites every scalar reachable from v in place,
// following pointers and slices without reallocating them.
func scribbleValue(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1000)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(-v.Float())
	case reflect.String:
		v.SetString(v.String() + "!")
	case reflect.Pointer:
		if !v.IsNil() {
			scribbleValue(t, v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribbleValue(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribbleValue(t, v.Field(i))
		}
	default:
		t.Fatalf("scribbleValue: %s fields are not covered", v.Type())
	}
}

// TestDecodeRequestHash: the one-validation decode agrees with
// DecodeRequest followed by HashNormalized on every pin request, and
// rejects what DecodeRequest rejects.
func TestDecodeRequestHash(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "placer", "testdata", "pin_*_request.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no pin requests (err %v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		req, hash, err := DecodeRequestHash(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		want, err := DecodeRequest(data)
		if err != nil {
			t.Fatal(err)
		}
		wantHash, err := want.HashNormalized()
		if err != nil {
			t.Fatal(err)
		}
		if hash != wantHash || !reflect.DeepEqual(req, want) {
			t.Fatalf("%s: DecodeRequestHash = %s, DecodeRequest + HashNormalized = %s", f, hash, wantHash)
		}
	}
	for _, bad := range []string{``, `{}`, `{"problem":{"modules":[{"name":"A","w":1,"h":1}],"objective":{}},"options":{"method":"sorcery"}}`} {
		if _, hash, err := DecodeRequestHash([]byte(bad)); err == nil || hash != "" {
			t.Fatalf("DecodeRequestHash(%q) = %q, %v; want a rejection", bad, hash, err)
		}
	}
}
