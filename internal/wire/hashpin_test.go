package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/placer"
)

// TestHashPinned pins content addresses absolutely. The permutation
// and fuzz fixed-point tests only check hashes against each other, so
// they cannot notice every hash shifting at once; a shift would orphan
// every cached result and file store entry. These literals are the
// hashes the format has always produced — a failure here means the
// canonical bytes changed, not that the table needs refreshing.
func TestHashPinned(t *testing.T) {
	requests := map[string]string{
		"pin_miller_esf_request.json":       "b99dc11419859e6cad7c1526c969a98260fc5f89c05ddefb897b4cf59f117ab7",
		"pin_miller_hbstar_request.json":    "97d972b7a4a758a6a61700eae9978d7e554ce1025903bdafc516947cdbc3865e",
		"pin_miller_portfolio_request.json": "1e230b046ff1c60c3af15410af7bc6c4be176e4828df16b658c958b9a30fcc65",
		"pin_miller_rsf_request.json":       "ba54dfd32b13992d2225d0735afc1632920cbff6b84efc30a3dbc4ebc2bef78e",
		"pin_miller_seqpair_request.json":   "8e3f1145d460b10f8304e582d057dafa2355059aaccc654426a1bc451871b9b6",
		"pin_n1000_seqpair_request.json":    "70f17805688e7384028e401b2fd1baae5f0b661d11dcfab23494e279038fc7c2",
		"pin_n120_temper_request.json":      "1124ff19eb3649404a0a225ad8dde7eab33e724a9041dfff4a95516371319ff5",
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "placer", "testdata", "pin_*_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(requests) {
		t.Fatalf("found %d pin requests, table pins %d", len(files), len(requests))
	}
	for _, f := range files {
		name := filepath.Base(f)
		want, ok := requests[name]
		if !ok {
			t.Errorf("%s: no pinned hash", name)
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		req, err := DecodeRequest(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := req.Hash(); err != nil || got != want {
			t.Errorf("%s: request hash %s (err %v), pinned %s", name, got, err, want)
		}
	}

	problems := map[string]string{
		"biasynth":      "6487df7c5150a5e9cc698aa573979fb15d839c2e1b57ebc61fdd1ec982d75d1f",
		"buffer":        "70b8d97037f64f49a8c431efeb40a13932e3c3e53fa59d5047a81be09928aae9",
		"comparator_v2": "2a327bf2c88cf75c8c6cae8543437eba743d37c7ccececc25daa320e276e4beb",
		"folded":        "da8bd46bd97a3e0f6bb0b45a9cea4c120151b3b116a1796aa12ee638ed8ff6ab",
		"folded_casc":   "5895d5515d6349a5668c94f133b9bd4f2987be142d54b7a62e670fe41e3d8c43",
		"lnamixbias":    "30c9c0dd594c22dceac1b4ce2fd8c8247e00390245ee4a5f92cb718e25fedb04",
		"miller":        "310fd0a3bccd00943252e60ad2cb829807845f2e7ca7ed04db2feae2898c5d6b",
		"miller_v2":     "4d9595b2469838fc9ad86ee5516fa363ea89da6c3de692d70d7942301fbf35e2",
	}
	names := placer.BenchmarkNames()
	if len(names) != len(problems) {
		t.Fatalf("placer has %d benchmarks, table pins %d", len(names), len(problems))
	}
	for _, name := range names {
		want, ok := problems[name]
		if !ok {
			t.Errorf("%s: no pinned hash", name)
			continue
		}
		p, err := placer.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := FromCanon(p).Hash(); err != nil || got != want {
			t.Errorf("%s: problem hash %s (err %v), pinned %s", name, got, err, want)
		}
	}
}

// TestHierarchySpellingPinned pins the wire spelling of the design
// hierarchy, which no built-in problem exercises in full: every node
// kind, a common_centroid node with units, selfs, and a symmetry pair
// naming two child nodes. The symmetry node also carries units, so
// one node spells all seven fields: a reordered field or a misspelled
// tag changes the canonical bytes and so this hash.
func TestHierarchySpellingPinned(t *testing.T) {
	const problem = `{
	  "name": "spelling",
	  "modules": [
	    {"name": "A", "w": 2, "h": 3}, {"name": "B", "w": 2, "h": 3},
	    {"name": "C", "w": 2, "h": 3}, {"name": "D", "w": 2, "h": 3},
	    {"name": "E", "w": 4, "h": 1}, {"name": "F", "w": 1, "h": 1},
	    {"name": "G", "w": 1, "h": 1}, {"name": "H", "w": 5, "h": 2}
	  ],
	  "nets": [[0, 4], [5, 6, 7]],
	  "objective": {"wire_weight": 1},
	  "hierarchy": {
	    "name": "top",
	    "devices": ["H"],
	    "children": [
	      {
	        "name": "mirror",
	        "kind": "symmetry",
	        "devices": ["E"],
	        "pairs": [["right", "left"]],
	        "selfs": ["E"],
	        "units": {"ur": ["right"], "ul": ["left"]},
	        "children": [
	          {"name": "right", "kind": "proximity", "devices": ["D", "C"]},
	          {"name": "left", "kind": "proximity", "devices": ["A", "B"]}
	        ]
	      },
	      {
	        "name": "cc",
	        "kind": "common_centroid",
	        "devices": ["G", "F"],
	        "units": {"u2": ["G"], "u1": ["F"]}
	      }
	    ]
	  }
	}`
	const want = "940ed1854bdd92a4f5ae4eb99d039a171425192b0b07918a7ed7cca0f4d39180"
	p, err := DecodeProblem([]byte(problem))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(canon); hex.EncodeToString(sum[:]) != want {
		t.Errorf("canonical bytes hash to %x, pinned %s:\n%s", sum, want, canon)
	}
	if got, err := p.Hash(); err != nil || got != want {
		t.Errorf("problem hash %s (err %v), pinned %s", got, err, want)
	}
}
