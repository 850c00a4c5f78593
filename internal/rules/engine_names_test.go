// Package rules checks structural rules of this module's source in
// tier-1 tests, over syntax trees from the standard library's
// go/parser. It has no code outside its tests.
package rules

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/placer"
)

// registryFile is the one file allowed to compare engine names: it
// registers the engines and states each one's capabilities.
const registryFile = "placer/engines.go"

// engineNames holds what spells a registered engine in source: its
// name as a string literal, or a constant registryFile declares for it.
type engineNames struct {
	names  map[string]bool // "seqpair", ...
	consts map[string]bool // "SeqPair", ...
}

// loadEngineNames reads the registry and the constants registryFile
// declares with a registered name as their value.
func loadEngineNames(t *testing.T, root string) engineNames {
	t.Helper()
	en := engineNames{names: map[string]bool{}, consts: map[string]bool{}}
	for _, info := range placer.Algorithms() {
		en.names[info.Name] = true
	}
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, registryFile), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, v := range vs.Values {
				if en.literal(v) {
					en.consts[vs.Names[i].Name] = true
				}
			}
		}
	}
	if len(en.consts) != len(en.names) {
		t.Fatalf("%s declares constants %v for the registered engines %v", registryFile, en.consts, en.names)
	}
	return en
}

// literal reports whether e is a string literal naming an engine.
func (en engineNames) literal(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	s, err := strconv.Unquote(lit.Value)
	return err == nil && en.names[s]
}

// comparisons returns, for one parsed file, every operand of an ==,
// != or case that spells an engine name, as "path:line: operand". An
// engine constant is spelled as a selector on the file's name for
// repro/placer, or unqualified inside package placer itself.
func (en engineNames) comparisons(fset *token.FileSet, f *ast.File, path string) []string {
	qualifier := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == strconv.Quote("repro/placer") {
			qualifier = "placer"
			if imp.Name != nil {
				qualifier = imp.Name.Name
			}
		}
	}
	inPlacer := f.Name.Name == "placer"
	isEngine := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && qualifier != "" && x.Name == qualifier && en.consts[e.Sel.Name]
		case *ast.Ident:
			return inPlacer && en.consts[e.Name]
		}
		return en.literal(e)
	}
	var found []string
	report := func(e ast.Expr) {
		if isEngine(e) {
			found = append(found, path+":"+strconv.Itoa(fset.Position(e.Pos()).Line)+": "+types.ExprString(e))
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				report(n.X)
				report(n.Y)
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				report(e)
			}
		}
		return true
	})
	return found
}

// moduleRoot is the root module's directory, two levels up.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestNoEngineNameComparedOutsideRegistry: no non-test file of the
// root module outside registryFile branches on an engine's name. An
// engine's behaviour lives in its Info, so adding or removing one
// touches only the registry. testdata directories, hidden directories
// and nested modules (perfbench) are not part of the root module.
func TestNoEngineNameComparedOutsideRegistry(t *testing.T) {
	root := moduleRoot(t)
	en := loadEngineNames(t, root)
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == registryFile {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, v := range en.comparisons(fset, f, rel) {
			t.Errorf("%s: engine name compared outside %s", v, registryFile)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("checked only %d files under %s", files, root)
	}
}

// TestEngineNameRuleCatchesPlanted: the checker reports exactly the
// operands testdata/planted.go marks with a "want" comment.
func TestEngineNameRuleCatchesPlanted(t *testing.T) {
	en := loadEngineNames(t, moduleRoot(t))
	fset := token.NewFileSet()
	const path = "testdata/planted.go"
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if ops, ok := strings.CutPrefix(c.Text, "// want "); ok {
				for _, op := range strings.Fields(ops) {
					want = append(want, path+":"+strconv.Itoa(fset.Position(c.Pos()).Line)+": "+op)
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s marks no violation", path)
	}
	if got := en.comparisons(fset, f, path); !reflect.DeepEqual(got, want) {
		t.Errorf("checker reports %q, want %q", got, want)
	}
}
