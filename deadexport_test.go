package nexus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that no non-test file calls, keyed "pkg.Name" or "pkg.Recv.Name" with
// pkg relative to internal/. A key without a name is a whole package.
var exportAllowlist = map[string]string{
	"simclock.Clock.SetEventLimit":    "called only by tests in other packages",
	"gpusim.Device.MemUsed":           "called only by tests in other packages",
	"gpusim.Device.Partitions":        "called only by tests in other packages",
	"backend.Backend.AvgBatchSize":    "called only by tests in other packages",
	"model.AppendFC":                  "called only by tests in other packages",
	"model.SpecializeFamily":          "called only by tests in other packages",
	"frontend.Frontend.TableSnapshot": "called only by tests in other packages",
	"scheduler/exact":                 "the Appendix A test oracle",
}

// stdlibMethods are method names the standard library calls through its
// own interfaces (fmt, encoding/json, flag, sort, container/heap), so a
// method with one of these names has callers no source file spells out.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Set": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoDeadExports fails when an exported top-level function or method
// declared in a non-test file under internal/ is named by no non-test file
// in the repository (bench/ included). Names are matched by identifier, not
// by type, so a method is live if any non-test file mentions its name: an
// interface declaring it, a call, or a method value.
func TestNoDeadExports(t *testing.T) {
	type decl struct {
		key, pos string
		method   bool
	}
	var decls []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			pkg, inInternal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
			if !inInternal || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fn.Pos()).String(), fn.Recv != nil})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	var dead []string
	listed := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if named[name] || d.method && stdlibMethods[name] {
			continue
		}
		pkg := d.key[:strings.Index(d.key, ".")]
		switch {
		case exportAllowlist[d.key] != "":
			listed[d.key] = true
		case exportAllowlist[pkg] != "":
			listed[pkg] = true
		default:
			dead = append(dead, d.pos+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is named by no non-test file: delete it or move it into a test file", d)
	}
	for key := range exportAllowlist {
		if !listed[key] {
			t.Errorf("allowlist entry %s names no unused export: remove it", key)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
