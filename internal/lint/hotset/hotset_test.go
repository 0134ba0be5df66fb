package hotset

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestBuiltinNamesExist parses each listed package's non-test files and
// requires every built-in entry to name a declared function or method: a
// stale name checks nothing, and allocproof/boundedloop stay silent about it.
func TestBuiltinNamesExist(t *testing.T) {
	const module = "repro/"
	root := filepath.Join("..", "..", "..")
	for pkg, names := range builtin {
		if !strings.HasPrefix(pkg, module) {
			t.Fatalf("package %q is outside module %q", pkg, module)
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, module)))
		declared := make(map[string]bool)
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						declared[QualifiedName(fd)] = true
					}
				}
			}
		}
		var missing []string
		for name := range names {
			if !declared[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: hot-set entries with no declaration: %s", pkg, strings.Join(missing, ", "))
		}
	}
}
