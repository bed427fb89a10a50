// Surface check: every exported method of *pgrid.Peer must be called
// from production code outside internal/pgrid, so the overlay's API
// cannot grow methods only its own package or its tests use.
package unistore_test

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

// peerInterfaceMethods are exported because an interface requires them
// (simnet.Handler, fmt.Stringer), not because a caller names them.
var peerInterfaceMethods = map[string]bool{"HandleMessage": true, "String": true}

// TestPeerSurfaceCalledOutsidePgrid: each exported *pgrid.Peer method
// declared in internal/pgrid's non-test files is called, by name, from
// some non-test .go file outside internal/pgrid (bench/ included). The
// match is by selector name, not by type, so it can only miss a dead
// method whose name another type also uses — it never flags a live one.
func TestPeerSurfaceCalledOutsidePgrid(t *testing.T) {
	fset := token.NewFileSet()
	pkgDir := filepath.Join("internal", "pgrid")
	methods := map[string]bool{}
	called := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
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
		if filepath.Dir(path) == pkgDir {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() && isPeerReceiver(fd) {
					methods[fd.Name.Name] = true
				}
			}
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(methods) == 0 {
		t.Fatal("found no exported *Peer methods in internal/pgrid")
	}
	var unused []string
	for m := range methods {
		if !called[m] && !peerInterfaceMethods[m] {
			unused = append(unused, m)
		}
	}
	sort.Strings(unused)
	for _, m := range unused {
		t.Errorf("(*pgrid.Peer).%s has no caller outside internal/pgrid: unexport it, move it to a test file, or delete it", m)
	}
}

// isPeerReceiver reports whether fd is a method on *Peer.
func isPeerReceiver(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Peer"
}
