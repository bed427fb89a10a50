// Surface checks: every exported method of *pgrid.Peer and every
// exported package-level function of internal/pgrid must be called
// from production code outside internal/pgrid, so the overlay's API
// cannot grow entry points only its own package or its tests use; and
// every core.Config and core.NodeConfig field must be set by
// production code outside internal/core, so neither grows knobs only
// tests turn.
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
var peerInterfaceMethods = map[string]bool{"(*pgrid.Peer).HandleMessage": true, "(*pgrid.Peer).String": true}

// TestPeerSurfaceCalledOutsidePgrid: each exported *pgrid.Peer method
// and each exported package-level function declared in internal/pgrid's
// non-test files is called, by name, from some non-test .go file
// outside internal/pgrid (bench/ included). The match is by selector
// name, not by type, so it can only miss a dead entry point whose name
// another type or package also uses — it never flags a live one.
func TestPeerSurfaceCalledOutsidePgrid(t *testing.T) {
	fset := token.NewFileSet()
	pkgDir := filepath.Join("internal", "pgrid")
	exported := map[string]bool{} // "pgrid.Name" or "(*pgrid.Peer).Name"
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
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				switch {
				case fd.Recv == nil:
					exported["pgrid."+fd.Name.Name] = true
				case isPeerReceiver(fd):
					exported["(*pgrid.Peer)."+fd.Name.Name] = true
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
	if len(exported) == 0 {
		t.Fatal("found no exported functions or *Peer methods in internal/pgrid")
	}
	var unused []string
	for m := range exported {
		name := m[strings.LastIndexByte(m, '.')+1:]
		if !called[name] && !peerInterfaceMethods[m] {
			unused = append(unused, m)
		}
	}
	sort.Strings(unused)
	for _, m := range unused {
		t.Errorf("%s has no caller outside internal/pgrid: unexport it, move it to a test file, or delete it", m)
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

// configFieldsTestOnly are core.Config fields only the -race suites
// set: simnet's concurrent mode, which ROADMAP M retires once those
// suites run on in-memory netx hosts.
var configFieldsTestOnly = map[string]bool{"Config.Concurrent": true, "Config.TimeDilation": true}

// TestConfigFieldsSetOutsideTests: every field of core.Config and
// core.NodeConfig is set — as a composite-literal key or an assignment
// target — by some non-test .go file outside internal/core (bench/
// included; internal/benchscen excluded, since only tests import it),
// so neither struct carries a knob that nothing shipped turns. Like
// TestPeerSurfaceCalledOutsidePgrid the match is by name, so it can
// only miss a dead field whose name another struct also uses.
func TestConfigFieldsSetOutsideTests(t *testing.T) {
	fset := token.NewFileSet()
	coreDir := filepath.Join("internal", "core")
	skipDir := filepath.Join("internal", "benchscen")
	fields := map[string]bool{} // "Config.Name" or "NodeConfig.Name"
	set := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if (strings.HasPrefix(d.Name(), ".") && path != ".") || path == skipDir {
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
		if filepath.Dir(path) == coreDir {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || (ts.Name.Name != "Config" && ts.Name.Name != "NodeConfig") {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							fields[ts.Name.Name+"."+n.Name] = true
						}
					}
				}
			}
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fields["Config.Peers"] || !fields["NodeConfig.Listen"] {
		t.Fatal("found no core.Config or core.NodeConfig fields in internal/core")
	}
	var unset []string
	for f := range fields {
		if !set[f[strings.IndexByte(f, '.')+1:]] && !configFieldsTestOnly[f] {
			unset = append(unset, f)
		}
	}
	sort.Strings(unset)
	for _, f := range unset {
		t.Errorf("core.%s is set by no non-test code outside internal/core: delete it, or make a shipped caller set it", f)
	}
}
