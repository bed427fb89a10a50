// Documentation checks: every intra-repo markdown link must resolve,
// the architecture doc's package map must list every internal/ package,
// and its message table must match the overlay's message structs. All
// run in plain `go test ./...`, so the docs tree cannot rot silently as
// files move.
package unistore_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdLink matches [text](target); images share the syntax.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// generatedDocs are imported research material (paper abstracts,
// retrieval notes) whose links point at artifacts outside this repo;
// only the maintained documentation is link-checked.
var generatedDocs = map[string]bool{
	"PAPER.md":    true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
	"ISSUE.md":    true,
}

func TestDocsIntraRepoLinksResolve(t *testing.T) {
	var mdFiles []string
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
		if strings.HasSuffix(path, ".md") && !generatedDocs[path] {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	checked := 0
	for _, file := range mdFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue // external or in-page
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", file, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no intra-repo links checked; the docs tree should cross-reference itself")
	}
	t.Logf("checked %d intra-repo links across %d markdown files", checked, len(mdFiles))
}

// TestDocsTreeExists pins the documentation the README promises.
func TestDocsTreeExists(t *testing.T) {
	for _, f := range []string{"docs/architecture.md", "docs/vql.md", "README.md"} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, link := range []string{"docs/architecture.md", "docs/vql.md"} {
		if !strings.Contains(string(readme), link) {
			t.Errorf("README.md does not link %s", link)
		}
	}
}

// TestDocsMessageTableCurrent: every overlay message type registered in
// internal/pgrid/wire.go has a row in docs/architecture.md's "Message
// types" table, and every row names exactly the fields of its struct in
// internal/pgrid/messages.go.
func TestDocsMessageTableCurrent(t *testing.T) {
	fset := token.NewFileSet()
	wire, err := parser.ParseFile(fset, "internal/pgrid/wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// wire.go names each registered type by its zero value, T{}.
	var registered []string
	ast.Inspect(wire, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
			if id, ok := cl.Type.(*ast.Ident); ok {
				registered = append(registered, id.Name)
			}
		}
		return true
	})
	if len(registered) == 0 {
		t.Fatal("internal/pgrid/wire.go registers no message types")
	}
	msgs, err := parser.ParseFile(fset, "internal/pgrid/messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string][]string{} // struct name -> field names
	ast.Inspect(msgs, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			fs := []string{}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fs = append(fs, name.Name)
				}
			}
			fields[ts.Name.Name] = fs
		}
		return false
	})
	doc, err := os.ReadFile("docs/architecture.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "### Message types")
	if !ok {
		t.Fatal(`docs/architecture.md has no "Message types" section`)
	}
	rows := map[string]map[string]bool{} // type -> field names its row lists
	for _, line := range strings.Split(table, "\n") {
		m := messageRow.FindStringSubmatch(line)
		if m == nil {
			if strings.HasPrefix(line, "#") {
				break
			}
			continue
		}
		named := map[string]bool{}
		for _, item := range strings.Split(m[2], ",") {
			if f := fieldName.FindString(strings.TrimSpace(item)); f != "" {
				named[f] = true
			}
		}
		rows[m[1]] = named
	}
	for _, typ := range registered {
		if rows[typ] == nil {
			t.Errorf("docs/architecture.md's message table has no row for %s", typ)
		}
	}
	for typ, named := range rows {
		fs, ok := fields[typ]
		if !ok {
			t.Errorf("message table row %s names no struct in internal/pgrid/messages.go", typ)
			continue
		}
		for _, f := range fs {
			if !named[f] {
				t.Errorf("message table row %s does not name field %s", typ, f)
			}
			delete(named, f)
		}
		for f := range named {
			t.Errorf("message table row %s names %s, which %s does not have", typ, f, typ)
		}
	}
}

var (
	// messageRow matches a message table row: | `type` ... | fields | size |.
	messageRow = regexp.MustCompile("^\\| `(\\w+)`[^|]*\\| ([^|]*) \\|")
	// fieldName is the field a table item names: its leading exported
	// identifier ("Agg?", "Refs[][]" and "Buckets{id → …}" name Agg, Refs
	// and Buckets).
	fieldName = regexp.MustCompile(`^[A-Z]\w*`)
)

// memberRef matches a Config.X, NodeConfig.X, Cluster.X, Stream.X,
// Peer.X or Engine.X the prose names; documented names the type each
// one stands for.
var (
	memberRef  = regexp.MustCompile(`\b(NodeConfig|Config|Cluster|Stream|Peer|Engine)\.([A-Z]\w*)`)
	documented = map[string]string{
		"Config": "core.Config", "NodeConfig": "core.NodeConfig",
		"Cluster": "core.Cluster", "Stream": "core.Stream",
		"Peer": "pgrid.Peer", "Engine": "physical.Engine",
	}
)

// TestDocsConfigFieldsCurrent: every Config.X / NodeConfig.X named in
// README.md, docs/*.md and unistore.go must be an exported field of
// core.Config / core.NodeConfig, and every Cluster.X / Stream.X /
// Peer.X / Engine.X a member of core.Cluster / core.Stream /
// pgrid.Peer / physical.Engine, so a deleted option or method cannot
// stay documented.
func TestDocsConfigFieldsCurrent(t *testing.T) {
	// members maps "pkg.Type" to its exported struct fields and methods,
	// read from the non-test sources of internal/core, internal/pgrid
	// and internal/physical.
	members := map[string]map[string]bool{}
	add := func(typ string, name *ast.Ident) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		if name.IsExported() {
			members[typ][name.Name] = true
		}
	}
	fset := token.NewFileSet()
	core, _ := filepath.Glob("internal/core/*.go")
	pgrid, _ := filepath.Glob("internal/pgrid/*.go")
	physical, _ := filepath.Glob("internal/physical/*.go")
	for _, file := range append(append(core, pgrid...), physical...) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(pkg+"."+id.Name, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, name := range fl.Names {
								add(pkg+"."+ts.Name.Name, name)
							}
						}
					}
				}
			}
		}
	}
	for _, typ := range documented {
		if len(members[typ]) == 0 {
			t.Fatalf("no exported members of %s found; the check is vacuous", typ)
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, file := range append([]string{"README.md", "unistore.go"}, docs...) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range memberRef.FindAllStringSubmatch(string(data), -1) {
			typ := documented[m[1]]
			if !members[typ][m[2]] {
				t.Errorf("%s names %s.%s, which %s does not have", file, m[1], m[2], typ)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no Config fields or Cluster/Peer methods named in the docs; the check is vacuous")
	}
}

// statedPackages matches the sentence introducing the package map.
var statedPackages = regexp.MustCompile("The (\\d+) `internal/` packages")

// TestDocsPackageMapCurrent: the package count docs/architecture.md
// states must equal the number of directories under internal/, and
// the map must link each of them.
func TestDocsPackageMapCurrent(t *testing.T) {
	doc, err := os.ReadFile("docs/architecture.md")
	if err != nil {
		t.Fatal(err)
	}
	m := statedPackages.FindSubmatch(doc)
	if m == nil {
		t.Fatalf("docs/architecture.md no longer states %q", statedPackages)
	}
	stated, _ := strconv.Atoi(string(m[1]))
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	dirs := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs++
		if link := "(../internal/" + e.Name() + ")"; !strings.Contains(string(doc), link) {
			t.Errorf("docs/architecture.md's package map does not link %s", link)
		}
	}
	if stated != dirs {
		t.Errorf("docs/architecture.md states %d internal/ packages, internal/ holds %d", stated, dirs)
	}
}
