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

// configRef matches a Config.X or NodeConfig.X the prose names.
var configRef = regexp.MustCompile(`\b(Node)?Config\.([A-Z]\w*)`)

// TestDocsConfigFieldsCurrent: every Config.X / NodeConfig.X named in
// README.md, docs/*.md and unistore.go must be an exported field of
// core.Config / core.NodeConfig, so a deleted option cannot stay
// documented.
func TestDocsConfigFieldsCurrent(t *testing.T) {
	fset := token.NewFileSet()
	fields := map[string]map[string]bool{} // struct name -> exported fields
	for _, file := range []string{"internal/core/core.go", "internal/core/node.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || (ts.Name.Name != "Config" && ts.Name.Name != "NodeConfig") {
				return false
			}
			fs := map[string]bool{}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() {
						fs[name.Name] = true
					}
				}
			}
			fields[ts.Name.Name] = fs
			return false
		})
	}
	if fields["Config"] == nil || fields["NodeConfig"] == nil {
		t.Fatal("internal/core no longer declares Config and NodeConfig")
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
		for _, m := range configRef.FindAllStringSubmatch(string(data), -1) {
			typ := m[1] + "Config"
			if !fields[typ][m[2]] {
				t.Errorf("%s names %s.%s, which core.%s does not have", file, typ, m[2], typ)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no Config fields named in the docs; the check is vacuous")
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
