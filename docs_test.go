// Documentation checks: every intra-repo markdown link must resolve,
// and the architecture doc's package map must list every internal/
// package. Both run in plain `go test ./...`, so the docs tree cannot
// rot silently as files move.
package unistore_test

import (
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
