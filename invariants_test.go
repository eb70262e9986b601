package strudel_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// invariantRow matches one ledger line of docs/INVARIANTS.md:
// | invariant | `Test`, ... | `package dir` | since |
var invariantRow = regexp.MustCompile("^\\|[^|]+\\|([^|]+)\\|\\s*`([^`]+)`\\s*\\|[^|]+\\|$")

var ledgerName = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*)`")

// TestInvariantsLedger makes docs/INVARIANTS.md a check: every test it
// names as pinning an invariant must exist, as a function, in a test
// file of the package it names.
func TestInvariantsLedger(t *testing.T) {
	doc, err := os.ReadFile("docs/INVARIANTS.md")
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]string{} // package dir → its test files, concatenated
	rows := 0
	for i, line := range strings.Split(string(doc), "\n") {
		m := invariantRow.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		dir := m[2]
		src, ok := sources[dir]
		if !ok {
			files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if len(files) == 0 {
				t.Errorf("docs/INVARIANTS.md:%d: package %s has no test files", i+1, dir)
			}
			var b strings.Builder
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(data)
			}
			src = b.String()
			sources[dir] = src
		}
		names := ledgerName.FindAllStringSubmatch(m[1], -1)
		if len(names) == 0 {
			t.Errorf("docs/INVARIANTS.md:%d: no pinning test named", i+1)
		}
		for _, n := range names {
			if !regexp.MustCompile(`(?m)^func ` + n[1] + `\(`).MatchString(src) {
				t.Errorf("docs/INVARIANTS.md:%d: %s does not exist in %s", i+1, n[1], dir)
			}
		}
		rows++
	}
	if rows < 8 {
		t.Fatalf("docs/INVARIANTS.md: %d ledger rows parsed, want the serving slice's 8 or more", rows)
	}
}

// shimUse matches a use of the shims that keep the benchmark probe
// compiling: the Indexed alias and its two constructors in package repo,
// qualified or (inside the package) not, and the Frozen method of a
// snapshot.
var shimUse = regexp.MustCompile(`\brepo\.(Indexed|NewIndexed|NewIndexedFrozen)\b|\.Frozen\(\)`)

var shimUseInRepo = regexp.MustCompile(`\bNewIndexed(Frozen)?\(|\*Indexed\b`)

// TestProbeShimsUnused keeps those shims for the probe under bench/
// alone, so that deleting them once the probe holds a *graph.Frozen is
// one edit: no Go file outside bench/ may use them. The only exceptions
// are the shims' own definitions — internal/repo/indexed.go and the
// Frozen method in internal/graph/frozen.go.
func TestProbeShimsUnused(t *testing.T) {
	const frozenShim = "func (f *Frozen) Frozen() *Frozen { return f }"
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == filepath.Join("internal", "repo", "indexed.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		inRepo := filepath.Dir(path) == filepath.Join("internal", "repo")
		for i, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) == frozenShim && path == filepath.Join("internal", "graph", "frozen.go") {
				continue
			}
			if shimUse.MatchString(line) || inRepo && shimUseInRepo.MatchString(line) {
				t.Errorf("%s:%d: uses a probe-only shim: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files, want the whole module", files)
	}
}
