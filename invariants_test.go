package strudel_test

import (
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
