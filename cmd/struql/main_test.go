package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const testDDL = `
collection Pubs;
node p1 in Pubs { title "Strudel"; year 1998; }
node p2 in Pubs { title "Boat"; year 1997; }
`

func TestRunInlineQuery(t *testing.T) {
	ddlFile := writeFile(t, "d.ddl", testDDL)
	err := run(&config{dataFiles: []string{ddlFile},
		expr: `where Pubs(x), x -> "year" -> y, y > 1997 create N(x)`})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunQueryFile(t *testing.T) {
	ddlFile := writeFile(t, "d.ddl", testDDL)
	qFile := writeFile(t, "q.struql", `where Pubs(x) create N(x)`)
	if err := run(&config{dataFiles: []string{ddlFile}, queryFile: qFile, plan: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSchemaMode(t *testing.T) {
	err := run(&config{expr: `where Pubs(x) create N(x) link N(x) -> "t" -> x`, showSchema: true})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunGuideMode(t *testing.T) {
	ddlFile := writeFile(t, "d.ddl", testDDL)
	if err := run(&config{dataFiles: []string{ddlFile}, guide: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBibtex(t *testing.T) {
	bibFile := writeFile(t, "r.bib", `@article{k, title={T}, year=1998}`)
	err := run(&config{bibFiles: []string{bibFile},
		expr: `where Publications(x) create N(x)`})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunExplainMode(t *testing.T) {
	ddlFile := writeFile(t, "d.ddl", testDDL)
	err := run(&config{dataFiles: []string{ddlFile}, explain: true,
		expr: `where Pubs(x), x -> "year" -> y, y > 1997 create N(x)`})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(&config{}); err == nil {
		t.Error("missing query should fail")
	}
	if err := run(&config{queryFile: "/nonexistent.struql"}); err == nil {
		t.Error("missing query file should fail")
	}
	if err := run(&config{dataFiles: []string{"/nonexistent.ddl"}, expr: `create R()`}); err == nil {
		t.Error("missing data file should fail")
	}
	bad := writeFile(t, "bad.ddl", "not valid ddl !!!")
	if err := run(&config{dataFiles: []string{bad}, expr: `create R()`}); err == nil {
		t.Error("bad ddl should fail")
	}
	if err := run(&config{expr: `where`}); err == nil {
		t.Error("bad query should fail")
	}
	if err := run(&config{expr: `where`, explain: true}); err == nil {
		t.Error("bad query should fail in explain mode")
	}
}
