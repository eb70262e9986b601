package filesrc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSourcesNamesPathsAndLoads(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ddl := write("d.ddl", "collection Pubs;\nnode p1 in Pubs { title \"A\"; }\n")
	bib := write("p.bib", "@article{k1, title={B}, year=1998}\n")
	csv := write("people.csv", "id,name\nmff,Mary\n")
	js := write("doc.json", `{"title": "C"}`)
	srcs, err := Sources([]string{ddl}, []string{bib}, []string{"People:id:" + csv}, []string{"Docs:" + js})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ddl:" + ddl, "bib:" + bib, "csv:" + csv, "json:" + js}
	if len(srcs) != len(want) {
		t.Fatalf("%d sources, want %d", len(srcs), len(want))
	}
	for i, s := range srcs {
		if s.Name != want[i] {
			t.Errorf("source %d named %q, want %q", i, s.Name, want[i])
		}
		if len(s.Paths) != 1 || !strings.HasSuffix(want[i], s.Paths[0]) {
			t.Errorf("source %s polls %v", s.Name, s.Paths)
		}
		g, err := s.Load()
		if err != nil || g.NumEdges() == 0 {
			t.Errorf("%s: Load = %v edges, %v", s.Name, g, err)
		}
		if g, rep, err := s.LoadLenient(); err != nil || g.NumEdges() == 0 || len(rep.Diags) != 0 {
			t.Errorf("%s: LoadLenient = %v, %v, %v", s.Name, g, rep, err)
		}
	}
}

func TestSourcesLoadErrorsCarryThePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "broken.ddl")
	if err := os.WriteFile(bad, []byte("node p1 in {"), 0o644); err != nil {
		t.Fatal(err)
	}
	srcs, err := Sources([]string{bad}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srcs[0].Load(); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("parse error %v does not name %s", err, bad)
	}
}

func TestSourcesRejectMalformedSpecs(t *testing.T) {
	if _, err := Sources(nil, nil, []string{"People:id"}, nil); err == nil {
		t.Error("csv spec without a file was accepted")
	}
	if _, err := Sources(nil, nil, nil, []string{"doc.json"}); err == nil {
		t.Error("json spec without a collection was accepted")
	}
}
