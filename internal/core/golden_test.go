package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"strudel/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenVersion is a small fixed site exercising most of the stack:
// collections, arc variables, grouping, embedding, ordering, includes,
// and conditional templates. Its generated HTML is pinned byte for byte
// in testdata/golden; regenerate with `go test ./internal/core -update`.
func goldenVersion() (*Version, *graph.Graph) {
	data := graph.New()
	add := func(oid graph.OID, title string, year int64, tag string) {
		data.AddToCollection("Books", oid)
		data.AddEdge(oid, "title", graph.NewString(title))
		data.AddEdge(oid, "year", graph.NewInt(year))
		if tag != "" {
			data.AddEdge(oid, "tag", graph.NewString(tag))
		}
	}
	add("b1", "The Art of Computer Programming", 1968, "classic")
	add("b2", "A Relational Model of Data", 1970, "classic")
	add("b3", "Catching the Boat with Strudel", 1998, "")
	v := &Version{
		Name: "golden",
		Queries: []string{`
create Home(), Footer()
link Home() -> "title" -> "Golden Library",
     Home() -> "footer" -> Footer(),
     Footer() -> "note" -> "pinned output"

where Books(b)
create BookPage(b)
link Home() -> "Book" -> BookPage(b)
{
  where b -> l -> v
  link BookPage(b) -> l -> v
}
{
  where b -> "year" -> y
  create YearPage(y)
  link YearPage(y) -> "Year" -> y,
       YearPage(y) -> "Book" -> BookPage(b),
       Home() -> "ByYear" -> YearPage(y)
}
`},
		Templates: map[string]string{
			"header": `<p class="nav">Golden Library</p>`,
			"Home": `<html><head><title><SFMT title></title></head><body>
<SINCLUDE header>
<h1><SFMT title></h1>
<h2>Books</h2>
<SFMT Book UL ORDER=ascend KEY=title TEXT=title>
<h2>By year</h2>
<SFMT ByYear UL ORDER=descend KEY=Year TEXT=Year>
<SFMT footer EMBED>
</body></html>`,
			"Book": `<html><body>
<SINCLUDE header>
<h1><SFMT title></h1>
<p>Published <SFMT year>.</p>
<SIF tag><p>Tagged: <SFMT tag></p><SELSE><p>Untagged.</p></SIF>
</body></html>`,
			"Year": `<html><body>
<SINCLUDE header>
<h1>Books from <SFMT Year></h1>
<SFMT Book UL TEXT=title>
</body></html>`,
			"Footer": `<hr><i><SFMT note></i>`,
		},
		PerObject: map[string]string{"Home()": "Home", "Footer()": "Footer"},
		ObjectTemplatePrefixes: map[string]string{
			"BookPage(": "Book",
			"YearPage(": "Year",
		},
		Roots: []string{"Home()"},
	}
	return v, data
}

func TestGoldenSiteOutput(t *testing.T) {
	v, data := goldenVersion()
	vr, err := BuildVersion(v, data)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := vr.Output.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden files rewritten (%d pages)", vr.Output.PageCount())
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("golden dir missing (run with -update): %v", err)
	}
	if len(entries) != vr.Output.PageCount() {
		t.Errorf("page count = %d, golden has %d files", vr.Output.PageCount(), len(entries))
	}
	for name, got := range vr.Output.Pages {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("golden file %s missing: %v", name, err)
			continue
		}
		if got != string(want) {
			t.Errorf("page %s diverged from golden output:\n--- got\n%s\n--- want\n%s", name, got, want)
		}
	}
}

// TestGoldenSiteOutputParallel pins the determinism guarantee against the
// same golden files: a build with eight workers must produce bytes
// identical to the sequential golden output.
func TestGoldenSiteOutputParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are rewritten by the sequential test")
	}
	v, data := goldenVersion()
	vr, err := BuildVersionWith(v, data, &Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("golden dir missing (run with -update): %v", err)
	}
	if len(entries) != vr.Output.PageCount() {
		t.Errorf("page count = %d, golden has %d files", vr.Output.PageCount(), len(entries))
	}
	for name, got := range vr.Output.Pages {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("golden file %s missing from parallel build: %v", name, err)
			continue
		}
		if got != string(want) {
			t.Errorf("page %s diverged from golden output under parallelism:\n--- got\n%s\n--- want\n%s", name, got, want)
		}
	}
}
