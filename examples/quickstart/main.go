// Quickstart: the smallest end-to-end Strudel pipeline.
//
// It builds a data graph in code, defines the site structure with a
// three-block StruQL query, renders it through two templates, verifies a
// connectivity constraint, and writes the browsable site to ./quickstart-site.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"strudel/internal/constraints"
	"strudel/internal/graph"
	"strudel/internal/htmlgen"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

func main() {
	// 1. The data graph: three books with irregular attributes (one has
	// no year — the semistructured model needs no schema migration).
	data := graph.New()
	add := func(oid graph.OID, title string, year int) {
		data.AddToCollection("Books", oid)
		data.AddEdge(oid, "title", graph.NewString(title))
		if year > 0 {
			data.AddEdge(oid, "year", graph.NewInt(int64(year)))
		}
	}
	add("b1", "The Art of Computer Programming", 1968)
	add("b2", "A Relational Model of Data", 1970)
	add("b3", "Forthcoming Memoirs", 0)

	// 2. The site-definition query: a root page, one page per book, and
	// year pages grouping books — structure, declared, not programmed.
	q := struql.MustParse(`
create Home()
link Home() -> "title" -> "My Library"

where Books(b)
create BookPage(b)
link Home() -> "Book" -> BookPage(b)
{
  where b -> "title" -> t
  link BookPage(b) -> "title" -> t
}
{
  where b -> "year" -> y
  create YearPage(y)
  link YearPage(y) -> "Year" -> y,
       YearPage(y) -> "Book" -> BookPage(b),
       Home() -> "ByYear" -> YearPage(y)
}
`)

	// The site schema is derivable before any evaluation (Fig. 7 style).
	fmt.Println("--- site schema ---")
	fmt.Print(schema.Build(q).String())

	// 3. Evaluate against the fully indexed repository.
	result, err := struql.Eval(q, data, nil)
	if err != nil {
		log.Fatal(err)
	}
	site := result.Graph

	// 4. Check an integrity constraint on the materialized site graph.
	check := constraints.Connected{Root: "Home"}.CheckSite(site)
	fmt.Printf("--- constraint: %s → %s (%s)\n", constraints.Connected{Root: "Home"}, check.Verdict, check.Reason)

	// 5. Render through the HTML-template language and write the site.
	ts := template.NewSet()
	ts.MustAdd("Home", `<html><head><title><SFMT title></title></head><body>
<h1><SFMT title></h1>
<h2>All books</h2>
<SFMT Book UL ORDER=ascend KEY=title TEXT=title>
<h2>By year</h2>
<SFMT ByYear UL ORDER=ascend KEY=Year TEXT=Year>
</body></html>`)
	ts.MustAdd("BookPage", `<html><body><h1><SFMT title></h1></body></html>`)
	ts.MustAdd("YearPage", `<html><body><h1>Books from <SFMT Year></h1><SFMT Book UL TEXT=title></body></html>`)

	gen := htmlgen.New(site, ts)
	gen.PerObject["Home()"] = "Home"
	for _, oid := range site.Nodes() {
		switch {
		case len(oid) > 9 && oid[:9] == "BookPage(":
			gen.PerObject[oid] = "BookPage"
		case len(oid) > 9 && oid[:9] == "YearPage(":
			gen.PerObject[oid] = "YearPage"
		}
	}
	out, err := gen.Generate([]graph.OID{"Home()"})
	if err != nil {
		log.Fatal(err)
	}
	if err := out.WriteDir("quickstart-site"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- wrote %d pages to quickstart-site/\n", out.PageCount())
}
