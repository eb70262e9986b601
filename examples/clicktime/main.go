// Clicktime: dynamic ("click-time") site evaluation (§2.5, §7). Instead
// of materializing a site, the server computes each requested page by
// evaluating the incremental queries its site schema prescribes — with
// caching, lookahead, and cache invalidation on data change. This example
// starts the server on an ephemeral port, browses it over HTTP, changes
// the data, and shows what was recomputed.
//
//	go run ./examples/clicktime [-articles 120]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/sites"
	"strudel/internal/struql"
	"strudel/internal/template"
)

func main() {
	articles := flag.Int("articles", 120, "number of wrapped articles")
	flag.Parse()

	// Warehouse the CNN data and derive the site schema — no site graph
	// is ever materialized in this example.
	spec := sites.CNN(*articles)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		log.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		log.Fatal(err)
	}
	q := struql.MustParse(sites.CNNQuery)

	ts := template.NewSet()
	ts.MustAdd("FrontPage", `<h1><SFMT name></h1><SFMT Category UL TEXT=name>`)
	ts.MustAdd("CategoryPage", `<h1><SFMT name></h1><SFMT Story EMBED UL>`)
	ts.MustAdd("Summary", `<SFMT FullStory TEXT=title>`)
	ts.MustAdd("ArticlePage", `<h1><SFMT title></h1><p><SFMT body></p>`)
	perFn := map[string]string{}
	for _, fn := range []string{"FrontPage", "CategoryPage", "Summary", "ArticlePage"} {
		perFn[fn] = fn
	}
	// A single server is a fleet of one shard with one replica behind the
	// page edge; the evaluator's work shows in its metrics.
	var work obs.ServeMetrics
	fl, err := fleet.New(fleet.Config{
		Schema: schema.Build(q), Templates: ts, PerFn: perFn,
		Lookahead: true, ServeObs: &work,
	}, data)
	if err != nil {
		log.Fatal(err)
	}
	var edgeObs obs.FleetMetrics
	edge := fleet.NewEdge(fl)
	edge.Root = dynamic.PageRef{Fn: "FrontPage"}
	edge.Obs = &edgeObs

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = http.Serve(ln, edge.Handler()) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("click-time server on %s\n\n", base)

	// Browse: front page, then the first category link on it.
	front := get(base + "/")
	fmt.Printf("GET / → %d bytes; front page starts: %.60s...\n", len(front), front)
	link := firstPageLink(front)
	cat := get(base + link)
	fmt.Printf("GET %s → %d bytes\n", link, len(cat))
	computed, queries, hits := work.PagesComputed.Load(), work.QueriesRun.Load(), work.PageCacheHits.Load()
	fmt.Printf("work so far: %d pages computed, %d incremental queries, %d cache hits\n\n",
		computed, queries, hits)

	// Re-fetch: the edge answers from its page cache, the evaluator does
	// nothing.
	get(base + "/")
	get(base + link)
	fmt.Printf("after re-browsing: +%d pages computed, %d edge cache hits\n\n",
		work.PagesComputed.Load()-computed, edgeObs.CacheHits.Load())

	// A data change invalidates exactly the affected cached pages.
	delta := &mediator.Delta{
		AddedMembers: []mediator.Membership{{Coll: "Articles", OID: "breaking"}},
		AddedEdges: []graph.Edge{
			{From: "breaking", Label: "category", To: graph.NewString("world")},
			{From: "breaking", Label: "title", To: graph.NewString("Breaking news")},
		},
	}
	g := med.DataGraph()
	g.AddToCollection("Articles", "breaking")
	for _, e := range delta.AddedEdges {
		g.AddEdge(e.From, e.Label, e.To)
	}
	kept, dropped := fl.SwapData(g.Freeze(), delta)
	fmt.Printf("data change (new article) invalidated %d cached pages; %d carried over\n",
		dropped, kept)
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}

func firstPageLink(body string) string {
	i := strings.Index(body, `href="/page/`)
	if i < 0 {
		log.Fatal("no page link on front page")
	}
	rest := body[i+len(`href="`):]
	return rest[:strings.IndexByte(rest, '"')]
}
