// Package baseline implements the practice Strudel replaces: procedural,
// CGI-script-style site generators written by hand against the raw data
// (§1, §6.1, Fig. 8). The paper measures a site's structural complexity
// by "the number of CGI-BIN scripts required to generate a site"; here
// each hand-written generator function plays the role of one such script
// family. Experiments compare these generators against the declarative
// pipeline on build time and on specification size.
//
// The unoptimized-query baseline for experiment E6 does not live here: it
// is struql evaluation with Options{NoReorder: true} over a plain map
// graph instead of the repository's snapshot.
package baseline

import (
	"fmt"
	"html"
	"sort"
	"strings"

	"strudel/internal/graph"
)

// ProceduralHomepage builds the same pages as the Strudel homepage site
// with hand-written traversal code: an index page, one presentation page
// and one abstract section per publication, a page per year, and a page
// per category. Compare its rigidity with the 48-line declarative query:
// every structural decision is buried in loop nests, and producing an
// external variant means copying and editing all of it.
func ProceduralHomepage(data *graph.Graph) map[string]string {
	pages := map[string]string{}
	pubs := data.Collection("Publications")

	years := map[string][]graph.OID{}
	cats := map[string][]graph.OID{}
	for _, p := range pubs {
		if y := data.First(p, "year"); !y.IsNull() {
			years[y.Text()] = append(years[y.Text()], p)
		}
		for _, c := range data.OutLabel(p, "category") {
			cats[c.Text()] = append(cats[c.Text()], p)
		}
	}

	var idx strings.Builder
	idx.WriteString("<html><head><title>Home</title></head><body><h1>Home</h1>\n<h2>Years</h2>\n<ul>\n")
	for _, y := range sortedKeys(years) {
		fmt.Fprintf(&idx, "<li><a href=\"year-%s.html\">%s</a></li>\n", y, html.EscapeString(y))
	}
	idx.WriteString("</ul>\n<h2>Categories</h2>\n<ul>\n")
	for _, c := range sortedKeys(cats) {
		fmt.Fprintf(&idx, "<li><a href=\"cat-%s.html\">%s</a></li>\n", fileSafe(c), html.EscapeString(c))
	}
	idx.WriteString("</ul>\n<p><a href=\"abstracts.html\">All abstracts</a></p>\n</body></html>\n")
	pages["index.html"] = idx.String()

	var abs strings.Builder
	abs.WriteString("<html><body><h1>Abstracts</h1>\n<ul>\n")
	for _, p := range pubs {
		abs.WriteString("<li>")
		abs.WriteString(abstractSection(data, p))
		abs.WriteString("</li>\n")
	}
	abs.WriteString("</ul>\n</body></html>\n")
	pages["abstracts.html"] = abs.String()

	for _, p := range pubs {
		pages["paper-"+fileSafe(string(p))+".html"] = paperPage(data, p)
		pages["abstract-"+fileSafe(string(p))+".html"] =
			"<html><body>" + abstractSection(data, p) + "</body></html>\n"
	}
	for _, y := range sortedKeys(years) {
		var b strings.Builder
		fmt.Fprintf(&b, "<html><body><h1>Papers from %s</h1>\n<ul>\n", html.EscapeString(y))
		for _, p := range years[y] {
			fmt.Fprintf(&b, "<li><a href=\"paper-%s.html\">%s</a></li>\n",
				fileSafe(string(p)), html.EscapeString(data.First(p, "title").Text()))
		}
		b.WriteString("</ul>\n</body></html>\n")
		pages["year-"+y+".html"] = b.String()
	}
	for _, c := range sortedKeys(cats) {
		var b strings.Builder
		fmt.Fprintf(&b, "<html><body><h1>Papers on %s</h1>\n<ul>\n", html.EscapeString(c))
		for _, p := range cats[c] {
			fmt.Fprintf(&b, "<li><a href=\"paper-%s.html\">%s</a></li>\n",
				fileSafe(string(p)), html.EscapeString(data.First(p, "title").Text()))
		}
		b.WriteString("</ul>\n</body></html>\n")
		pages["cat-"+fileSafe(c)+".html"] = b.String()
	}
	return pages
}

func paperPage(data *graph.Graph, p graph.OID) string {
	var b strings.Builder
	b.WriteString("<html><body><b>")
	b.WriteString(html.EscapeString(data.First(p, "title").Text()))
	b.WriteString("</b> by ")
	var authors []string
	for _, a := range data.OutLabel(p, "author") {
		authors = append(authors, html.EscapeString(a.Text()))
	}
	b.WriteString(strings.Join(authors, ", "))
	fmt.Fprintf(&b, " (%s)", data.First(p, "year").Text())
	if j := data.First(p, "journal"); !j.IsNull() {
		fmt.Fprintf(&b, " <i>In %s.</i>", html.EscapeString(j.Text()))
	}
	if bt := data.First(p, "booktitle"); !bt.IsNull() {
		fmt.Fprintf(&b, " <i>In %s.</i>", html.EscapeString(bt.Text()))
	}
	fmt.Fprintf(&b, "\n<p><a href=\"abstract-%s.html\">Abstract</a></p>\n</body></html>\n", fileSafe(string(p)))
	return b.String()
}

func abstractSection(data *graph.Graph, p graph.OID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<h3>%s</h3>", html.EscapeString(data.First(p, "title").Text()))
	var authors []string
	for _, a := range data.OutLabel(p, "author") {
		authors = append(authors, html.EscapeString(a.Text()))
	}
	fmt.Fprintf(&b, "<p>by %s</p>", strings.Join(authors, ", "))
	if abs := data.First(p, "abstract"); !abs.IsNull() {
		fmt.Fprintf(&b, "<blockquote><a href=%q>%s</a></blockquote>", abs.Str(), abs.Str())
	}
	return b.String()
}

// GroupDims are the grouping dimensions the parametric generators know:
// the Fig. 8 complexity sweep adds one page family per dimension.
var GroupDims = []string{"year", "category", "month", "type", "journal", "booktitle", "author", "postscript"}

// ProceduralGrouped is the parametric procedural generator used by the
// Fig. 8 sweep: for each of the first `dims` grouping dimensions it emits
// one page per distinct value, listing the items carrying that value,
// plus an index page and one page per item. It measures how procedural
// build time scales with data size × structural complexity.
func ProceduralGrouped(data *graph.Graph, coll string, dims int) map[string]string {
	if dims > len(GroupDims) {
		dims = len(GroupDims)
	}
	pages := map[string]string{}
	items := data.Collection(coll)
	var idx strings.Builder
	idx.WriteString("<html><body><h1>Index</h1>\n")
	for d := 0; d < dims; d++ {
		dim := GroupDims[d]
		groups := map[string][]graph.OID{}
		for _, it := range items {
			for _, v := range data.OutLabel(it, dim) {
				groups[v.Text()] = append(groups[v.Text()], it)
			}
		}
		fmt.Fprintf(&idx, "<h2>By %s</h2>\n<ul>\n", dim)
		for _, g := range sortedKeys(groups) {
			name := fmt.Sprintf("%s-%s.html", dim, fileSafe(g))
			fmt.Fprintf(&idx, "<li><a href=%q>%s</a></li>\n", name, html.EscapeString(g))
			var b strings.Builder
			fmt.Fprintf(&b, "<html><body><h1>%s = %s</h1>\n<ul>\n", dim, html.EscapeString(g))
			for _, it := range groups[g] {
				fmt.Fprintf(&b, "<li><a href=\"item-%s.html\">%s</a></li>\n",
					fileSafe(string(it)), html.EscapeString(data.First(it, "title").Text()))
			}
			b.WriteString("</ul>\n</body></html>\n")
			pages[name] = b.String()
		}
	}
	idx.WriteString("</body></html>\n")
	pages["index.html"] = idx.String()
	for _, it := range items {
		var b strings.Builder
		b.WriteString("<html><body><dl>\n")
		for _, e := range data.Out(it) {
			fmt.Fprintf(&b, "<dt>%s</dt><dd>%s</dd>\n", html.EscapeString(e.Label), html.EscapeString(e.To.Text()))
		}
		b.WriteString("</dl>\n</body></html>\n")
		pages["item-"+fileSafe(string(it))+".html"] = b.String()
	}
	return pages
}

// GroupedQuery generates the equivalent declarative site-definition query
// for a given complexity: the Strudel side of the Fig. 8 sweep.
func GroupedQuery(coll string, dims int) string {
	if dims > len(GroupDims) {
		dims = len(GroupDims)
	}
	var b strings.Builder
	b.WriteString("create IndexPage()\n")
	fmt.Fprintf(&b, "where %s(x)\ncreate ItemPage(x)\nlink IndexPage() -> \"Item\" -> ItemPage(x)\n", coll)
	b.WriteString("{\n  where x -> l -> v\n  link ItemPage(x) -> l -> v\n}\n")
	for d := 0; d < dims; d++ {
		dim := GroupDims[d]
		fmt.Fprintf(&b, `{
  where x -> %q -> g%d
  create %sPage(g%d)
  link %sPage(g%d) -> "value" -> g%d,
       %sPage(g%d) -> "Item" -> ItemPage(x),
       IndexPage() -> "%sGroup" -> %sPage(g%d)
}
`, dim, d, dimTitle(dim), d, dimTitle(dim), d, d, dimTitle(dim), d, dim, dimTitle(dim), d)
	}
	return b.String()
}

func dimTitle(dim string) string {
	return strings.ToUpper(dim[:1]) + dim[1:]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fileSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
