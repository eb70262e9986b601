// Package gen is the benchmark's seeded input generator: it builds a
// research-organisation site in the spirit of the paper's §5.1 (people,
// organisations, projects, publications), renders it into the source
// files the real binaries read, scripts edits against it, and answers —
// from its own model, never from the system under test — what the
// published pages and query results must contain.
//
// Entity counts, author counts and optional-field patterns depend only
// on the scale, so two seeds give inputs of the same size and shape; the
// seed decides who wrote what, who works where, and every name.
package gen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Years and Categories are fixed so fan-out pages (one per year, one per
// category) grow with the scale instead of multiplying.
const (
	FirstYear  = 1987
	Years      = 12
	Categories = 24
)

var syllables = []string{
	"ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe", "qui", "ro", "su", "ta",
	"ve", "wi", "xo", "yu", "za", "bre", "cli", "dro", "fru", "gla", "tre", "pli", "sko", "smu", "sta", "vle",
}

var firstNames = []string{"Mary", "Daniela", "Jaewoo", "Alon", "Dan", "Serge", "Peter", "Jennifer", "Hector", "Anand", "Yannis", "Susan", "Victor", "Tova", "Limsoon", "Val"}

var titleWords = []string{
	"declarative", "semistructured", "query", "graph", "site", "management", "incremental", "view", "mediator",
	"wrapper", "template", "optimization", "schema", "integration", "warehouse", "navigation", "regular", "path",
	"evaluation", "restructuring", "hypertext", "browsing", "maintenance", "constraint", "repository", "catalog",
}

var venues = []string{"sigmod", "vldb", "icde", "pods", "www"}

var areas = []string{"databases", "networking", "speech", "algorithms", "systems", "security", "vision", "languages"}

// word spells n as a pronounceable token, a different one for each n.
func word(n int) string {
	var b strings.Builder
	for i := 0; i < 4 || n > 0; i++ {
		b.WriteString(syllables[n%len(syllables)])
		n /= len(syllables)
	}
	return b.String()
}

// Person is one member of staff; Org indexes Site.Orgs.
type Person struct {
	ID, Name, Office, Phone, Area string
	Org                           int
}

// Org is one organisation; Parent is -1 for a root of the hierarchy.
type Org struct {
	ID, Name string
	Parent   int
	Director int
}

// Project is one research project; Members index Site.People.
type Project struct {
	ID, Name, Synopsis, Sponsor, Area string
	Members                           []int
}

// Pub is one publication. Authors index Site.People; Guests are authors
// outside the organisation, who join to nobody. Year 0 means the entry
// has no year field (the §6.3 irregularity the site must tolerate).
type Pub struct {
	Key, Title string
	Authors    []int
	Guests     []string
	Year       int
	Venue      int
	Cats       []int
	shape      int // which optional fields the entry carries
}

// Site is the generator's model of the data behind the site.
type Site struct {
	People   []Person
	Orgs     []Org
	Projects []Project
	Pubs     []Pub

	rng     *rand.Rand
	nextPub int // next fresh publication number for added entries
	edits   int // edits applied so far; numbers the markers
}

// New builds the site for a seed at a scale given as the number of
// publications; every other count derives from it.
func New(seed int64, pubs int) *Site {
	if pubs < 40 {
		pubs = 40
	}
	s := &Site{rng: rand.New(rand.NewSource(seed))}
	nPeople := pubs / 3
	nOrgs := nPeople/20 + 3
	nProjects := nPeople / 5
	salt := s.rng.Intn(1 << 16)

	// A three-level hierarchy: org 0 is the lab, the next few are
	// centres, the rest departments under a centre.
	centres := nOrgs/6 + 1
	for i := 0; i < nOrgs; i++ {
		o := Org{ID: fmt.Sprintf("o%04d", i), Name: "Department of " + word(salt+7919*i), Parent: -1}
		switch {
		case i == 0:
			o.Name = "Laboratory " + word(salt)
		case i <= centres:
			o.Parent = 0
			o.Name = "Centre for " + word(salt+7919*i)
		default:
			o.Parent = 1 + s.rng.Intn(centres)
		}
		s.Orgs = append(s.Orgs, o)
	}
	for i := 0; i < nPeople; i++ {
		s.People = append(s.People, Person{
			ID:     fmt.Sprintf("p%05d", i),
			Name:   firstNames[s.rng.Intn(len(firstNames))] + " " + capital(word(salt+31*i+1)),
			Office: fmt.Sprintf("%c-%03d", 'A'+rune(i%6), 100+i%400),
			Phone:  fmt.Sprintf("555-%04d", (i*37)%10000),
			Area:   areas[s.rng.Intn(len(areas))],
			Org:    s.rng.Intn(nOrgs),
		})
	}
	for i := range s.Orgs {
		s.Orgs[i].Director = s.rng.Intn(nPeople)
	}
	for i := 0; i < nProjects; i++ {
		p := Project{
			ID:       fmt.Sprintf("proj%05d", i),
			Name:     "Project " + capital(word(salt+101*i+5)),
			Synopsis: s.sentence(6),
			Area:     areas[s.rng.Intn(len(areas))],
			Members:  s.distinct(3+i%4, nPeople),
		}
		if i%3 != 0 {
			p.Sponsor = "Foundation " + capital(word(salt+i%17))
		}
		s.Projects = append(s.Projects, p)
	}
	for i := 0; i < pubs; i++ {
		s.Pubs = append(s.Pubs, s.newPub())
	}
	return s
}

func (s *Site) sentence(words int) string {
	parts := make([]string, words)
	for i := range parts {
		parts[i] = titleWords[s.rng.Intn(len(titleWords))]
	}
	return strings.Join(parts, " ")
}

// distinct draws k different indexes below n.
func (s *Site) distinct(k, n int) []int {
	if k > n {
		k = n
	}
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		if v := s.rng.Intn(n); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// newPub makes the next publication. Its shape (author count, optional
// fields, missing year) is a function of its number alone.
func (s *Site) newPub() Pub {
	i := s.nextPub
	s.nextPub++
	p := Pub{
		Key:     fmt.Sprintf("pub%06d", i),
		Title:   capital(s.sentence(4+i%3)) + " " + word(i+17),
		Authors: s.distinct(1+i%3, len(s.People)),
		Venue:   s.rng.Intn(len(venues)),
		Cats:    s.distinct(1+i%2, Categories),
		shape:   i,
	}
	if i%4 == 0 {
		p.Guests = []string{"Guest " + capital(word(i+3))}
	}
	if i%19 != 7 {
		p.Year = FirstYear + s.rng.Intn(Years)
	}
	return p
}

// CatName is the display name of category c.
func CatName(c int) string { return fmt.Sprintf("topic-%02d", c) }

// Files renders every source file the binaries read: people and orgs as
// CSV for strudel and as the same rows in DDL for strudel-serve (which
// takes only -data and -bibtex), projects and the org hierarchy as DDL,
// publications as BibTeX.
func (s *Site) Files() map[string][]byte {
	return map[string][]byte{
		"people.csv":   s.PeopleCSV(),
		"orgs.csv":     s.orgsCSV(),
		"people.ddl":   s.peopleDDL(),
		"orgs.ddl":     s.orgsDDL(),
		"projects.ddl": s.projectsDDL(),
		"pubs.bib":     s.PubsBib(),
	}
}

// WriteFiles writes every source file into dir, creating it.
func (s *Site) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range s.Files() {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

var batchOnly = regexp.MustCompile(`(?s)// BEGIN batch-only.*?// END batch-only\n`)

// ServeQuery is the site query minus what the click-time evaluator
// cannot replay: the aggregate block, fenced in site.struql.
func ServeQuery(siteQuery []byte) []byte { return batchOnly.ReplaceAll(siteQuery, nil) }

// PeopleCSV renders the personnel table. Every sixth person has no
// phone: a missing cell, hence a missing attribute.
func (s *Site) PeopleCSV() []byte {
	var b strings.Builder
	b.WriteString("id,name,office,phone,org,area\n")
	for i, p := range s.People {
		phone := p.Phone
		if i%6 == 5 {
			phone = ""
		}
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%s\n", p.ID, p.Name, p.Office, phone, s.Orgs[p.Org].ID, p.Area)
	}
	return []byte(b.String())
}

func (s *Site) orgsCSV() []byte {
	var b strings.Builder
	b.WriteString("id,name,director\n")
	for _, o := range s.Orgs {
		fmt.Fprintf(&b, "%s,%s,%s\n", o.ID, o.Name, s.People[o.Director].ID)
	}
	return []byte(b.String())
}

// peopleDDL is PeopleCSV row for row, with the oids the CSV wrapper
// would assign, so both binaries see one data graph.
func (s *Site) peopleDDL() []byte {
	var b strings.Builder
	b.WriteString("collection People;\n")
	for i, p := range s.People {
		fmt.Fprintf(&b, "node People/%s in People { id %q; name %q; office %q; ", p.ID, p.ID, p.Name, p.Office)
		if i%6 != 5 {
			fmt.Fprintf(&b, "phone %q; ", p.Phone)
		}
		fmt.Fprintf(&b, "org %q; area %q; }\n", s.Orgs[p.Org].ID, p.Area)
	}
	return []byte(b.String())
}

func (s *Site) orgsDDL() []byte {
	var b strings.Builder
	b.WriteString("collection Orgs;\n")
	for _, o := range s.Orgs {
		fmt.Fprintf(&b, "node Orgs/%s in Orgs { id %q; name %q; director %q; }\n", o.ID, o.ID, o.Name, s.People[o.Director].ID)
	}
	return []byte(b.String())
}

// projectsDDL holds the projects and, as bare edges between rows of the
// orgs table, the organisation hierarchy the site walks with "suborg"*.
func (s *Site) projectsDDL() []byte {
	var b strings.Builder
	b.WriteString("collection Projects;\n")
	for _, p := range s.Projects {
		fmt.Fprintf(&b, "node %s in Projects { name %q; synopsis %q; area %q; ", p.ID, p.Name, p.Synopsis, p.Area)
		if p.Sponsor != "" {
			fmt.Fprintf(&b, "sponsor %q; ", p.Sponsor)
		}
		for _, m := range p.Members {
			fmt.Fprintf(&b, "member &People/%s; ", s.People[m].ID)
		}
		b.WriteString("}\n")
	}
	for _, o := range s.Orgs {
		if o.Parent >= 0 {
			fmt.Fprintf(&b, "edge Orgs/%s suborg &Orgs/%s;\n", s.Orgs[o.Parent].ID, o.ID)
		}
	}
	return []byte(b.String())
}

// PubsBib renders the bibliography with the irregularities of §6.3:
// entry types differ, venues come through @string macros or literal
// journal names, and year, month, pages, url, note and keywords are each
// present in some entries and absent in others.
func (s *Site) PubsBib() []byte {
	var b strings.Builder
	for _, v := range venues {
		fmt.Fprintf(&b, "@string{%s = \"Proceedings of %s\"}\n", v, strings.ToUpper(v))
	}
	for _, p := range s.Pubs {
		names := make([]string, 0, len(p.Authors)+len(p.Guests))
		for _, a := range p.Authors {
			names = append(names, s.People[a].Name)
		}
		names = append(names, p.Guests...)
		typ, venueField := "inproceedings", "booktitle = "+venues[p.Venue]
		if p.shape%5 == 0 {
			typ, venueField = "article", fmt.Sprintf("journal = \"Journal of %s\"", strings.ToUpper(venues[p.Venue]))
		}
		fmt.Fprintf(&b, "@%s{%s,\n  author = {%s},\n  title = {%s},\n  %s,\n", typ, p.Key, strings.Join(names, " and "), p.Title, venueField)
		if p.Year != 0 {
			fmt.Fprintf(&b, "  year = %d,\n", p.Year)
		}
		if p.shape%3 == 0 {
			fmt.Fprintf(&b, "  pages = \"%d--%d\",\n", 1+p.shape%400, 12+p.shape%400)
		}
		if p.shape%4 == 1 {
			fmt.Fprintf(&b, "  month = \"jun\" # \" \" # \"%d\",\n", 1+p.shape%28)
		}
		if p.shape%7 == 2 {
			fmt.Fprintf(&b, "  url = {http://example.org/papers/%s.ps},\n", p.Key)
		}
		if p.shape%11 == 3 {
			b.WriteString("  note = {Invited paper},\n")
		}
		cats := make([]string, len(p.Cats))
		for i, c := range p.Cats {
			cats[i] = CatName(c)
		}
		fmt.Fprintf(&b, "  keywords = {%s}\n}\n", strings.Join(cats, ", "))
	}
	return []byte(b.String())
}

// --- what the published site must look like --------------------------

// Page is one page of the site as the generator predicts it: the file
// strudel publishes it under, the path strudel-serve answers it on, and
// a string its HTML must contain.
type Page struct {
	File, URL, Title string
}

func pageOf(fn, arg, keyPrefix, title string) Page {
	file := fn + "_" + sanitize(arg) + "_.html"
	url := "/page/" + fn
	if arg != "" {
		url += ";" + keyPrefix + strings.ReplaceAll(arg, "/", "%2F")
	}
	return Page{File: file, URL: url, Title: title}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}

// EntityPages lists the small pages: one per person, project and
// publication, in that order.
func (s *Site) EntityPages() []Page {
	var out []Page
	for i := range s.People {
		out = append(out, s.PersonPage(i))
	}
	for _, p := range s.Projects {
		out = append(out, pageOf("ProjectPage", p.ID, "n", p.Name))
	}
	for _, p := range s.Pubs {
		out = append(out, s.PubPage(p))
	}
	return out
}

// PubPage predicts the page of one publication.
func (s *Site) PubPage(p Pub) Page { return pageOf("PubPage", p.Key, "n", p.Title) }

// PersonPage predicts the page of person i.
func (s *Site) PersonPage(i int) Page {
	return pageOf("PersonPage", "People/"+s.People[i].ID, "n", s.People[i].Name)
}

// FanOutPages lists the pages whose size grows with the scale: the home
// page, the four indexes, one page per organisation (the lab's lists
// everyone), and one page per year and per category that has at least
// one publication.
func (s *Site) FanOutPages() []Page {
	out := []Page{
		{File: "index.html", URL: "/", Title: "Strudel Research Laboratory"},
		pageOf("PeopleIndex", "", "", "People"),
		pageOf("OrgIndex", "", "", "Organisations"),
		pageOf("ProjectIndex", "", "", "Projects"),
		pageOf("PubIndex", "", "", "Publications"),
	}
	for _, o := range s.Orgs {
		out = append(out, pageOf("OrgPage", "Orgs/"+o.ID, "n", o.Name))
	}
	years, cats := map[int]bool{}, map[int]bool{}
	for _, p := range s.Pubs {
		if p.Year != 0 {
			years[p.Year] = true
		}
		for _, c := range p.Cats {
			cats[c] = true
		}
	}
	for _, y := range sortedKeys(years) {
		ys := fmt.Sprint(y)
		out = append(out, pageOf("YearPage", ys, "i", "Publications of "+ys))
	}
	for _, c := range sortedKeys(cats) {
		out = append(out, pageOf("CategoryPage", CatName(c), "s", "Topic "+CatName(c)))
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// PageCount is the number of pages a full build publishes.
func (s *Site) PageCount() int {
	return len(s.People) + len(s.Projects) + len(s.Pubs) + len(s.FanOutPages())
}

// --- queries -----------------------------------------------------------

// Query is one where clause for POST /query with the row count the
// generator's model gives it.
type Query struct {
	Text string
	Rows int
}

// Queries returns n distinct selective where clauses, each answered by
// at most a few hundred rows. They rotate through four shapes: the
// publications of one author (a value lookup joined to titles), the
// organisation of one person (a cross-table join), the projects of one
// member (an edge into a node), and the publications of one topic in one
// year (two filters on one collection). n is capped by what the site
// can make distinct.
func (s *Site) Queries(n int) []Query {
	pubsBy := make([]int, len(s.People))
	for _, p := range s.Pubs {
		for _, a := range p.Authors {
			pubsBy[a]++
		}
	}
	projBy := make([]int, len(s.People))
	for _, p := range s.Projects {
		for _, m := range p.Members {
			projBy[m]++
		}
	}
	yearCat := map[[2]int]int{}
	for _, p := range s.Pubs {
		if p.Year == 0 {
			continue
		}
		for _, c := range p.Cats {
			yearCat[[2]int{p.Year, c}]++
		}
	}
	var out []Query
	for i := 0; len(out) < n && i < len(s.People); i++ {
		p := s.People[i]
		out = append(out, Query{
			Text: fmt.Sprintf(`Publications(x), x -> "author" -> %q, x -> "title" -> t`, p.Name),
			Rows: pubsBy[i],
		}, Query{
			Text: fmt.Sprintf(`People(p), p -> "id" -> %q, p -> "org" -> k, Orgs(o), o -> "id" -> k, o -> "name" -> n`, p.ID),
			Rows: 1,
		}, Query{
			Text: fmt.Sprintf(`Projects(j), j -> "member" -> m, m -> "id" -> %q, j -> "name" -> n`, p.ID),
			Rows: projBy[i],
		})
		if i < Years*Categories {
			y, c := FirstYear+i%Years, i/Years
			out = append(out, Query{
				Text: fmt.Sprintf(`Publications(x), x -> "year" -> %d, x -> "category" -> %q, x -> "title" -> t`, y, CatName(c)),
				Rows: yearCat[[2]int{y, c}],
			})
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// --- edits -------------------------------------------------------------

// Edit is one scripted change to the sources: the files to replace, and
// how to see that the published site has caught up.
type Edit struct {
	Kind string // retitle, add, remove or move
	// Files maps a source file name to its complete new content.
	Files map[string][]byte
	// Page is the page the edit shows on; Marker is a string unique to
	// this edit that the page must contain once the edit is published.
	// Gone means the page must instead disappear.
	Page   Page
	Marker string
	Gone   bool
}

// NextEdit applies the next scripted edit to the model and returns it:
// 70 % retitle a publication, 10 % add one, 10 % remove one, 10 % move a
// person to another organisation (and office, which carries the
// marker).
func (s *Site) NextEdit() Edit {
	s.edits++
	marker := fmt.Sprintf("rev%05d%s", s.edits, word(s.edits*13))
	switch r := s.rng.Intn(10); {
	case r < 7:
		return s.retitle(marker)
	case r == 7:
		p := s.newPub()
		p.Title += " " + marker
		s.Pubs = append(s.Pubs, p)
		return Edit{Kind: "add", Files: map[string][]byte{"pubs.bib": s.PubsBib()}, Page: s.PubPage(p), Marker: marker}
	case r == 8 && len(s.Pubs) > 40:
		i := s.rng.Intn(len(s.Pubs))
		gone := s.Pubs[i]
		s.Pubs = append(s.Pubs[:i], s.Pubs[i+1:]...)
		return Edit{Kind: "remove", Files: map[string][]byte{"pubs.bib": s.PubsBib()}, Page: s.PubPage(gone), Gone: true}
	case r == 9:
		i := s.rng.Intn(len(s.People))
		s.People[i].Org = (s.People[i].Org + 1 + s.rng.Intn(len(s.Orgs)-1)) % len(s.Orgs)
		s.People[i].Office = marker
		return Edit{Kind: "move", Files: map[string][]byte{"people.csv": s.PeopleCSV()}, Page: s.PersonPage(i), Marker: marker}
	}
	return s.retitle(marker)
}

// Retitle is the edit the hot-reload measurement uses on its own.
func (s *Site) Retitle() Edit {
	s.edits++
	return s.retitle(fmt.Sprintf("rev%05d%s", s.edits, word(s.edits*13)))
}

func (s *Site) retitle(marker string) Edit {
	i := s.rng.Intn(len(s.Pubs))
	p := &s.Pubs[i]
	if cut := strings.Index(p.Title, " rev"); cut >= 0 {
		p.Title = p.Title[:cut]
	}
	p.Title += " " + marker
	return Edit{Kind: "retitle", Files: map[string][]byte{"pubs.bib": s.PubsBib()}, Page: s.PubPage(*p), Marker: marker}
}

func capital(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}
