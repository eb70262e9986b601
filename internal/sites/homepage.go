// Package sites contains full reconstructions of the web sites the paper
// reports building with Strudel (§5.1): the mff-style personal homepage
// (internal and external versions), the CNN demonstration site (general
// and sports-only), the AT&T-Research-style organization site (internal
// and external), and the INRIA-Rodin-style bilingual site. Examples run
// them; the experiment harness measures them; tests pin their shapes.
package sites

import (
	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/synth"
	"strudel/internal/wrapper/bibtex"
)

// HomepageQuery is the site-definition query of the personal homepage —
// the Fig. 3 query extended with the personal-data, patents, projects,
// and navigation fragments the mff example describes (§5.1: "defined by
// a 48-line query").
const HomepageQuery = `
// Root, top-level pages, navigation bar, and footer.
create RootPage(), AbstractsPage(), PatentsPage(), NavBar(), FooterBox()
link RootPage() -> "Abstracts" -> AbstractsPage(),
     RootPage() -> "Patents" -> PatentsPage(),
     AbstractsPage() -> "kind" -> "All abstracts",
     PatentsPage() -> "kind" -> "Patents",
     NavBar() -> "Home" -> RootPage(),
     NavBar() -> "AbstractsLink" -> AbstractsPage(),
     NavBar() -> "PatentsLink" -> PatentsPage(),
     RootPage() -> "nav" -> NavBar(),
     AbstractsPage() -> "nav" -> NavBar(),
     PatentsPage() -> "nav" -> NavBar(),
     RootPage() -> "footer" -> FooterBox(),
     FooterBox() -> "note" -> "Generated by Strudel"

// Personal information from the Strudel data file: name and activities
// go to the root page, contact details into an embedded card.
where Me(p)
create ContactCard()
link RootPage() -> "Contact" -> ContactCard()
{
  where p -> "name" -> n
  link RootPage() -> "name" -> n, NavBar() -> "owner" -> n
}
{
  where p -> "activity" -> a
  link RootPage() -> "activity" -> a
}
{
  where p -> l -> v
  link ContactCard() -> l -> v
}

// Patents get their own page (shown by the internal view only).
where Patents(t)
create PatentItem(t)
link PatentsPage() -> "Patent" -> PatentItem(t)
{
  where t -> l -> v
  link PatentItem(t) -> l -> v
}

// Projects are summarized on the root page.
where MyProjects(j)
create ProjectBox(j)
link RootPage() -> "Project" -> ProjectBox(j)
{
  where j -> l -> v
  link ProjectBox(j) -> l -> v
}

// One presentation and one abstract page per publication (Fig. 3).
where Publications(x)
create AbstractPage(x), PaperPresentation(x)
link PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
     AbstractsPage() -> "Abstract" -> AbstractPage(x),
     PaperPresentation(x) -> "nav" -> NavBar()
{
  where x -> l -> v
  link AbstractPage(x) -> l -> v,
       PaperPresentation(x) -> l -> v
}
{
  where x -> "year" -> y
  create YearPage(y)
  link YearPage(y) -> "Year" -> y,
       YearPage(y) -> "Paper" -> PaperPresentation(x),
       YearPage(y) -> "nav" -> NavBar(),
       RootPage() -> "YearPage" -> YearPage(y)
}
{
  where x -> "category" -> c
  create CategoryPage(c)
  link CategoryPage(c) -> "Category" -> c,
       CategoryPage(c) -> "Paper" -> PaperPresentation(x),
       CategoryPage(c) -> "nav" -> NavBar(),
       RootPage() -> "CategoryPage" -> CategoryPage(c)
}
`

// homepagePersonalDDL is the Strudel data file holding personal
// information: address, phone, activities, patents, and projects (§5.1).
const homepagePersonalDDL = `
collection Me;
node me in Me {
    name "Mary Researcher";
    role "Principal Member of Technical Staff";
    address "180 Park Ave, Florham Park, NJ";
    phone "555-0101";
    email "mary@research.example.com";
    activity "PC member, SIGMOD 1999";
    activity "Editor, TODS";
}

collection Patents;
node pat1 in Patents {
    title "Method for declarative web-site specification";
    number "US5999999";
    year 1998;
}
node pat2 in Patents {
    title "Apparatus for semistructured query evaluation";
    number "US5888888";
    year 1997;
}

collection MyProjects;
node projStrudel in MyProjects {
    name "Strudel";
    synopsis "A web-site management system.";
}
node projSecret in MyProjects {
    name "Hush";
    synopsis "Unannounced prototype.";
    proprietary true;
}
`

// homepageTemplates returns the internal-version templates (12 of them;
// the paper's mff site used 13).
func homepageTemplates() map[string]string {
	return map[string]string{
		"NavBar": `<p>[<SFMT Home TEXT=name>] [<SFMT AbstractsLink TEXT=kind>] [<SFMT PatentsLink TEXT=kind>]</p>`,
		"Footer": `<hr><i><SFMT note></i>`,
		"RootPage": `<html><head><title><SFMT name></title></head><body>
<SFMT nav EMBED>
<h1><SFMT name></h1>
<SFMT Contact EMBED>
<h2>Projects</h2>
<SFMT Project EMBED UL>
<h2>Professional activities</h2>
<SFMT activity UL>
<h2>Publications by year</h2>
<SFMT YearPage UL ORDER=descend KEY=Year TEXT=Year>
<h2>Publications by category</h2>
<SFMT CategoryPage UL ORDER=ascend KEY=Category TEXT=Category>
<p><SFMT Abstracts TEXT=kind> &middot; <SFMT Patents TEXT=kind></p>
<SFMT footer EMBED>
</body></html>`,
		"ContactCard": `<p><SFMT role><br><SFMT address><br><SFMT phone><br><SFMT email></p>`,
		"ProjectBox":  `<b><SFMT name></b>: <SIF synopsis><SFMT synopsis><SELSE>(no synopsis)</SIF>`,
		"AbstractsPage": `<html><head><title>Abstracts</title></head><body>
<SFMT nav EMBED>
<h1>All abstracts</h1>
<SFMT Abstract EMBED UL>
</body></html>`,
		"AbstractPage": `<h3><SFMT title></h3>
<p>by <SFMT author ENUM DELIM=", "></p>
<SIF abstract><blockquote><SFMT abstract EMBED></blockquote><SELSE><p>No abstract available.</p></SIF>`,
		"PaperPresentation": `<html><head><title><SFMT title></title></head><body>
<SFMT nav EMBED>
<b><SFMT title></b> by <SFMT author ENUM DELIM=", "> (<SFMT year>)
<SIF journal><i>In <SFMT journal>.</i></SIF>
<SIF booktitle><i>In <SFMT booktitle>.</i></SIF>
<SIF proprietary><b>[proprietary]</b></SIF>
<p><SFMT Abstract TEXT=title></p>
<SIF postscript><p><SFMT postscript></p></SIF>
</body></html>`,
		"YearPage": `<html><head><title>Papers from <SFMT Year></title></head><body>
<SFMT nav EMBED>
<h1>Papers from <SFMT Year></h1>
<SFMT Paper UL TEXT=title>
</body></html>`,
		"CategoryPage": `<html><head><title><SFMT Category> papers</title></head><body>
<SFMT nav EMBED>
<h1>Papers on <SFMT Category></h1>
<SFMT Paper UL TEXT=title>
</body></html>`,
		"PatentsPage": `<html><head><title>Patents</title></head><body>
<SFMT nav EMBED>
<h1>Patents</h1>
<SFMT Patent EMBED UL>
</body></html>`,
		"PatentItem": `<b><SFMT title></b> (<SFMT number>, <SFMT year>)`,
	}
}

// homepageExternalOverrides are the template replacements that produce
// the external version from the same site graph: per §5.1, the external
// templates "exclude patents, and any publications and projects that are
// proprietary".
func homepageExternalOverrides() map[string]string {
	return map[string]string{
		"NavBar": `<p>[<SFMT Home TEXT=name>] [<SFMT AbstractsLink TEXT=kind>]</p>`,
		"RootPage": `<html><head><title><SFMT name></title></head><body>
<SFMT nav EMBED>
<h1><SFMT name></h1>
<SFMT Contact EMBED>
<h2>Projects</h2>
<ul><SFOR j IN Project><SIF @j.proprietary><SELSE><li><SFMT @j EMBED></li></SIF></SFOR></ul>
<h2>Professional activities</h2>
<SFMT activity UL>
<h2>Publications by year</h2>
<SFMT YearPage UL ORDER=descend KEY=Year TEXT=Year>
<h2>Publications by category</h2>
<SFMT CategoryPage UL ORDER=ascend KEY=Category TEXT=Category>
<p><SFMT Abstracts TEXT=kind></p>
<SFMT footer EMBED>
</body></html>`,
		"PaperPresentation": `<html><head><title><SFMT title></title></head><body>
<SFMT nav EMBED>
<SIF proprietary>This publication is not available outside the company.<SELSE>
<b><SFMT title></b> by <SFMT author ENUM DELIM=", "> (<SFMT year>)
<SIF journal><i>In <SFMT journal>.</i></SIF>
<SIF booktitle><i>In <SFMT booktitle>.</i></SIF>
<p><SFMT Abstract TEXT=title></p>
</SIF>
</body></html>`,
		"YearPage": `<html><head><title>Papers from <SFMT Year></title></head><body>
<SFMT nav EMBED>
<h1>Papers from <SFMT Year></h1>
<ul><SFOR p IN Paper><SIF @p.proprietary><SELSE><li><SFMT @p TEXT=title></li></SIF></SFOR></ul>
</body></html>`,
		"CategoryPage": `<html><head><title><SFMT Category> papers</title></head><body>
<SFMT nav EMBED>
<h1>Papers on <SFMT Category></h1>
<ul><SFOR p IN Paper><SIF @p.proprietary><SELSE><li><SFMT @p TEXT=title></li></SIF></SFOR></ul>
</body></html>`,
	}
}

// homepageTemplateAssignment maps Skolem-oid prefixes to template names.
func homepageTemplateAssignment() map[string]string {
	return map[string]string{
		"AbstractPage(":      "AbstractPage",
		"PaperPresentation(": "PaperPresentation",
		"YearPage(":          "YearPage",
		"CategoryPage(":      "CategoryPage",
		"PatentItem(":        "PatentItem",
		"ProjectBox(":        "ProjectBox",
	}
}

// Homepage builds the personal-homepage spec: a BibTeX bibliography of
// nPubs entries plus the personal Strudel data file, with internal and
// external versions sharing the same site-definition query (the external
// view is produced purely by swapping templates).
func Homepage(nPubs int) *core.Spec {
	bib := synth.Bibliography(nPubs, "mff")
	internalTemplates := homepageTemplates()
	externalTemplates := homepageTemplates()
	for name, src := range homepageExternalOverrides() {
		externalTemplates[name] = src
	}
	sharedPerObject := map[string]string{
		"RootPage()":      "RootPage",
		"AbstractsPage()": "AbstractsPage",
		"PatentsPage()":   "PatentsPage",
		"NavBar()":        "NavBar",
		"FooterBox()":     "Footer",
		"ContactCard()":   "ContactCard",
	}
	mkVersion := func(name string, templates map[string]string) core.Version {
		return core.Version{
			Name:                   name,
			Queries:                []string{HomepageQuery},
			Templates:              templates,
			PerObject:              sharedPerObject,
			ObjectTemplatePrefixes: homepageTemplateAssignment(),
			Roots:                  []string{"RootPage()"},
			Constraints: []string{
				`every PaperPresentation reachable from YearPage via "Paper"`,
				`every YearPage has "Year"`,
			},
		}
	}
	return &core.Spec{
		Name: "homepage",
		Sources: []mediator.Source{
			BibSource("bibliography", bib, bibtex.DefaultOptions()),
			DDLSource("personal", homepagePersonalDDL),
		},
		Versions: []core.Version{
			mkVersion("internal", internalTemplates),
			mkVersion("external", externalTemplates),
		},
	}
}

// HomepageData loads just the homepage data graph (for benches that skip
// HTML generation).
func HomepageData(nPubs int) (*graph.Graph, error) {
	spec := Homepage(nPubs)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		return nil, err
	}
	if _, err := med.Warehouse(); err != nil {
		return nil, err
	}
	return med.DataGraph(), nil
}
