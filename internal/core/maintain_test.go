package core_test

import (
	"errors"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/obs"
)

// A built version is kept up to date by ivm. These tests pin what
// maintenance promises about a version as core defines it.

const maintainQuery = `
create Root()
link Root() -> "title" -> "Library"

where Books(b)
create BookPage(b)
link Root() -> "Book" -> BookPage(b)
{
  where b -> "title" -> t
  link BookPage(b) -> "title" -> t
}

where Authors(a)
create AuthorPage(a)
link Root() -> "Author" -> AuthorPage(a)
{
  where a -> "name" -> n
  link AuthorPage(a) -> "name" -> n
}
`

func maintainVersion() *core.Version {
	return &core.Version{
		Name:    "main",
		Queries: []string{maintainQuery},
		Templates: map[string]string{
			"Root":   `<h1><SFMT title></h1><SFMT Book UL TEXT=title><SFMT Author UL TEXT=name>`,
			"Book":   `<b><SFMT title></b>`,
			"Author": `<i><SFMT name></i>`,
		},
		PerObject: map[string]string{"Root()": "Root"},
		ObjectTemplatePrefixes: map[string]string{
			"BookPage(":   "Book",
			"AuthorPage(": "Author",
		},
		Roots: []string{"Root()"},
	}
}

func maintainData() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Books", "b1")
	g.AddEdge("b1", "title", graph.NewString("TAOCP"))
	g.AddToCollection("Authors", "a1")
	g.AddEdge("a1", "name", graph.NewString("Knuth"))
	return g
}

func TestMaintainerNoopDelta(t *testing.T) {
	data := maintainData()
	m := &obs.IVMMetrics{}
	s, err := ivm.NewSite(maintainVersion(), data, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() == nil {
		t.Fatal("single-query version should be maintained incrementally")
	}
	out := s.Output()
	if err := s.Apply(data, &mediator.Delta{}); err != nil {
		t.Fatal(err)
	}
	work := m.RowsInserted.Load() + m.RowsRemoved.Load() +
		m.SitesReevaluated.Load() + m.BlocksReevaluated.Load()
	if s.Output() != out || work != 0 || m.DirtyPages.Load() != 0 || m.FullRebuilds.Load() != 0 {
		t.Errorf("noop delta did work: %d units, %d dirty pages, %d rebuilds",
			work, m.DirtyPages.Load(), m.FullRebuilds.Load())
	}
}

func TestMaintainerRejectsMultiQueryVersions(t *testing.T) {
	v := maintainVersion()
	v.Queries = append(v.Queries, `create X()`)
	_, err := ivm.NewEngine(v, maintainData(), nil)
	var b *ivm.Bailout
	if !errors.As(err, &b) || b.Reason != ivm.ReasonComposedQueries {
		t.Errorf("multi-query version should be refused as composed queries, got %v", err)
	}
}
