package gen

import (
	"bytes"
	"strings"
	"testing"
)

// Same seed, same bytes; another seed, other bytes of about the same
// size: the workloads must differ by who is who, not by how much work
// there is.
func TestFilesDeterministic(t *testing.T) {
	a, b, c := New(5, 200).Files(), New(5, 200).Files(), New(6, 200).Files()
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("%s: same seed gave different bytes", name)
		}
		if bytes.Equal(data, c[name]) {
			t.Errorf("%s: different seeds gave the same bytes", name)
		}
		if d := float64(len(c[name])-len(data)) / float64(len(data)); d > 0.03 || d < -0.03 {
			t.Errorf("%s: sizes differ by %.1f%% between seeds", name, 100*d)
		}
	}
}

func TestEditScriptDeterministic(t *testing.T) {
	a, b := New(9, 100), New(9, 100)
	kinds := map[string]int{}
	for i := 0; i < 200; i++ {
		ea, eb := a.NextEdit(), b.NextEdit()
		if ea.Kind != eb.Kind || ea.Marker != eb.Marker || ea.Page != eb.Page || len(ea.Files) != 1 {
			t.Fatalf("edit %d differs between two runs of one seed: %+v vs %+v", i, ea.Page, eb.Page)
		}
		for name, data := range ea.Files {
			if !bytes.Equal(data, eb.Files[name]) {
				t.Fatalf("edit %d: %s differs", i, name)
			}
			if !ea.Gone && !strings.Contains(string(data), ea.Marker) {
				t.Fatalf("edit %d (%s): the new %s does not carry the marker", i, ea.Kind, name)
			}
		}
		kinds[ea.Kind]++
	}
	for _, k := range []string{"retitle", "add", "remove", "move"} {
		if kinds[k] == 0 {
			t.Errorf("200 edits held no %s", k)
		}
	}
	if kinds["retitle"] < 110 {
		t.Errorf("retitles are %d of 200 edits, want about 70%%", kinds["retitle"])
	}
}

// The page count is the oracle of a full build; it must track the model
// through edits.
func TestPageCountFollowsEdits(t *testing.T) {
	s := New(3, 120)
	before := s.PageCount()
	adds, removes := 0, 0
	for i := 0; i < 100; i++ {
		switch s.NextEdit().Kind {
		case "add":
			adds++
		case "remove":
			removes++
		}
	}
	// Years and categories can only lose a page if their last publication
	// goes, which 100 edits on 120 publications spread over 12 years
	// cannot do to all of them; allow for a few.
	if got, want := s.PageCount(), before+adds-removes; got > want || got < want-3 {
		t.Errorf("page count %d after %d adds and %d removes from %d", got, adds, removes, before)
	}
}

func TestQueriesDistinctAndCounted(t *testing.T) {
	s := New(4, 300)
	qs := s.Queries(250)
	if len(qs) != 250 {
		t.Fatalf("got %d queries, want 250", len(qs))
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q.Text] {
			t.Fatalf("query repeated: %s", q.Text)
		}
		seen[q.Text] = true
		if q.Rows < 0 || q.Rows > 500 {
			t.Errorf("%s: %d rows", q.Text, q.Rows)
		}
	}
}
