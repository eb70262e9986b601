package main

import (
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/mediator"
	"strudel/internal/wrapper/filesrc"
)

// testLog routes the reload loop's log lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// watchFixture builds a two-publication site under the reload loop and
// returns the loop, its swapper, the ddl path and the output dir.
func watchFixture(t *testing.T) (*dynamic.Reloader, *swapper, string, string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ddl := write("d.ddl", `
collection Pubs;
node p1 in Pubs { title "First paper"; }
node p2 in Pubs { title "Second paper"; }
`)
	query := write("site.struql", `
create Root()
link Root() -> "title" -> "Home"
where Pubs(x)
link Root() -> "pub" -> PubPage(x)
{ where x -> "title" -> tt link PubPage(x) -> "title" -> tt }
`)
	tmplRoot := write("root.tmpl", `<h1><SFMT title></h1><SFMT pub UL TEXT=title>`)
	tmplPub := write("pub.tmpl", `<h2><SFMT title></h2>`)
	out := filepath.Join(dir, "site")

	sources, err := filesrc.Sources([]string{ddl}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	version, err := makeVersion(query,
		[]string{"Root=" + tmplRoot, "Pub=" + tmplPub}, nil,
		[]string{"Root()=Root", "PubPage=Pub"}, []string{"Root()"},
		[]string{`every PubPage has "title"`})
	if err != nil {
		t.Fatal(err)
	}
	rl, sw, err := newWatch(sources, version, out, time.Second, nil, log.New(testLog{t}, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	return rl, sw, ddl, out
}

// tick runs one poll of the loop at now and reports whether it
// republished the site, with the swap's failure if it had one.
func tick(rl *dynamic.Reloader, sw *swapper, now time.Time) (published bool, err error) {
	swapped := false
	rl.OnApply = func(*mediator.Delta, int, int) { swapped = true }
	rl.Tick(now)
	if !swapped {
		return false, nil
	}
	return sw.err == nil, sw.err
}

func readPage(t *testing.T, out, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(out, name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(b)
}

func TestWatchIncrementalEditPatchesSite(t *testing.T) {
	rl, sw, ddl, out := watchFixture(t)
	if got := readPage(t, out, "index.html"); !strings.Contains(got, "First paper") {
		t.Fatalf("initial index:\n%s", got)
	}
	if pub, _ := tick(rl, sw, time.Now()); pub {
		t.Error("tick with no edits republished")
	}

	// Retitle p1; the different content length guarantees the stamp moves
	// even on a coarse-mtime filesystem.
	err := os.WriteFile(ddl, []byte(`
collection Pubs;
node p1 in Pubs { title "First paper, revised edition"; }
node p2 in Pubs { title "Second paper"; }
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := tick(rl, sw, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !pub {
		t.Fatal("edit did not republish")
	}
	var p1Page string
	for name, body := range sw.site.Output().Pages {
		if strings.Contains(body, "revised edition") {
			p1Page = name
		}
		if got := readPage(t, out, name); got != body {
			t.Errorf("published %s does not match generated page", name)
		}
	}
	if p1Page == "" {
		t.Error("no page carries the new title")
	}
	if got := sw.metrics.DeltasApplied.Load(); got != 1 {
		t.Errorf("deltas applied = %d, want 1 (edit should stay row-level)", got)
	}
	if got := sw.metrics.FullRebuilds.Load(); got != 0 {
		t.Errorf("full rebuilds = %d, want 0", got)
	}
	if sw.metrics.PagesLinked.Load() == 0 {
		t.Error("patch publish hardlinked no unchanged pages")
	}
}

func TestWatchConstraintVetoKeepsOldTree(t *testing.T) {
	rl, sw, ddl, out := watchFixture(t)
	before := readPage(t, out, "index.html")

	// Drop p1's title: PubPage(p1) still exists but violates
	// `every PubPage has "title"` — publication must be vetoed.
	err := os.WriteFile(ddl, []byte(`
collection Pubs;
node p1 in Pubs { author "Nameless"; }
node p2 in Pubs { title "Second paper"; }
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pub, terr := tick(rl, sw, time.Now())
	if pub || terr == nil {
		t.Fatalf("veto tick: published=%v err=%v", pub, terr)
	}
	if got := readPage(t, out, "index.html"); got != before {
		t.Error("vetoed edit reached the published tree")
	}

	// A corrected edit publishes again, carrying everything accumulated.
	err = os.WriteFile(ddl, []byte(`
collection Pubs;
node p1 in Pubs { title "First paper, corrected"; }
node p2 in Pubs { title "Second paper"; }
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pub, terr = tick(rl, sw, time.Now())
	if terr != nil || !pub {
		t.Fatalf("recovery tick: published=%v err=%v", pub, terr)
	}
	if got := readPage(t, out, "index.html"); got == before || !strings.Contains(got, "corrected") {
		t.Errorf("recovered index:\n%s", got)
	}
}

func TestWatchSourceErrorRetries(t *testing.T) {
	rl, sw, ddl, out := watchFixture(t)
	before := readPage(t, out, "index.html")

	// A torn write: syntactically invalid DDL. The failed refresh keeps
	// the source pending (and the old tree) and backs off, so the first
	// tick past the backoff retries from current file state.
	if err := os.WriteFile(ddl, []byte(`node p1 in {`), 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if pub, _ := tick(rl, sw, now); pub {
		t.Error("broken source republished")
	}
	if got := readPage(t, out, "index.html"); got != before {
		t.Error("broken source changed the published tree")
	}

	if err := os.WriteFile(ddl, []byte(`
collection Pubs;
node p1 in Pubs { title "Recovered"; }
node p2 in Pubs { title "Second paper"; }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Past the first backoff: BackoffMin (500ms) plus at most 20% jitter.
	pub, err := tick(rl, sw, now.Add(time.Second))
	if err != nil || !pub {
		t.Fatalf("recovery tick: published=%v err=%v", pub, err)
	}
	if got := readPage(t, out, "index.html"); !strings.Contains(got, "Recovered") {
		t.Errorf("recovered index:\n%s", got)
	}
}

// TestWatchDetectsSameSizeSameMtimeEdit covers an edit that metadata
// polling cannot see: same length, mtime pinned back to the stamped
// value. The reload loop's content hash must still republish it.
func TestWatchDetectsSameSizeSameMtimeEdit(t *testing.T) {
	rl, sw, ddl, out := watchFixture(t)
	fi, err := os.Stat(ddl)
	if err != nil {
		t.Fatal(err)
	}
	mtime := fi.ModTime()
	// "Final paper" has the length of "First paper".
	if err := os.WriteFile(ddl, []byte(`
collection Pubs;
node p1 in Pubs { title "Final paper"; }
node p2 in Pubs { title "Second paper"; }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(ddl, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(ddl)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(mtime) || after.Size() != fi.Size() {
		t.Skipf("filesystem did not pin metadata (mtime %v→%v size %d→%d)",
			mtime, after.ModTime(), fi.Size(), after.Size())
	}
	pub, err := tick(rl, sw, time.Now())
	if err != nil || !pub {
		t.Fatalf("same-size edit tick: published=%v err=%v", pub, err)
	}
	if got := readPage(t, out, "index.html"); !strings.Contains(got, "Final paper") {
		t.Errorf("index after same-size edit:\n%s", got)
	}
}
