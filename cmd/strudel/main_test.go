package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"strudel/internal/core"
	"strudel/internal/diag"
)

// TestMain lets a test run the command itself: with STRUDEL_RUN_MAIN
// set, the test binary is strudel, and its arguments are strudel's.
func TestMain(m *testing.M) {
	if os.Getenv("STRUDEL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs strudel with args in a child process and returns its exit
// code and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "STRUDEL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("run strudel: %v", err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestWatchRejectsNonPositiveInterval: a zero or negative poll interval
// is flag misuse, refused before anything is built or published.
func TestWatchRejectsNonPositiveInterval(t *testing.T) {
	dir := t.TempDir()
	ddl := filepath.Join(dir, "d.ddl")
	query := filepath.Join(dir, "site.struql")
	if err := os.WriteFile(ddl, []byte("collection Pubs;\nnode p1 in Pubs { title \"A\"; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(query, []byte(`create Root() link Root() -> "title" -> "Home"`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, interval := range []string{"0", "-1s"} {
		out := filepath.Join(dir, "site"+interval)
		code, output := runMain(t, "-watch", "-watch-interval", interval,
			"-data", ddl, "-query", query, "-root", "Root()", "-out", out)
		if code != exitUsage || !strings.Contains(output, "-watch-interval must be positive") {
			t.Errorf("-watch-interval %s: exit %d, output:\n%s", interval, code, output)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-watch-interval %s: site was built before the flag was rejected", interval)
		}
	}
}

func TestBuildExampleSites(t *testing.T) {
	for _, name := range []string{"homepage", "cnn", "bilingual"} {
		out := filepath.Join(t.TempDir(), name)
		if err := buildExample(name, 8, out, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entries, err := os.ReadDir(out)
		if err != nil || len(entries) == 0 {
			t.Errorf("%s: no version directories written", name)
		}
	}
}

func TestBuildExampleOrgsiteSmall(t *testing.T) {
	out := t.TempDir()
	if err := buildExample("orgsite", 10, out, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "internal", "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Research Lab") {
		t.Error("orgsite index wrong")
	}
}

func TestBuildExampleUnknown(t *testing.T) {
	if err := buildExample("nope", 0, t.TempDir(), nil); err == nil {
		t.Error("unknown example should fail")
	}
}

func TestBuildExplicit(t *testing.T) {
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
node p1 in Pubs { title "Strudel"; }
`)
	csv := write("people.csv", "id,name\nmff,Mary\n")
	query := write("site.struql", `
create Root()
link Root() -> "title" -> "Home"
where Pubs(x)
link Root() -> "pub" -> PubPage(x)
{ where x -> "title" -> tt link PubPage(x) -> "title" -> tt }
where People(p)
link Root() -> "person" -> PersonPage(p)
{ where p -> "name" -> n link PersonPage(p) -> "name" -> n }
`)
	tmpl := write("root.tmpl", `<h1><SFMT title></h1><SFMT pub UL TEXT=title><SFMT person UL TEXT=name>`)
	out := filepath.Join(dir, "site")
	err := buildExplicit(
		[]string{ddl}, nil, []string{"People:id:" + csv}, nil, query,
		[]string{"Root=" + tmpl}, nil, []string{"Root()=Root"},
		[]string{"Root()"}, []string{"connected from Root"}, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(out, "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(index), "Strudel") || !strings.Contains(string(index), "Mary") {
		t.Errorf("index:\n%s", index)
	}
}

func TestBuildExplicitErrors(t *testing.T) {
	if err := buildExplicit(nil, nil, nil, nil, "", nil, nil, nil, nil, nil, t.TempDir(), nil); err == nil {
		t.Error("missing query should fail")
	}
	if err := buildExplicit(nil, nil, []string{"bad"}, nil, "x", nil, nil, nil, nil, nil, t.TempDir(), nil); err == nil {
		t.Error("bad csv spec should fail")
	}
	if err := buildExplicit(nil, nil, nil, []string{"noseparator"}, "x", nil, nil, nil, nil, nil, t.TempDir(), nil); err == nil {
		t.Error("bad json spec should fail")
	}
}

func TestBuildExplicitLenientSkipsBadRows(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Row 3 is ragged; lenient mode skips it within the budget.
	csv := write("people.csv", "id,name\nmff,Mary\nbroken\nds,Dan\n")
	query := write("site.struql", `
create Root()
where People(p)
link Root() -> "person" -> PersonPage(p)
{ where p -> "name" -> n link PersonPage(p) -> "name" -> n }
`)
	out := filepath.Join(dir, "site")
	opts := &core.Options{Lenient: true, Budget: diag.Unlimited}
	err := buildExplicit(nil, nil, []string{"People:id:" + csv}, nil, query,
		nil, nil, nil, []string{"Root()"}, nil, out, opts)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(out)
	if err != nil || len(entries) == 0 {
		t.Fatal("no site published")
	}
	// Zero budget turns the same input into a budget failure, and the
	// previously published site survives.
	err = buildExplicit(nil, nil, []string{"People:id:" + csv}, nil, query,
		nil, nil, nil, []string{"Root()"}, nil, out, &core.Options{Lenient: true})
	var be *diag.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *diag.BudgetError", err)
	}
	if exitCode(err) != exitBudget {
		t.Errorf("exit code = %d, want %d", exitCode(err), exitBudget)
	}
	after, err := os.ReadDir(out)
	if err != nil || len(after) != len(entries) {
		t.Error("failed lenient build disturbed the published site")
	}
}

func TestBuildExplicitConstraintVetoKeepsOldSite(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	csv := write("people.csv", "id,name\nmff,Mary\n")
	query := write("site.struql", `
create Root()
where People(p)
link Root() -> "person" -> PersonPage(p)
`)
	out := filepath.Join(dir, "site")
	ok := buildExplicit(nil, nil, []string{"People:id:" + csv}, nil, query,
		nil, nil, nil, []string{"Root()"}, nil, out, nil)
	if ok != nil {
		t.Fatal(ok)
	}
	before, _ := os.ReadFile(filepath.Join(out, "index.html"))

	err := buildExplicit(nil, nil, []string{"People:id:" + csv}, nil, query,
		nil, nil, nil, []string{"Root()"}, []string{`every PersonPage has "name"`}, out, nil)
	if !errors.Is(err, errConstraints) {
		t.Fatalf("err = %v, want errConstraints", err)
	}
	if exitCode(err) != exitConstraints {
		t.Errorf("exit code = %d, want %d", exitCode(err), exitConstraints)
	}
	after, rerr := os.ReadFile(filepath.Join(out, "index.html"))
	if rerr != nil || string(after) != string(before) {
		t.Error("constraint veto did not leave the published site untouched")
	}
}

func TestExitCodeMapping(t *testing.T) {
	if got := exitCode(errors.New("disk on fire")); got != exitIO {
		t.Errorf("generic error → %d, want %d", got, exitIO)
	}
	wrapped := fmt.Errorf("core: x: %w", &diag.BudgetError{Source: "s"})
	if got := exitCode(wrapped); got != exitBudget {
		t.Errorf("budget error → %d, want %d", got, exitBudget)
	}
	if got := exitCode(fmt.Errorf("wrap: %w", errConstraints)); got != exitConstraints {
		t.Errorf("constraint error → %d, want %d", got, exitConstraints)
	}
}
