package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"strudel/bench/gen"
)

// inputs is one generated site on disk: the model that produced it and
// the directory holding its source files.
type inputs struct {
	site *gen.Site
	dir  string
}

// writeInputs generates the site for (seed, pubs) and writes its source
// files, plus the click-time variant of the site query, into dir.
func (e *env) writeInputs(dir string, seed int64, pubs int) (*inputs, error) {
	in := &inputs{site: gen.New(seed, pubs), dir: dir}
	if err := in.site.WriteFiles(dir); err != nil {
		return nil, err
	}
	q, err := os.ReadFile(filepath.Join(e.siteDir, "site.struql"))
	if err != nil {
		return nil, err
	}
	return in, os.WriteFile(filepath.Join(dir, "serve.struql"), gen.ServeQuery(q), 0o644)
}

// apply writes an edit's files over the sources, each by atomic rename.
func (in *inputs) apply(ed gen.Edit) error {
	for name, data := range ed.Files {
		if err := writeAtomic(filepath.Join(in.dir, name), data); err != nil {
			return err
		}
	}
	return nil
}

// templateArgs is one -template Name=file flag per template; strudel
// keys them by template name and strudel-serve by Skolem function, and
// the bench site uses one name for both.
func templateArgs(siteDir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(siteDir, "*.tmpl"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no templates in %s", siteDir)
	}
	sort.Strings(files)
	var args []string
	for _, f := range files {
		args = append(args, "-template", strings.TrimSuffix(filepath.Base(f), ".tmpl")+"="+f)
	}
	return args, nil
}

// strudelArgs is the command line of one batch build of in into out.
func (e *env) strudelArgs(in *inputs, out string) []string {
	args := []string{
		"-csv", "People:id:" + filepath.Join(in.dir, "people.csv"),
		"-csv", "Orgs:id:" + filepath.Join(in.dir, "orgs.csv"),
		"-data", filepath.Join(in.dir, "projects.ddl"),
		"-bibtex", filepath.Join(in.dir, "pubs.bib"),
		"-query", filepath.Join(e.siteDir, "site.struql"),
		"-root", "HomePage()",
		"-out", out,
	}
	return append(args, e.tmplArgs...)
}

// serveArgs is the command line of strudel-serve over in: 2 shards of 2
// replicas, every other flag at its default unless extra says otherwise.
func (e *env) serveArgs(in *inputs, addr string, extra ...string) []string {
	args := []string{
		"-data", filepath.Join(in.dir, "people.ddl"),
		"-data", filepath.Join(in.dir, "orgs.ddl"),
		"-data", filepath.Join(in.dir, "projects.ddl"),
		"-bibtex", filepath.Join(in.dir, "pubs.bib"),
		"-query", filepath.Join(in.dir, "serve.struql"),
		"-addr", addr,
		"-shards", "2", "-replicas", "2",
	}
	return append(append(args, extra...), e.tmplArgs...)
}
