// Command strudel builds a browsable web site: it loads data through
// wrappers, evaluates the site-definition query, checks integrity
// constraints, and writes the generated HTML (the full Fig. 1 pipeline).
//
// Two modes:
//
//	strudel -example homepage|cnn|orgsite|bilingual -out DIR [-size N]
//	    builds one of the bundled reconstructions of the paper's sites
//	    (every version; one subdirectory per version).
//
//	strudel -data x.ddl -bibtex y.bib -query site.struql
//	        -template Name=file.tmpl -collection Coll=Name -object OID=Name
//	        -root 'RootPage()' -out DIR [-constraint '...']
//	    builds a site from explicit inputs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"strudel/internal/core"
	"strudel/internal/diag"
	"strudel/internal/fsx"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/sites"
	"strudel/internal/wrapper/filesrc"
)

// Exit codes: 0 success, 1 generic/I-O failure, 2 flag misuse, 3 source
// error budget exceeded, 4 integrity constraint violated.
const (
	exitIO          = 1
	exitUsage       = 2
	exitBudget      = 3
	exitConstraints = 4
)

// errConstraints marks a build whose integrity constraints failed, so
// main can map it to its own exit code.
var errConstraints = errors.New("integrity constraints violated")

type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var dataFiles, bibFiles, csvSpecs, jsonFiles, templates, collTpl, objTpl, roots, constraintsList stringList
	example := flag.String("example", "", "bundled site: homepage, cnn, orgsite, or bilingual")
	size := flag.Int("size", 0, "scale of the bundled site (publications, articles, or people; 0 = default)")
	out := flag.String("out", "site-out", "output directory")
	jobs := flag.Int("j", 0, "build parallelism: 0 = one worker per CPU, 1 = sequential (output is identical at any setting)")
	traceOut := flag.String("trace", "", "write pipeline trace events (JSON Lines: wrap, query, generate, write spans plus a final metrics line) to FILE; - means stderr")
	queryFile := flag.String("query", "", "StruQL site-definition query file")
	strict := flag.Bool("strict", false, "fail fast on the first malformed source record instead of skipping within the error budget")
	maxSrcErrs := flag.String("max-source-errors", "10%", "per-source error budget: a count (\"10\"), a percentage (\"5%\"), or \"all\"")
	maxRows := flag.Int("max-rows", 0, "abort query evaluation when an intermediate relation exceeds N rows (0 = unlimited)")
	maxNFA := flag.Int("max-nfa-states", 0, "abort a regular-path search after N visited product states (0 = unlimited)")
	evalTimeout := flag.Duration("eval-timeout", 0, "wall-clock budget per version's query evaluation (0 = none)")
	watch := flag.Bool("watch", false, "after the first build, keep running: poll the input files and patch only the affected pages of the published site on each edit")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "poll interval for -watch")
	flag.Var(&dataFiles, "data", "data-definition-language file (repeatable)")
	flag.Var(&bibFiles, "bibtex", "BibTeX file (repeatable)")
	flag.Var(&csvSpecs, "csv", "CSV table as Table:keyColumn:file (repeatable)")
	flag.Var(&jsonFiles, "json", "JSON document as Collection:file (repeatable)")
	flag.Var(&templates, "template", "template as Name=file (repeatable)")
	flag.Var(&collTpl, "collection", "collection template as Coll=Name (repeatable)")
	flag.Var(&objTpl, "object", "object template as OID=Name (repeatable)")
	flag.Var(&roots, "root", "realization root oid, e.g. 'RootPage()' (repeatable)")
	flag.Var(&constraintsList, "constraint", "integrity constraint to check (repeatable)")
	flag.Parse()

	budget, berr := diag.ParseBudget(*maxSrcErrs)
	if berr != nil {
		fmt.Fprintln(os.Stderr, "strudel:", berr)
		os.Exit(exitUsage)
	}
	opts := &core.Options{
		Parallelism:  *jobs,
		Lenient:      !*strict,
		Budget:       budget,
		MaxRows:      *maxRows,
		MaxNFAStates: *maxNFA,
		EvalTimeout:  *evalTimeout,
	}
	var reg *obs.Registry
	if *traceOut != "" {
		opts.Trace = obs.NewTracer()
		opts.Eval = &obs.EvalMetrics{}
		opts.Source = &obs.SourceMetrics{}
		opts.Gen = &obs.GenMetrics{}
		reg = obs.NewRegistry()
		reg.Register("eval", opts.Eval)
		reg.Register("sources", opts.Source)
		reg.Register("htmlgen", opts.Gen)
	}
	var err error
	switch {
	case *watch && *example != "":
		fmt.Fprintln(os.Stderr, "strudel: -watch needs explicit file inputs; the bundled examples synthesize their data in memory")
		os.Exit(exitUsage)
	case *watch && *watchInterval <= 0:
		fmt.Fprintf(os.Stderr, "strudel: -watch-interval must be positive, got %s\n", *watchInterval)
		os.Exit(exitUsage)
	case *watch:
		err = watchExplicit(dataFiles, bibFiles, csvSpecs, jsonFiles, *queryFile, templates, collTpl, objTpl, roots, constraintsList, *out, *watchInterval, opts)
	case *example != "":
		err = buildExample(*example, *size, *out, opts)
	default:
		err = buildExplicit(dataFiles, bibFiles, csvSpecs, jsonFiles, *queryFile, templates, collTpl, objTpl, roots, constraintsList, *out, opts)
	}
	if *traceOut != "" {
		if terr := writeTrace(*traceOut, opts.Trace, reg); terr != nil {
			fmt.Fprintln(os.Stderr, "strudel: trace:", terr)
			if err == nil {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "strudel:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a build failure to its documented exit code.
func exitCode(err error) int {
	var be *diag.BudgetError
	switch {
	case errors.As(err, &be):
		return exitBudget
	case errors.Is(err, errConstraints):
		return exitConstraints
	}
	return exitIO
}

// printDiagnostics writes every skip diagnostic of a lenient build to
// stderr as stable, sorted, position-prefixed lines — one
// "source:line:col: severity: message" per line, machine-parseable.
func printDiagnostics(reports []mediator.SourceReport) {
	var lines []string
	for _, sr := range reports {
		for _, d := range sr.Report.Diags {
			lines = append(lines, d.String())
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, l)
	}
}

// traceOf returns the options' tracer, tolerating nil options (tests
// call the build helpers with nil).
func traceOf(opts *core.Options) *obs.Tracer {
	if opts == nil {
		return nil
	}
	return opts.Trace
}

// writeTrace emits the recorded spans as JSON Lines followed by one
// final line with the metric snapshot, to path ("-" = stderr).
func writeTrace(path string, tr *obs.Tracer, reg *obs.Registry) error {
	w := os.Stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := tr.WriteJSON(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "{\"metrics\":%s}\n", reg.String())
	return err
}

func buildExample(name string, size int, out string, opts *core.Options) error {
	var spec *core.Spec
	switch name {
	case "homepage":
		if size == 0 {
			size = 25
		}
		spec = sites.Homepage(size)
	case "cnn":
		if size == 0 {
			size = 300
		}
		spec = sites.CNN(size)
	case "orgsite":
		if size == 0 {
			size = 400
		}
		spec = sites.OrgSite(size, size/20+1, size/10+1, size/8+1)
	case "bilingual":
		if size == 0 {
			size = 20
		}
		spec = sites.Bilingual(size)
	default:
		return fmt.Errorf("unknown example %q (homepage, cnn, orgsite, bilingual)", name)
	}
	res, err := core.BuildWith(spec, opts)
	if res != nil {
		printDiagnostics(res.SourceReports)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Versions))
	for name := range res.Versions {
		names = append(names, name)
	}
	sort.Strings(names)
	checksPass := true
	for _, name := range names {
		vr := res.Versions[name]
		dir := filepath.Join(out, name)
		for i, c := range vr.Checks {
			fmt.Printf("version %s: constraint %d: %s — %s\n", name, i+1, c.Verdict, c.Reason)
		}
		if !vr.ChecksPass {
			// A violated constraint vetoes publication: the previously
			// published version directory stays untouched.
			checksPass = false
			continue
		}
		ws := traceOf(opts).Start("write", "version", name, "dir", dir)
		err := vr.Output.Publish(fsx.OS, dir, nil)
		ws.End()
		if err != nil {
			return err
		}
		fmt.Printf("version %s: %s → %s\n", name, vr.Stats, dir)
	}
	if !checksPass {
		return errConstraints
	}
	return nil
}

// makeVersion reads the query and template files of explicit mode into
// one core.Version named "main".
func makeVersion(queryFile string, templates, collTpl, objTpl, roots, constraintsList []string) (*core.Version, error) {
	if queryFile == "" {
		return nil, fmt.Errorf("provide -query FILE (or -example NAME)")
	}
	qb, err := os.ReadFile(queryFile)
	if err != nil {
		return nil, err
	}
	tmpl := map[string]string{}
	for _, spec := range templates {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("-template wants Name=file, got %q", spec)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		tmpl[name] = string(b)
	}
	return &core.Version{
		Name:          "main",
		Queries:       []string{string(qb)},
		Templates:     tmpl,
		PerCollection: splitPairs(collTpl),
		PerObject:     splitPairs(objTpl),
		Roots:         roots,
		Constraints:   constraintsList,
	}, nil
}

func buildExplicit(dataFiles, bibFiles, csvSpecs, jsonFiles []string, queryFile string,
	templates, collTpl, objTpl, roots, constraintsList []string, out string, opts *core.Options) error {
	sources, err := filesrc.Sources(dataFiles, bibFiles, csvSpecs, jsonFiles)
	if err != nil {
		return err
	}
	version, err := makeVersion(queryFile, templates, collTpl, objTpl, roots, constraintsList)
	if err != nil {
		return err
	}
	res, err := core.BuildWith(&core.Spec{Name: "cli", Sources: sources, Versions: []core.Version{*version}}, opts)
	if res != nil {
		printDiagnostics(res.SourceReports)
	}
	if err != nil {
		return err
	}
	vr := res.Versions["main"]
	for i, c := range vr.Checks {
		fmt.Printf("constraint %d: %s — %s\n", i+1, c.Verdict, c.Reason)
	}
	if !vr.ChecksPass {
		// Constraint violations veto publication: the previously
		// published site stays in place.
		return errConstraints
	}
	ws := traceOf(opts).Start("write", "version", "main", "dir", out)
	if err := vr.Output.Publish(fsx.OS, out, nil); err != nil {
		ws.End()
		return err
	}
	ws.End()
	fmt.Printf("%s → %s\n", vr.Stats, out)
	return nil
}

// watchExplicit runs an explicit-mode build in watch mode: build, then
// poll and patch until killed.
func watchExplicit(dataFiles, bibFiles, csvSpecs, jsonFiles []string, queryFile string,
	templates, collTpl, objTpl, roots, constraintsList []string, out string,
	interval time.Duration, opts *core.Options) error {
	sources, err := filesrc.Sources(dataFiles, bibFiles, csvSpecs, jsonFiles)
	if err != nil {
		return err
	}
	version, err := makeVersion(queryFile, templates, collTpl, objTpl, roots, constraintsList)
	if err != nil {
		return err
	}
	if len(sources) == 0 {
		return fmt.Errorf("-watch needs at least one file source (-data, -bibtex, -csv, or -json)")
	}
	return runWatch(sources, version, out, interval, opts)
}

func splitPairs(list []string) map[string]string {
	m := map[string]string{}
	for _, spec := range list {
		if k, v, ok := strings.Cut(spec, "="); ok {
			m[k] = v
		}
	}
	return m
}
