// Command struql evaluates a StruQL query against a data graph and
// prints the resulting graph.
//
// Usage:
//
//	struql -data site.ddl [-bibtex refs.bib] [-query site.struql | -e 'where ...'] [-plan] [-explain] [-schema]
//
// Data files may be given repeatedly; .ddl files parse as Strudel's
// data-definition language and -bibtex files through the BibTeX wrapper.
// With -schema the query's site schema is printed instead of evaluating;
// with -explain the planner's evaluation plan is printed instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"strudel/internal/ddl"
	"strudel/internal/graph"
	"strudel/internal/repo"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/wrapper/bibtex"
)

type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

type config struct {
	dataFiles  []string
	bibFiles   []string
	queryFile  string
	expr       string
	plan       bool
	explain    bool
	showSchema bool
	guide      bool
	jobs       int
}

func main() {
	var cfg config
	var dataFiles, bibFiles stringList
	flag.Var(&dataFiles, "data", "data-definition-language file (repeatable)")
	flag.Var(&bibFiles, "bibtex", "BibTeX file loaded through the bibliography wrapper (repeatable)")
	flag.StringVar(&cfg.queryFile, "query", "", "StruQL query file")
	flag.StringVar(&cfg.expr, "e", "", "inline StruQL query text")
	flag.BoolVar(&cfg.plan, "plan", false, "print the evaluation plan after the result")
	flag.BoolVar(&cfg.explain, "explain", false, "print the planner's evaluation plan (per block: condition order, access paths, cost estimates) without evaluating")
	flag.BoolVar(&cfg.showSchema, "schema", false, "print the query's site schema instead of evaluating")
	flag.BoolVar(&cfg.guide, "guide", false, "print the data graph's dataguide (structure summary) and exit")
	flag.IntVar(&cfg.jobs, "j", 0, "evaluation parallelism: 0 = one worker per CPU, 1 = sequential (results are identical at any setting)")
	flag.Parse()
	cfg.dataFiles, cfg.bibFiles = dataFiles, bibFiles

	if err := run(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "struql:", err)
		os.Exit(1)
	}
}

func run(cfg *config) error {
	if cfg.guide {
		data, err := loadData(cfg.dataFiles, cfg.bibFiles)
		if err != nil {
			return err
		}
		fmt.Print(repo.BuildDataGuide(repo.NewIndexed(data), nil).String())
		return nil
	}
	var src string
	switch {
	case cfg.expr != "":
		src = cfg.expr
	case cfg.queryFile != "":
		b, err := os.ReadFile(cfg.queryFile)
		if err != nil {
			return err
		}
		src = string(b)
	default:
		return fmt.Errorf("provide -query FILE or -e QUERY")
	}
	q, err := struql.Parse(src)
	if err != nil {
		return err
	}
	if cfg.showSchema {
		fmt.Print(schema.Build(q).String())
		return nil
	}
	data, err := loadData(cfg.dataFiles, cfg.bibFiles)
	if err != nil {
		return err
	}
	opts := &struql.Options{Parallelism: cfg.jobs}
	if cfg.explain {
		text, err := struql.Explain(q, repo.NewIndexed(data), opts)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	r, err := struql.Eval(q, repo.NewIndexed(data), opts)
	if err != nil {
		return err
	}
	if cfg.plan {
		for i, p := range r.Plan {
			fmt.Printf("-- plan %d: %s\n", i+1, p)
		}
		fmt.Printf("-- rows: %d\n", r.Rows)
	}
	fmt.Print(r.Graph.Dump())
	return nil
}

func loadData(dataFiles, bibFiles []string) (*graph.Graph, error) {
	data := graph.New()
	for _, f := range dataFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		doc, err := ddl.Parse(string(b))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		data.Merge(doc.Graph)
	}
	for _, f := range bibFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		g, err := bibtex.Load(string(b), bibtex.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		data.Merge(g)
	}
	return data, nil
}
