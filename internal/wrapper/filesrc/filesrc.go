// Package filesrc turns command-line file inputs into mediator sources:
// one source per file, named by its format and path ("ddl:site.ddl",
// "bib:pubs.bib", "csv:people.csv", "json:doc.json"), each listing the
// file as the path a reload loop polls. The batch builder, watch mode
// and the dynamic server all build their sources here, so a file is
// wrapped, named and reloaded the same way whichever binary reads it.
package filesrc

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"strudel/internal/ddl"
	"strudel/internal/diag"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/wrapper/bibtex"
	"strudel/internal/wrapper/csvrel"
	"strudel/internal/wrapper/jsonwrap"
)

// Sources builds the sources for DDL files, BibTeX files, CSV specs
// (Table:keyColumn:file) and JSON specs (Collection:file), in that
// order. Nothing is read until a source is loaded.
func Sources(dataFiles, bibFiles, csvSpecs, jsonFiles []string) ([]mediator.Source, error) {
	var sources []mediator.Source
	for _, f := range dataFiles {
		name := "ddl:" + f
		sources = append(sources, fileSource(name, f,
			func(b []byte) (*graph.Graph, error) {
				doc, err := ddl.Parse(string(b))
				if err != nil {
					return nil, err
				}
				return doc.Graph, nil
			},
			func(b []byte) (*graph.Graph, *diag.Report, error) {
				doc, rep := ddl.ParseLenient(string(b), name)
				return doc.Graph, rep, nil
			}))
	}
	for _, f := range bibFiles {
		name := "bib:" + f
		sources = append(sources, fileSource(name, f,
			func(b []byte) (*graph.Graph, error) {
				return bibtex.Load(string(b), bibtex.DefaultOptions())
			},
			func(b []byte) (*graph.Graph, *diag.Report, error) {
				g, rep := bibtex.LoadLenient(string(b), name, bibtex.DefaultOptions())
				return g, rep, nil
			}))
	}
	for _, spec := range csvSpecs {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("-csv wants Table:keyColumn:file, got %q", spec)
		}
		f, name := parts[2], "csv:"+parts[2]
		opts := csvrel.Options{Table: parts[0], KeyColumn: parts[1]}
		sources = append(sources, fileSource(name, f,
			func(b []byte) (*graph.Graph, error) { return csvrel.Load(string(b), opts) },
			func(b []byte) (*graph.Graph, *diag.Report, error) {
				return csvrel.LoadLenient(string(b), name, opts)
			}))
	}
	for _, spec := range jsonFiles {
		coll, f, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("-json wants Collection:file, got %q", spec)
		}
		name := "json:" + f
		doc := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		opts := jsonwrap.Options{Collection: coll}
		sources = append(sources, fileSource(name, f,
			func(b []byte) (*graph.Graph, error) { return jsonwrap.Load(doc, b, opts) },
			func(b []byte) (*graph.Graph, *diag.Report, error) {
				g, rep := jsonwrap.LoadLenient(doc, b, name, opts)
				return g, rep, nil
			}))
	}
	return sources, nil
}

// fileSource wraps one file: both loads read it afresh, so every reload
// sees the current bytes. A strict parse error is prefixed with the
// path; lenient diagnostics already carry the source name.
func fileSource(name, path string,
	parse func([]byte) (*graph.Graph, error),
	parseLenient func([]byte) (*graph.Graph, *diag.Report, error)) mediator.Source {
	return mediator.Source{
		Name:  name,
		Paths: []string{path},
		Load: func() (*graph.Graph, error) {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			g, err := parse(b)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return g, nil
		},
		LoadLenient: func() (*graph.Graph, *diag.Report, error) {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, nil, err
			}
			return parseLenient(b)
		},
	}
}
