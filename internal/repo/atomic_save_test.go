package repo

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"strudel/internal/ddl"
	"strudel/internal/faultfs"
	"strudel/internal/fsx"
	"strudel/internal/graph"
)

func graphWithEdge(label string) *graph.Graph {
	g := graph.New()
	g.AddToCollection("C", "n1")
	g.AddEdge("n1", label, graph.NewString("v"))
	return g
}

// TestSaveAtomicReplacement: a torn write while re-saving must leave the
// previously saved file fully readable, not half-overwritten.
func TestSaveAtomicReplacement(t *testing.T) {
	for _, tc := range []struct {
		name string
		save func(*Repository, string) error
		ext  string
	}{
		{"ddl", (*Repository).Save, ".ddl"},
		{"binary", (*Repository).SaveBinary, ".sgb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := NewRepository()
			r.Put("data", graphWithEdge("first").Freeze())
			if err := tc.save(r, dir); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(filepath.Join(dir, "data"+tc.ext))
			if err != nil {
				t.Fatal(err)
			}

			r.Put("data", graphWithEdge("second").Freeze())
			r.FS = &faultfs.FS{Inner: fsx.OS, ShortWriteN: 1}
			if err := tc.save(r, dir); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("save err = %v, want injected fault", err)
			}
			after, err := os.ReadFile(filepath.Join(dir, "data"+tc.ext))
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Error("failed save corrupted the previously saved file")
			}
			// The torn temp file must not survive.
			if _, err := os.Stat(filepath.Join(dir, "data"+tc.ext+".tmp")); !os.IsNotExist(err) {
				t.Error("temp file left behind after failed save")
			}

			// A clean retry replaces the file and round-trips.
			r.FS = nil
			if err := tc.save(r, dir); err != nil {
				t.Fatal(err)
			}
			r2 := NewRepository()
			if tc.ext == ".ddl" {
				err = r2.Load(dir)
			} else {
				err = r2.LoadBinary(dir)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := ddl.Print(r2.Get("data")); got != ddl.Print(graphWithEdge("second")) {
				t.Errorf("reloaded graph = %s", got)
			}
		})
	}
}

// TestSaveFailureOrderDeterministic: with several graphs, the first write
// in sorted name order reports the failure.
func TestSaveFailureOrderDeterministic(t *testing.T) {
	r := NewRepository()
	r.Put("zeta", graphWithEdge("z").Freeze())
	r.Put("alpha", graphWithEdge("a").Freeze())
	r.FS = &faultfs.FS{Inner: fsx.OS, FailWriteN: 1}
	err := r.Save(t.TempDir())
	if err == nil || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if want := "repo: save alpha:"; !containsPrefix(err.Error(), want) {
		t.Errorf("err = %q, want it to name alpha (first in sorted order)", err)
	}
}

func containsPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
