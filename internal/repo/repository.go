package repo

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"strudel/internal/ddl"
	"strudel/internal/fsx"
	"strudel/internal/graph"
)

// Repository stores a web site's named graphs — its data graph and the
// site graphs derived from it (§2.1). It is safe for concurrent use.
type Repository struct {
	mu     sync.RWMutex
	graphs map[string]*Indexed
	// FS is the filesystem Save and SaveBinary write through; nil uses
	// the real one. Tests inject fault-carrying implementations here.
	FS fsx.FS
}

func (r *Repository) fsys() fsx.FS {
	if r.FS != nil {
		return r.FS
	}
	return fsx.OS
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{graphs: make(map[string]*Indexed)}
}

// Put stores (or replaces) a graph under the given name, indexing it.
func (r *Repository) Put(name string, g *graph.Graph) *Indexed {
	ix := NewIndexed(g)
	r.mu.Lock()
	r.graphs[name] = ix
	r.mu.Unlock()
	return ix
}

// PutIndexed stores an already-indexed graph under the given name.
func (r *Repository) PutIndexed(name string, ix *Indexed) {
	r.mu.Lock()
	r.graphs[name] = ix
	r.mu.Unlock()
}

// Get returns the named indexed graph, or nil if absent.
func (r *Repository) Get(name string) *Indexed {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graphs[name]
}

// Names returns the stored graph names, sorted.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for n := range r.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Drop removes the named graph; it reports whether it existed.
func (r *Repository) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.graphs[name]
	delete(r.graphs, name)
	return ok
}

// Save writes every stored graph to dir as <name>.ddl in the
// data-definition language, the repository's exchange format. Each file
// is replaced atomically (temp + fsync + rename), so an I/O failure or
// crash mid-save leaves every previously saved graph readable. Graphs
// are written in sorted name order, so partial failures are
// deterministic.
func (r *Repository) Save(dir string) error {
	return r.save(dir, ".ddl", func(ix *Indexed) ([]byte, error) { return []byte(ddl.Print(ix.Graph())), nil })
}

// SaveBinary writes every stored graph to dir as <name>.sgb in the SGB2
// binary format (the frozen form, which loads without re-indexing),
// with the same atomic-replacement guarantee as Save. A graph beyond
// the snapshot's packed id capacity cannot be written and fails the
// save.
func (r *Repository) SaveBinary(dir string) error {
	return r.save(dir, ".sgb", func(ix *Indexed) ([]byte, error) {
		f := ix.Frozen()
		if f == nil {
			return nil, fmt.Errorf("graph too large to freeze")
		}
		return EncodeBinaryFrozen(f), nil
	})
}

func (r *Repository) save(dir, ext string, encode func(*Indexed) ([]byte, error)) error {
	fsys := r.fsys()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("repo: save: %w", err)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for name := range r.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, sanitizeName(name)+ext)
		data, err := encode(r.graphs[name])
		if err == nil {
			err = fsx.WriteFileAtomic(fsys, path, data, 0o644)
		}
		if err != nil {
			return fmt.Errorf("repo: save %s: %w", name, err)
		}
	}
	return nil
}

// Load reads every *.ddl file in dir into the repository, keyed by file
// base name.
func (r *Repository) Load(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("repo: load: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".ddl") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return fmt.Errorf("repo: load %s: %w", ent.Name(), err)
		}
		doc, err := ddl.Parse(string(data))
		if err != nil {
			return fmt.Errorf("repo: load %s: %w", ent.Name(), err)
		}
		r.Put(strings.TrimSuffix(ent.Name(), ".ddl"), doc.Graph)
	}
	return nil
}

// LoadBinary reads every *.sgb file in dir into the repository.
func (r *Repository) LoadBinary(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("repo: load: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".sgb") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return fmt.Errorf("repo: load %s: %w", ent.Name(), err)
		}
		name := strings.TrimSuffix(ent.Name(), ".sgb")
		if len(data) >= len(binaryMagicV2) && string(data[:len(binaryMagicV2)]) == binaryMagicV2 {
			f, err := graph.DecodeFrozen(data[len(binaryMagicV2):])
			if err != nil {
				return fmt.Errorf("repo: load %s: %w", ent.Name(), err)
			}
			r.PutIndexed(name, NewIndexedFrozen(f))
			continue
		}
		g, err := DecodeBinary(data)
		if err != nil {
			return fmt.Errorf("repo: load %s: %w", ent.Name(), err)
		}
		r.Put(name, g)
	}
	return nil
}

func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
