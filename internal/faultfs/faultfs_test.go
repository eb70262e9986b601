package faultfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"strudel/internal/fsx"
)

// ops performs one operation of each kind, the ith of its kind, in dir.
var ops = map[string]func(f *FS, dir string, i int) error{
	"write": func(f *FS, dir string, i int) error {
		return f.WriteFile(filepath.Join(dir, fmt.Sprint("w", i)), []byte("x"), 0o644)
	},
	"rename": func(f *FS, dir string, i int) error {
		p := filepath.Join(dir, fmt.Sprint("r", i))
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			return err
		}
		return f.Rename(p, p+".moved")
	},
	"link": func(f *FS, dir string, i int) error {
		p := filepath.Join(dir, fmt.Sprint("l", i))
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			return err
		}
		return f.Link(p, p+".link")
	},
	"mkdir": func(f *FS, dir string, i int) error {
		return f.MkdirAll(filepath.Join(dir, fmt.Sprint("d", i)), 0o755)
	},
	"sync": func(f *FS, dir string, i int) error { return f.SyncDir(dir) },
}

// TestTriggersFireOnce: each Fail*N trigger fails exactly the Nth
// operation of its own kind — never an earlier one, never a later one,
// and never an operation of another kind.
func TestTriggersFireOnce(t *testing.T) {
	const n, rounds = 3, 6
	arm := map[string]func(f *FS){
		"write":  func(f *FS) { f.FailWriteN = n },
		"rename": func(f *FS) { f.FailRenameN = n },
		"link":   func(f *FS) { f.FailLinkN = n },
		"mkdir":  func(f *FS) { f.FailMkdirN = n },
		"sync":   func(f *FS) { f.FailSyncN = n },
	}
	for armed, set := range arm {
		t.Run(armed, func(t *testing.T) {
			dir := t.TempDir()
			f := &FS{Inner: fsx.OS}
			set(f)
			for i := 1; i <= rounds; i++ {
				for kind, op := range ops {
					err := op(f, dir, i)
					if kind == armed && i == n {
						if !errors.Is(err, ErrInjected) {
							t.Fatalf("%s %d: err = %v, want the injected fault", kind, i, err)
						}
					} else if err != nil {
						t.Fatalf("%s %d: unexpected error %v", kind, i, err)
					}
				}
			}
		})
	}
}

// TestFailedWriteLeavesNothing: FailWriteN fails before touching the
// file, and a custom Err replaces ErrInjected.
func TestFailedWriteLeavesNothing(t *testing.T) {
	custom := errors.New("disk on fire")
	f := &FS{Inner: fsx.OS, FailWriteN: 1, Err: custom}
	p := filepath.Join(t.TempDir(), "page.html")
	if err := f.WriteFile(p, []byte("<html>"), 0o644); err != custom {
		t.Fatalf("err = %v, want the custom fault", err)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("failed write left a file behind (stat err %v)", err)
	}
}

// TestShortWriteTearsOnce: ShortWriteN commits the first half of the
// Nth write and reports failure; the writes around it land whole.
func TestShortWriteTearsOnce(t *testing.T) {
	dir := t.TempDir()
	f := &FS{Inner: fsx.OS, ShortWriteN: 2}
	data := []byte("0123456789")
	for i := 1; i <= 3; i++ {
		err := f.WriteFile(filepath.Join(dir, fmt.Sprint(i)), data, 0o644)
		if (i == 2) != errors.Is(err, ErrInjected) {
			t.Fatalf("write %d: err = %v", i, err)
		}
	}
	for i, want := range []string{"0123456789", "01234", "0123456789"} {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprint(i+1)))
		if err != nil || string(got) != want {
			t.Errorf("file %d = %q (%v), want %q", i+1, got, err, want)
		}
	}
}

// TestConcurrentWritersTripOneFault: many goroutines writing through
// one FS — the shape of htmlgen's parallel page stager — see
// exactly one injected fault and exactly one missing file. Run under
// -race, it also checks the counters are properly guarded.
func TestConcurrentWritersTripOneFault(t *testing.T) {
	const workers, perWorker = 8, 25
	dir := t.TempDir()
	f := &FS{Inner: fsx.OS, FailWriteN: 77}
	var wg sync.WaitGroup
	var mu sync.Mutex
	faults := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := f.WriteFile(filepath.Join(dir, fmt.Sprintf("%d-%d", w, i)), []byte("x"), 0o644); err != nil {
					if !errors.Is(err, ErrInjected) {
						t.Errorf("unexpected error %v", err)
					}
					mu.Lock()
					faults++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if faults != 1 {
		t.Errorf("faults = %d, want exactly 1", faults)
	}
	if got := f.Writes(); got != workers*perWorker {
		t.Errorf("Writes() = %d, want %d", got, workers*perWorker)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != workers*perWorker-1 {
		t.Errorf("%d files written, want %d", len(entries), workers*perWorker-1)
	}
}
