package dynamic

import (
	"os"
	"testing"
	"time"

	"strudel/internal/graph"
)

// TestReloaderDetectsSameSizeSameMtimeEdit covers the sub-second edit
// hole: a write that keeps the file's size and lands within the mtime
// granularity of the filesystem is invisible to metadata polling. The
// stamp's content hash must catch it.
func TestReloaderDetectsSameSizeSameMtimeEdit(t *testing.T) {
	version := 0
	rl, fl, path := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(version, 2), nil })
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mtime := fi.ModTime()

	// Same length as "gen0", and the mtime pinned back to the original:
	// metadata is byte-for-byte identical to the recorded stamp.
	version = 1
	touchFile(t, path, "gen1")
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(mtime) || after.Size() != fi.Size() {
		t.Skipf("filesystem did not pin metadata (mtime %v→%v size %d→%d)",
			mtime, after.ModTime(), fi.Size(), after.Size())
	}

	rl.Tick(time.Now())
	if total, _ := fl.Calls(); total != 2 {
		t.Fatalf("loader called %d times, want 2: same-size same-mtime edit missed", total)
	}
}

// TestReloaderHashOnlyForRecentFiles asserts quiescent files (mtime far
// outside the hash window) are not re-read on every poll.
func TestReloaderHashOnlyForRecentFiles(t *testing.T) {
	rl, _, path := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(0, 1), nil })
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	st := rl.statPath(path, time.Now())
	if st.hashed {
		t.Error("stale file was hashed; quiescent files should cost one stat")
	}
	recent := time.Now()
	if err := os.Chtimes(path, recent, recent); err != nil {
		t.Fatal(err)
	}
	st = rl.statPath(path, time.Now())
	if !st.hashed {
		t.Error("recently modified file was not hashed")
	}
}
