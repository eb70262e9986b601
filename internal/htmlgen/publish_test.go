package htmlgen

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"strudel/internal/faultfs"
	"strudel/internal/fsx"
)

func outputWith(pages map[string]string) *Output {
	return &Output{Pages: pages}
}

func readDirPages(t *testing.T, dir string) map[string]string {
	t.Helper()
	got := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		got[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestWriteDirRejectsEscapingNames(t *testing.T) {
	cases := []struct {
		name   string
		reason string
	}{
		{"", "empty"},
		{"/etc/passwd", "absolute path"},
		{"../outside.html", "escapes the output directory"},
		{"a/../../outside.html", "escapes the output directory"},
		{"..", "escapes the output directory"},
	}
	for _, c := range cases {
		o := outputWith(map[string]string{c.name: "x", "ok.html": "y"})
		dir := filepath.Join(t.TempDir(), "site")
		err := o.WriteDir(dir)
		var pe *PageNameError
		if !errors.As(err, &pe) {
			t.Errorf("%q: err = %v, want *PageNameError", c.name, err)
			continue
		}
		if pe.Name != c.name || pe.Reason != c.reason {
			t.Errorf("%q: got %q/%q, want reason %q", c.name, pe.Name, pe.Reason, c.reason)
		}
		// Validation must precede any write: not even the good page lands.
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%q: output dir was created despite bad name", c.name)
		}
	}
}

func TestWriteDirCreatesNestedSubdirs(t *testing.T) {
	o := outputWith(map[string]string{
		"index.html":          "top",
		"papers/p1.html":      "one",
		"papers/deep/p2.html": "two",
	})
	dir := filepath.Join(t.TempDir(), "site")
	if err := o.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got := readDirPages(t, dir)
	if len(got) != 3 || got["papers/deep/p2.html"] != "two" {
		t.Fatalf("written tree = %v", got)
	}
}

func TestPublishFreshAndReplace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "site")
	v1 := outputWith(map[string]string{"index.html": "v1"})
	if err := v1.Publish(fsx.OS, dir, nil); err != nil {
		t.Fatal(err)
	}
	if got := readDirPages(t, dir); got["index.html"] != "v1" {
		t.Fatalf("after first publish: %v", got)
	}
	v2 := outputWith(map[string]string{"index.html": "v2", "new.html": "n"})
	if err := v2.Publish(fsx.OS, dir, nil); err != nil {
		t.Fatal(err)
	}
	if got := readDirPages(t, dir); got["index.html"] != "v2" || got["new.html"] != "n" {
		t.Fatalf("after second publish: %v", got)
	}
	// The previous generation is retained for rollback.
	if got := readDirPages(t, dir+".prev"); got["index.html"] != "v1" {
		t.Fatalf(".prev = %v", got)
	}
}

func TestPublishVerifyVeto(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "site")
	if err := outputWith(map[string]string{"index.html": "old"}).Publish(fsx.OS, dir, nil); err != nil {
		t.Fatal(err)
	}
	veto := errors.New("constraint violated")
	var sawStage string
	err := outputWith(map[string]string{"index.html": "new"}).Publish(fsx.OS, dir,
		func(stage string) error { sawStage = stage; return veto })
	if !errors.Is(err, veto) {
		t.Fatalf("err = %v, want the veto", err)
	}
	if sawStage == "" {
		t.Error("verify did not receive the stage path")
	}
	if _, err := os.Stat(sawStage); !os.IsNotExist(err) {
		t.Error("stage dir not cleaned up after veto")
	}
	if got := readDirPages(t, dir); got["index.html"] != "old" {
		t.Fatalf("published dir changed despite veto: %v", got)
	}
}

// TestPublishFaultsKeepOldGeneration: inject a failure into every write
// and rename the publish performs, one at a time, and check the invariant
// the chaos suite asserts at scale — the published directory is always
// the complete old site or the complete new one.
func TestPublishFaultsKeepOldGeneration(t *testing.T) {
	newOut := outputWith(map[string]string{"index.html": "new", "a.html": "na", "b.html": "nb"})
	for fault := 1; fault <= 8; fault++ {
		for _, kind := range []string{"write", "shortwrite", "rename", "sync"} {
			base := t.TempDir()
			dir := filepath.Join(base, "site")
			if err := outputWith(map[string]string{"index.html": "old", "a.html": "oa"}).Publish(fsx.OS, dir, nil); err != nil {
				t.Fatal(err)
			}
			ffs := &faultfs.FS{Inner: fsx.OS}
			switch kind {
			case "write":
				ffs.FailWriteN = fault
			case "shortwrite":
				ffs.ShortWriteN = fault
			case "rename":
				ffs.FailRenameN = fault
			case "sync":
				ffs.FailSyncN = fault
			}
			err := newOut.Publish(ffs, dir, nil)
			got := readDirPages(t, dir)
			oldSite := len(got) == 2 && got["index.html"] == "old" && got["a.html"] == "oa"
			newSite := len(got) == 3 && got["index.html"] == "new" && got["a.html"] == "na" && got["b.html"] == "nb"
			if err != nil && !errors.Is(err, faultfs.ErrInjected) {
				t.Errorf("%s/%d: unexpected error %v", kind, fault, err)
			}
			if err != nil && !oldSite && kind != "sync" {
				t.Errorf("%s/%d: failed publish left dir in state %v", kind, fault, got)
			}
			if err == nil && !newSite {
				t.Errorf("%s/%d: successful publish left dir in state %v", kind, fault, got)
			}
		}
	}
}

// TestPublishPatchFaultsKeepOldGeneration is TestPublishFaultsKeepOldGeneration
// for the patch stager: clean pages are hard-linked from the published
// tree, dirty ones written, and a fault in any write, short write, link,
// mkdir, rename or sync leaves the complete old site or the complete new
// one. A failed link falls back to a write, and the linked/written
// counts of a successful publication account for every page.
func TestPublishPatchFaultsKeepOldGeneration(t *testing.T) {
	oldPages := map[string]string{"index.html": "old", "a.html": "oa", "sub/c.html": "cc"}
	newPages := map[string]string{"index.html": "new", "a.html": "oa", "sub/c.html": "cc", "b.html": "nb"}
	dirty := []string{"b.html", "index.html"}
	same := func(got, want map[string]string) bool {
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	publishOld := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "site")
		if err := outputWith(oldPages).Publish(fsx.OS, dir, nil); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := publishOld(t)
	linked, written, err := outputWith(newPages).PublishPatch(fsx.OS, dir, dirty, nil)
	if err != nil || linked != 2 || written != 2 {
		t.Fatalf("clean patch: linked %d written %d err %v, want 2/2/nil", linked, written, err)
	}
	if got := readDirPages(t, dir); !same(got, newPages) {
		t.Fatalf("clean patch left %v", got)
	}
	fresh := filepath.Join(t.TempDir(), "fresh")
	if linked, written, err := outputWith(newPages).PublishPatch(fsx.OS, fresh, dirty, nil); err != nil || linked != 0 || written != 4 {
		t.Fatalf("patch into a missing dir: linked %d written %d err %v, want 0/4/nil", linked, written, err)
	}

	for fault := 1; fault <= 8; fault++ {
		for _, kind := range []string{"write", "shortwrite", "link", "mkdir", "rename", "sync"} {
			dir := publishOld(t)
			ffs := &faultfs.FS{Inner: fsx.OS}
			switch kind {
			case "write":
				ffs.FailWriteN = fault
			case "shortwrite":
				ffs.ShortWriteN = fault
			case "link":
				ffs.FailLinkN = fault
			case "mkdir":
				ffs.FailMkdirN = fault
			case "rename":
				ffs.FailRenameN = fault
			case "sync":
				ffs.FailSyncN = fault
			}
			linked, written, err := outputWith(newPages).PublishPatch(ffs, dir, dirty, nil)
			got := readDirPages(t, dir)
			if err != nil && !errors.Is(err, faultfs.ErrInjected) {
				t.Errorf("%s/%d: unexpected error %v", kind, fault, err)
			}
			if err != nil && !same(got, oldPages) && kind != "sync" {
				t.Errorf("%s/%d: failed patch left dir in state %v", kind, fault, got)
			}
			if err == nil && (!same(got, newPages) || linked+written != len(newPages) || written < len(dirty)) {
				t.Errorf("%s/%d: successful patch (linked %d written %d) left dir in state %v", kind, fault, linked, written, got)
			}
		}
	}
}
