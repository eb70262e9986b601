package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"strudel/bench/gen"
)

const (
	watchInterval = 10 * time.Millisecond
	editTimeout   = 10 * time.Second
)

// watcher is one `strudel -watch` process over a generated site.
type watcher struct {
	p   *proc
	in  *inputs
	out string
}

// startWatcher generates the site, starts the watcher on it and waits
// for the first publication.
func (e *env) startWatcher(dir string, seed int64, pubs int) (*watcher, error) {
	in, err := e.writeInputs(filepath.Join(dir, "in"), seed, pubs)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "out")
	args := append(e.strudelArgs(in, out), "-watch", "-watch-interval", watchInterval.String())
	p, err := e.start(filepath.Base(dir)+"-watch.log", e.path("strudel"), args...)
	if err != nil {
		return nil, err
	}
	w := &watcher{p: p, in: in, out: out}
	deadline := time.Now().Add(30 * time.Second)
	for {
		// The watcher prints this line after the first tree is in place
		// and its file stamps are taken; an edit made earlier could be
		// folded into the first build and never be seen as a change.
		if b, _ := os.ReadFile(p.log); strings.Contains(string(b), "watching") {
			return w, nil
		}
		if p.exited() || time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("strudel -watch never published: %s", p.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// visible reports whether the published tree shows the edit. A page
// that must be gone is only gone if the tree itself is there: between
// the two renames of a publication the whole directory is briefly
// absent.
func (w *watcher) visible(ed gen.Edit) bool {
	b, err := os.ReadFile(filepath.Join(w.out, ed.Page.File))
	if ed.Gone {
		if !os.IsNotExist(err) {
			return false
		}
		_, err := os.Stat(filepath.Join(w.out, "index.html"))
		return err == nil
	}
	return err == nil && strings.Contains(string(b), ed.Marker)
}

// edit applies one edit and returns how long the published tree took to
// show it, from the rename of the source file.
func (w *watcher) edit(ed gen.Edit) (time.Duration, error) {
	if err := w.in.apply(ed); err != nil {
		return 0, err
	}
	start := time.Now()
	for !w.visible(ed) {
		if w.p.exited() {
			return 0, fmt.Errorf("strudel -watch exited: %s", w.p.logTail())
		}
		if time.Since(start) > editTimeout {
			return 0, fmt.Errorf("%s of %s not published within %s", ed.Kind, ed.Page.File, editTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start), nil
}

// runEdit is the edit-storm workload: one editor in a closed loop
// against `strudel -watch`. Before each edit the editor pauses for a
// seeded time of up to one poll interval; without it each edit would
// start a fixed time after the previous publication and the latency
// would be quantised to the watcher's ticks.
func runEdit(e *env, w workload, o options) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	var setups []float64
	var wt *watcher
	for s := 0; s < o.setups; s++ {
		if wt != nil {
			wt.p.stop()
		}
		start := time.Now()
		dir, err := e.dir(fmt.Sprintf("edit-%d", s))
		if err != nil {
			return nil, err
		}
		if wt, err = e.startWatcher(dir, o.seed, w.pubs); err != nil {
			return nil, err
		}
		for i := 0; i < 3; i++ { // warm-up edits, discarded
			if _, err := wt.edit(wt.in.site.NextEdit()); err != nil {
				return nil, fmt.Errorf("warm-up edit: %v", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer wt.p.stop()

	res := &outcome{Metrics: map[string]metric{}}
	if o.trace {
		return res, traceEdit(e, w, o, wt, res)
	}

	var mainMS, sideMS []float64
	cpu0 := cpuSeconds(wt.p.pid())
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		time.Sleep(time.Duration(rng.Int63n(int64(watchInterval))))
		ed := wt.in.site.NextEdit()
		d, err := wt.edit(ed)
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "edit-storm:", err)
			if wt.p.exited() {
				break
			}
			continue
		}
		if ed.Kind == "retitle" {
			mainMS = append(mainMS, ms(d))
		} else {
			sideMS = append(sideMS, ms(d))
		}
	}
	cpu := cpuSeconds(wt.p.pid()) - cpu0
	rss := peakRSSMB(wt.p.pid())
	if len(mainMS) == 0 || len(sideMS) == 0 {
		return nil, fmt.Errorf("no edit of each kind was published")
	}

	// The patched tree must be what a fresh build of the final sources
	// publishes.
	res.Attempted++
	if problem := wt.matchesFreshBuild(e); problem != "" {
		res.Failed++
		fmt.Fprintln(os.Stderr, "edit-storm:", problem)
	}

	allMS := append(append([]float64(nil), mainMS...), sideMS...)
	var busyMS float64
	for _, v := range allMS {
		busyMS += v
	}
	mainTail, mq := tail(mainMS, 0.9)
	sideTail, sq := tail(sideMS, 0.9)
	fmt.Fprintf(os.Stderr, "edit-storm: %d retitles (p%.0f = %.1f ms), %d structural edits (p%.0f = %.1f ms)\n",
		len(mainMS), 100*mq, mainTail, len(sideMS), 100*sq, sideTail)
	edits := float64(len(allMS))
	res.Metrics = endToEndMetrics(median(setups), median(mainMS), median(sideMS), edits/(busyMS/1000), 1000*cpu/edits, rss)
	// The issue's two are over every edit: seven in ten are retitles, so
	// the median is a retitle and the p90 a structural edit.
	allTail, _ := tail(allMS, 0.9)
	res.name("edit_p50_ms", median(allMS))
	res.name("edit_p90_ms", allTail)
	res.finish()
	return res, nil
}

// matchesFreshBuild builds the watcher's current sources from scratch
// and compares that tree with the one the watcher has patched together.
func (w *watcher) matchesFreshBuild(e *env) string {
	// Let a publication in flight finish: the last edit was seen as soon
	// as the new tree was renamed in.
	time.Sleep(5 * watchInterval)
	fresh := w.out + "-fresh"
	defer os.RemoveAll(fresh)
	if b := e.runStrudel(w.in, fresh); b.err != nil {
		return b.err.Error()
	}
	want, n, err := treeDigest(fresh)
	if err != nil {
		return err.Error()
	}
	got, m, err := treeDigest(w.out)
	if err != nil {
		return err.Error()
	}
	if got != want {
		return fmt.Sprintf("patched tree (%d pages) differs from a fresh build of the final sources (%d pages)", m, n)
	}
	return ""
}
