package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"strudel/bench/gen"
)

// build is one run of the strudel binary to completion.
type build struct {
	wallMS, cpuMS, rssMB float64
	err                  error
}

// runStrudel builds in into out (which must not exist) and waits.
//
// Peak memory is read from /proc while the build runs, every 2 ms. The
// Maxrss that wait4 reports will not do: a child's high-water mark starts
// at the resident set of the process that forked it, so a 25 MB build
// started by a 200 MB driver reports 200 MB.
func (e *env) runStrudel(in *inputs, out string, extra ...string) build {
	cmd := exec.Command(e.path("strudel"), append(e.strudelArgs(in, out), extra...)...)
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return build{err: err}
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var b build
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		select {
		case b.err = <-done:
			running = false
		case <-tick.C:
			b.rssMB = math.Max(b.rssMB, peakRSSMB(cmd.Process.Pid))
		}
	}
	b.wallMS = ms(time.Since(start))
	b.cpuMS = ms(cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime())
	if b.err != nil {
		b.err = fmt.Errorf("strudel: %v\n%s", b.err, output.Bytes())
	}
	return b
}

// treeDigest hashes every file under dir, names and bytes, in name
// order, and counts the files.
func treeDigest(dir string) (digest string, files int, err error) {
	var names []string
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			names = append(names, p)
		}
		return err
	})
	if err != nil {
		return "", 0, err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, p := range names {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", 0, err
		}
		rel, _ := filepath.Rel(dir, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), len(names), nil
}

// pageHas reports whether the published page carries its title.
func pageHas(dir string, p gen.Page) bool {
	b, err := os.ReadFile(filepath.Join(dir, p.File))
	return err == nil && strings.Contains(string(b), p.Title)
}

// batchTarget is one site built over and over, with what every build of
// it must look like.
type batchTarget struct {
	in      *inputs
	pages   int
	sampled []gen.Page
	digest  string // of the first build; every later one must match
}

func newBatchTarget(in *inputs, rng *rand.Rand) *batchTarget {
	all := append(in.site.FanOutPages(), in.site.EntityPages()...)
	t := &batchTarget{in: in, pages: in.site.PageCount()}
	for i := 0; i < 8; i++ {
		t.sampled = append(t.sampled, all[rng.Intn(len(all))])
	}
	return t
}

// check holds one finished build to the generator's answers: exit 0, as
// many pages as there are entities, the same bytes as the first build,
// and titles where they belong. The tree stays until the run's scratch
// directory goes.
func (t *batchTarget) check(b build, out string) (problem string) {
	if b.err != nil {
		return b.err.Error()
	}
	digest, files, err := treeDigest(out)
	switch {
	case err != nil:
		return err.Error()
	case files != t.pages:
		return fmt.Sprintf("published %d pages, the site has %d", files, t.pages)
	case t.digest == "":
		t.digest = digest
	case digest != t.digest:
		return "published tree differs from the first build of the same inputs"
	}
	for _, p := range t.sampled {
		if !pageHas(out, p) {
			return fmt.Sprintf("%s lacks its title %q", p.File, p.Title)
		}
	}
	return ""
}

// runBatch is the batch-build workload: one builder in a closed loop,
// alternating a full build of the main site and of a small side site
// (an eighth of the scale or less, so fixed costs dominate it), each
// into a fresh directory.
func runBatch(e *env, w workload, o options) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	var setups []float64
	var mainT, sideT *batchTarget
	for s := 0; s < o.setups; s++ {
		start := time.Now()
		dir, err := e.dir(fmt.Sprintf("batch-%d", s))
		if err != nil {
			return nil, err
		}
		mainIn, err := e.writeInputs(filepath.Join(dir, "main"), o.seed, w.pubs)
		if err != nil {
			return nil, err
		}
		sideIn, err := e.writeInputs(filepath.Join(dir, "side"), o.seed, w.sidePubs)
		if err != nil {
			return nil, err
		}
		mainT, sideT = newBatchTarget(mainIn, rng), newBatchTarget(sideIn, rng)
		// Two discarded builds warm the page cache and the binary.
		for i, t := range []*batchTarget{mainT, sideT} {
			out := filepath.Join(dir, fmt.Sprintf("warm-%d", i))
			if problem := t.check(e.runStrudel(t.in, out), out); problem != "" {
				return nil, fmt.Errorf("warm-up build: %s", problem)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &outcome{Metrics: map[string]metric{}}
	if o.trace {
		return res, traceBatch(e, w, o, mainT, res)
	}

	var mainMS, sideMS, cpuMS, rssMB []float64
	var pages, busyMS float64
	outDir, err := e.dir("batch-out")
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; time.Now().Before(deadline); n++ {
		for _, t := range []*batchTarget{mainT, sideT} {
			out := filepath.Join(outDir, fmt.Sprintf("site-%d-%d", n, t.pages))
			b := e.runStrudel(t.in, out)
			res.Attempted++
			if problem := t.check(b, out); problem != "" {
				res.Failed++
				fmt.Fprintf(os.Stderr, "batch-build: build %d: %s\n", n, problem)
				continue
			}
			pages += float64(t.pages)
			busyMS += b.wallMS
			if t == mainT {
				mainMS, cpuMS, rssMB = append(mainMS, b.wallMS), append(cpuMS, b.cpuMS), append(rssMB, b.rssMB)
			} else {
				sideMS = append(sideMS, b.wallMS)
			}
		}
	}
	if len(mainMS) == 0 || len(sideMS) == 0 {
		return nil, fmt.Errorf("no build succeeded")
	}
	mainTail, mq := tail(mainMS, 0.75)
	sideTail, sq := tail(sideMS, 0.75)
	fmt.Fprintf(os.Stderr, "batch-build: %d main builds of %d pages (p%.0f = %.1f ms), %d side builds of %d pages (p%.0f = %.1f ms)\n",
		len(mainMS), mainT.pages, 100*mq, mainTail, len(sideMS), sideT.pages, 100*sq, sideTail)
	res.Metrics = endToEndMetrics(median(setups), median(mainMS), median(sideMS), pages/(busyMS/1000), median(cpuMS), median(rssMB))
	res.name("build_p50_s", median(mainMS)/1000)
	res.name("build_pages_per_s", float64(mainT.pages)/(median(mainMS)/1000))
	res.name("build_peak_rss_mb", median(rssMB))
	res.finish()
	return res, nil
}
