package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// A traced run (--trace 1) reports the per-layer metrics. They come
// from outside the program, three ways: the probe times calls into each
// layer's public functions; /debug/vars, scraped before and after a
// reference phase, says what the caches did; and the load generator
// reports on itself. End-to-end metrics are never taken from a traced
// run.

// layerMetrics is every per-layer metric, in the order BENCHMARK.json
// lists them. The probe measures the batch-side layers on the workload's
// own site when the workload builds sites and on the batch-build site
// otherwise, and the same for the serving side. A metric that could not
// be measured (the probe no longer builds, the server no longer exports
// a counter) or that the workload does not have (no server, no reload)
// is absent from the outcome, never 0: a 0 would read as a fast layer
// or an empty cache. Only the contract's result line, which must carry
// a number for every name, writes 0 for an absent one (contractLine).
var layerMetrics = []struct{ name, unit string }{
	{"probe.ok", "count"},
	{"disk.fsync_us", "us"},
	{"wrapper.load_ms", "ms"},
	{"mediator.warehouse_ms", "ms"},
	{"mediator.refresh_ms", "ms"},
	{"mediator.delta_edges", "count"},
	{"graph.freeze_ms", "ms"},
	{"graph.edges", "count"},
	{"repo.encode_ms", "ms"},
	{"repo.decode_ms", "ms"},
	{"repo.snapshot_bytes", "count"},
	{"struql.parse_plan_ms", "ms"},
	{"struql.where_ms", "ms"},
	{"struql.construct_ms", "ms"},
	{"struql.eval_ms", "ms"},
	{"struql.rows", "count"},
	{"struql.evalwhere_us", "us"},
	{"template.parse_ms", "ms"},
	{"template.render_us", "us"},
	{"htmlgen.generate_ms", "ms"},
	{"htmlgen.publish_ms", "ms"},
	{"htmlgen.pages", "count"},
	{"htmlgen.bytes", "count"},
	{"htmlgen.publish_patch_ms", "ms"},
	{"htmlgen.patch_written_share", "share"},
	{"ivm.newsite_ms", "ms"},
	{"ivm.apply_ms", "ms"},
	{"ivm.dirty_pages", "count"},
	{"ivm.delta_applied_share", "share"},
	{"dynamic.page_cold_us", "us"},
	{"dynamic.page_hot_us", "us"},
	{"fleet.new_ms", "ms"},
	{"fleet.swap_ms", "ms"},
	{"fleet.render_cold_us", "us"},
	{"fleet.fetch_us", "us"},
	{"fleet.edge_miss_us", "us"},
	{"fleet.edge_hit_us", "us"},
	{"fleet.http_hop_us", "us"},
	{"queryapi.cold_us", "us"},
	{"queryapi.hot_us", "us"},
	{"fleet.edge_hit_share", "share"},
	{"dynamic.cache_hit_share", "share"},
	{"dynamic.computed_per_req", "count"},
	{"queryapi.cache_hit_share", "share"},
	{"fleet.hedge_share", "share"},
	{"fleet.shed", "count"},
	{"serve.reload_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.step0_p99_ms", "ms"},
	{"loadgen.step1_p99_ms", "ms"},
	{"loadgen.step2_p99_ms", "ms"},
	{"loadgen.step3_p99_ms", "ms"},
	{"loadgen.max_ok_rps", "1/s"},
	{"loadgen.trace_overhead_share", "share"},
	{"run.op_p50_ms", "ms"},
	{"run.op_tail_ms", "ms"},
	{"run.budget_ms", "ms"},
	{"run.budget_gap_share", "share"},
}

func layerUnit(name string) (string, bool) {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}

func (res *outcome) set(name string, v float64) {
	unit, listed := layerUnit(name)
	if !listed {
		panic("unlisted per-layer metric " + name)
	}
	res.Metrics[name] = metric{v, unit}
}

// sum adds up the named metrics; false if any of them is absent.
func (res *outcome) sum(names ...string) (float64, bool) {
	total := 0.0
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			return 0, false
		}
		total += m.Value
	}
	return total, true
}

// probeMetrics builds the probe and runs it over sites of the two scales.
func probeMetrics(e *env, o options, batchPubs, servePubs int) (map[string]metric, error) {
	if err := e.buildProbe(); err != nil {
		return nil, err
	}
	tmp, err := e.dir("probe")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	args := []string{
		"-seed", fmt.Sprint(o.seed), "-batch-pubs", fmt.Sprint(batchPubs), "-serve-pubs", fmt.Sprint(servePubs),
		"-site", e.siteDir, "-tmp", tmp,
	}
	if o.smoke {
		args = append(args, "-passes", "1", "-builds", "1", "-sample", "8", "-edits", "4")
	}
	cmd := exec.Command(e.path("strudel-probe"), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var got map[string]metric
	return got, json.Unmarshal(out, &got)
}

// runProbe copies what the probe measured into res. A probe that no
// longer builds or runs leaves its metrics absent and probe.ok at 0; the
// traced run goes on.
func runProbe(e *env, o options, batchPubs, servePubs int, res *outcome) {
	res.set("disk.fsync_us", e.fsyncUS)
	res.set("probe.ok", 0)
	got, err := probeMetrics(e, o, batchPubs, servePubs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: probe unavailable, its per-layer metrics are absent: %v\n", err)
		return
	}
	for name, m := range got {
		if _, listed := layerUnit(name); listed {
			res.Metrics[name] = m
		}
	}
	res.set("probe.ok", 1)
}

// budget records how the layer medians (extraMS plus the named layer
// metrics, each scaled to milliseconds by scale) add up against the
// traced run's own median of the operation they make up. Without the
// probe there is no budget.
func (res *outcome) budget(opMS []float64, tailQ, extraMS, scale float64, parts string, layers ...string) {
	opP50MS := median(opMS)
	opTail, _ := tail(opMS, tailQ)
	res.set("run.op_p50_ms", opP50MS)
	res.set("run.op_tail_ms", opTail)
	layerSum, ok := res.sum(layers...)
	if !ok {
		fmt.Fprintf(os.Stderr, "budget: not all of %s were measured; measured median %.3f ms\n", strings.Join(layers, ", "), opP50MS)
		return
	}
	budgetMS := extraMS + layerSum*scale
	gap := (opP50MS - budgetMS) / opP50MS
	res.set("run.budget_ms", budgetMS)
	res.set("run.budget_gap_share", gap)
	fmt.Fprintf(os.Stderr, "budget: %s = %.3f ms against a measured median of %.3f ms (gap %.1f%%)\n", parts, budgetMS, opP50MS, 100*gap)
}

// traceBatch: the probe's stage times in build order, plus process
// start, against the median of real builds; and what -trace costs.
func traceBatch(e *env, w workload, o options, t *batchTarget, res *outcome) error {
	runProbe(e, o, w.pubs, w.pubs, res)
	outDir, err := e.dir("trace-out")
	if err != nil {
		return err
	}
	var plain, traced, startMS []float64
	builds := 8
	if o.smoke {
		builds = 1
	}
	for n := 0; n < builds; n++ {
		for _, withTrace := range []bool{false, true} {
			out := filepath.Join(outDir, fmt.Sprintf("site-%d-%v", n, withTrace))
			var extra []string
			if withTrace {
				extra = []string{"-trace", out + ".trace"}
			}
			b := e.runStrudel(t.in, out, extra...)
			res.Attempted++
			if problem := t.check(b, out); problem != "" {
				res.Failed++
				fmt.Fprintln(os.Stderr, "batch-build:", problem)
				continue
			}
			if withTrace {
				traced = append(traced, b.wallMS)
			} else {
				plain = append(plain, b.wallMS)
			}
		}
		// Process start: the binary run far enough to print its usage.
		start := time.Now()
		exec.Command(e.path("strudel"), "-h").Run()
		startMS = append(startMS, ms(time.Since(start)))
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no build succeeded")
	}
	res.set("loadgen.trace_overhead_share", median(traced)/median(plain)-1)
	res.budget(plain, 0.75, median(startMS), 1,
		fmt.Sprintf("start %.1f + load + warehouse + freeze + parse/plan + eval + template parse + generate + publish", median(startMS)),
		"wrapper.load_ms", "mediator.warehouse_ms", "graph.freeze_ms", "struql.parse_plan_ms",
		"struql.eval_ms", "template.parse_ms", "htmlgen.generate_ms", "htmlgen.publish_ms")
	res.Correct = res.Failed == 0
	return nil
}

// traceEdit: the incremental layers against the median retitle.
func traceEdit(e *env, w workload, o options, wt *watcher, res *outcome) error {
	runProbe(e, o, w.pubs, w.pubs, res)
	var retitles []float64
	deadline := time.Now().Add(time.Duration(o.seconds / 4 * float64(time.Second)))
	for n := 0; time.Now().Before(deadline) || len(retitles) == 0; n++ {
		// Spread over the poll interval like the measured run's think time.
		time.Sleep(watchInterval * time.Duration(n%10) / 10)
		ed := wt.in.site.NextEdit()
		d, err := wt.edit(ed)
		res.Attempted++
		if err != nil {
			res.Failed++
			return err
		}
		if ed.Kind == "retitle" {
			retitles = append(retitles, ms(d))
		}
	}
	res.Attempted++
	if problem := wt.matchesFreshBuild(e); problem != "" {
		res.Failed++
		fmt.Fprintln(os.Stderr, "edit-storm:", problem)
	}
	wait := ms(watchInterval) / 2
	res.budget(retitles, 0.9, wait, 1, fmt.Sprintf("poll wait %.1f + refresh + apply + patch publish", wait),
		"mediator.refresh_ms", "ivm.apply_ms", "htmlgen.publish_patch_ms")
	res.Correct = res.Failed == 0
	return nil
}

// vars is one scrape of strudel-serve's /debug/vars, flattened to
// "group.counter" → value.
type vars map[string]float64

func scrape(debug string) (vars, error) {
	resp, err := http.Get(debug + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Strudel map[string]map[string]any `json:"strudel"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	out := vars{}
	for group, counters := range doc.Strudel {
		for name, v := range counters {
			if f, ok := v.(float64); ok {
				out[group+"."+name] = f
			}
		}
	}
	return out, nil
}

// delta is how far the named counters moved, together, between two
// scrapes; false, with a note, when the server no longer exports one.
func delta(before, after vars, names ...string) (float64, bool) {
	total := 0.0
	for _, name := range names {
		if _, ok := after[name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: /debug/vars has no %s; the metric built on it is absent\n", name)
			return 0, false
		}
		total += after[name] - before[name]
	}
	return total, true
}

// setShare records Δpart ÷ (Δpart + Δrest) between two scrapes, unless a
// counter is missing or none of them moved (no lookups, no share).
func (res *outcome) setShare(name string, before, after vars, part string, rest ...string) {
	p, ok1 := delta(before, after, part)
	r, ok2 := delta(before, after, rest...)
	if ok1 && ok2 && p+r > 0 {
		res.set(name, p/(p+r))
	}
}

// stepOK is the ladder's criterion: p99 of all operations within 25 ms,
// at most 0.1 % failed or refused, and no backlog growing at the end.
func stepOK(st phaseStats) (ok bool, p99 float64) {
	if len(st.allMS) == 0 {
		return false, 0
	}
	p99, _ = tail(st.allMS, 0.99)
	growing := st.backlogEnd > st.backlogMid+2 && st.backlogEnd > 4
	return p99 <= 25 && float64(st.failed) <= 0.001*float64(st.attempted) && !growing, p99
}

// traceServe: an untraced and a traced reference phase (the traced one
// bracketed by /debug/vars scrapes), a ladder of rates above the
// reference, and on serve-hot three hot reloads.
func traceServe(e *env, w workload, o options, hot bool, res *outcome) error {
	batchPubs := batchBuildPubs
	if o.smoke {
		batchPubs = w.pubs
	}
	runProbe(e, o, batchPubs, w.pubs, res)
	o.setups = 1
	phase := o.seconds / 5
	reference := func(run *serveRun) (phaseStats, error) {
		reqs := run.plan.take(int(w.rate * phase))
		st := summarise(run.load.open(reqs, w.rate, 2*time.Second), w.rate)
		res.Attempted += st.attempted
		res.Failed += st.failed
		if len(st.pageMS) == 0 {
			return st, fmt.Errorf("no page request succeeded; server log: %s", run.srv.p.logTail())
		}
		return st, nil
	}

	run, err := setupServe(e, w, o, hot, false)
	if err != nil {
		return err
	}
	plain, err := reference(run)
	run.close()
	if err != nil {
		return err
	}

	if run, err = setupServe(e, w, o, hot, true); err != nil {
		return err
	}
	defer run.close()
	before, err := scrape(run.srv.debug)
	if err != nil {
		return err
	}
	traced, err := reference(run)
	if err != nil {
		return err
	}
	after, err := scrape(run.srv.debug)
	if err != nil {
		return err
	}
	res.setShare("fleet.edge_hit_share", before, after, "fleet.cache_hits", "fleet.cache_misses", "fleet.stale_served", "fleet.revalidations")
	res.setShare("dynamic.cache_hit_share", before, after, "serve.page_cache_hits", "serve.page_cache_misses")
	res.setShare("queryapi.cache_hit_share", before, after, "queryapi.result_cache_hits", "queryapi.result_cache_misses")
	res.setShare("fleet.hedge_share", before, after, "fleet.hedges", "fleet.shard_fetches")
	computed, ok1 := delta(before, after, "serve.pages_computed")
	if n, ok2 := delta(before, after, "fleet.edge_requests"); ok1 && ok2 && n > 0 {
		res.set("dynamic.computed_per_req", computed/n)
	}
	if shed, ok := delta(before, after, "serve.shed", "queryapi.shed"); ok {
		res.set("fleet.shed", shed)
	}
	late, _ := tail(traced.lateMS, 0.99)
	res.set("loadgen.late_p99_ms", late)
	res.set("loadgen.trace_overhead_share", median(traced.pageMS)/median(plain.pageMS)-1)

	// The ladder. max_ok_rps is the highest rate up to which every step
	// held, the reference phase being step 0.
	ok, p99 := stepOK(traced)
	res.set("loadgen.step0_p99_ms", p99)
	maxOK := 0.0
	if ok {
		maxOK = w.rate
	}
	for i, mult := range []float64{1.5, 2, 3} {
		rate := mult * w.rate
		reqs := run.plan.take(int(rate * phase / 2))
		if run.plan.exhausted {
			fmt.Fprintf(os.Stderr, "%s: ladder step %d skipped: no cold pages left\n", w.name, i+1)
			break
		}
		st := summarise(run.load.open(reqs, rate, 2*time.Second), rate)
		res.Attempted += st.attempted
		res.Failed += st.failed
		held, p99 := stepOK(st)
		res.set(fmt.Sprintf("loadgen.step%d_p99_ms", i+1), p99)
		fmt.Fprintf(os.Stderr, "%s: ladder %.0f req/s: p99 %.3f ms, %d of %d failed, backlog %.1f → %.1f, ok=%v\n",
			w.name, rate, p99, st.failed, st.attempted, st.backlogMid, st.backlogEnd, held)
		if ok = ok && held; ok {
			maxOK = rate
		}
	}
	res.set("loadgen.max_ok_rps", maxOK)
	res.name("max_ok_rps", maxOK) // the issue's name for it; see named.go

	if hot {
		var reloads []float64
		for i := 0; i < 3; i++ {
			d, err := run.reload()
			res.Attempted++
			if err != nil {
				res.Failed++
				fmt.Fprintln(os.Stderr, "serve-hot:", err)
				continue
			}
			reloads = append(reloads, ms(d))
		}
		res.set("serve.reload_ms", median(reloads))
	}

	// What a request costs on an idle machine, plus how late the
	// generator sent it; the gap that remains is what two cores shared
	// between the server, the generator and the client side of HTTP add.
	lateP50 := median(traced.lateMS)
	if hot {
		res.budget(traced.pageMS, 0.99, lateP50, 0.001, fmt.Sprintf("generator lateness %.3f + http hop + edge hit", lateP50),
			"fleet.http_hop_us", "fleet.edge_hit_us")
	} else {
		res.budget(traced.pageMS, 0.99, lateP50, 0.001, fmt.Sprintf("generator lateness %.3f + http hop + edge miss + fetch + cold render (template + evaluator)", lateP50),
			"fleet.http_hop_us", "fleet.edge_miss_us", "fleet.fetch_us", "fleet.render_cold_us")
	}
	res.Correct = res.Failed == 0
	return nil
}

// reload retitles one publication in the served sources and times how
// long the server takes to answer its page from a new data generation
// that carries the new title.
func (r *serveRun) reload() (time.Duration, error) {
	ed := r.srv.in.site.Retitle()
	get := func() (etagGen, body string, err error) {
		resp, err := r.load.client.Get(r.srv.base + ed.Page.URL)
		if err != nil {
			return "", "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		etagGen, _, _ = strings.Cut(resp.Header.Get("ETag"), "-")
		return etagGen, string(b), err
	}
	oldGen, _, err := get()
	if err != nil {
		return 0, err
	}
	if err := r.srv.in.apply(ed); err != nil {
		return 0, err
	}
	start := time.Now()
	for {
		gen, body, err := get()
		if err == nil && gen != oldGen && strings.Contains(body, ed.Marker) {
			return time.Since(start), nil
		}
		if time.Since(start) > editTimeout {
			return 0, fmt.Errorf("reload of %s not served within %s", ed.Page.URL, editTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}
