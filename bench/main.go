// Command bench is the benchmark of this repository: it generates a
// seeded research-organisation site, builds cmd/strudel and
// cmd/strudel-serve, drives the real binaries through their flags,
// files and HTTP surface on four workloads, checks what they produce
// against answers the generator knows, and prints every metric by name
// and unit. See README.md for the definitions.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//	bench -seed N [-runs K] [-out FILE]                   all workloads, K seeds each
//	bench -smoke                                          tiny scales, oracles only
//	bench compare A.json B.json                           two result files, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload reports. Its JSON form is the
// last line of standard output, as the contract in BENCHMARK.json wants
// it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Named is the same untraced run under the issue's per-workload
	// names (build_p50_s, edit_p90_ms, page_p99_ms, ...), which the
	// contract's one list for all workloads cannot hold; see named.go.
	Named map[string]metric `json:"-"`
}

// contractLine is the outcome as the contract wants it: a traced run
// carries a number for every per-layer metric, so one that is absent
// (not measurable, or not applicable to the workload) is written as 0
// there, and only there.
func contractLine(res *outcome, traced bool) []byte {
	out := *res
	if traced {
		out.Metrics = map[string]metric{}
		for _, m := range layerMetrics {
			out.Metrics[m.name] = metric{0, m.unit}
		}
		for name, m := range res.Metrics {
			out.Metrics[name] = m
		}
	}
	line, _ := json.Marshal(out)
	return line
}

// endToEnd is every end-to-end metric, in the order BENCHMARK.json
// lists them. Every workload reports all of them from an untraced run;
// README.md says what "main" and "side" operations are on each.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"main_p50_ms", "ms"},
	{"side_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// endToEndMetrics pairs values, in that order, with names and units.
func endToEndMetrics(values ...float64) map[string]metric {
	out := map[string]metric{}
	for i, m := range endToEnd {
		out[m.name] = metric{values[i], m.unit}
	}
	return out
}

// workload is one of the four traffic mixes; see README.md for why each
// exists. pubs is the scale of its site (everything else derives from
// the publication count), sidePubs the scale of batch-build's second,
// small site, rate the fixed rate of a serve workload's reference
// phase, in requests per second.
type workload struct {
	name     string
	pubs     int
	sidePubs int
	rate     float64
	run      func(e *env, w workload, o options) (*outcome, error)
}

// The scales and rates are calibrated for a 2-core machine (see the
// calibration record in README.md) and then frozen: a benchmark that
// re-tunes itself cannot compare two commits.
const batchBuildPubs = 300

var workloads = []workload{
	{name: "batch-build", pubs: batchBuildPubs, sidePubs: 40, run: runBatch},
	{name: "edit-storm", pubs: 200, run: runEdit},
	{name: "serve-cold", pubs: 8000, rate: 200, run: runServeCold},
	{name: "serve-hot", pubs: 1400, rate: 4000, run: runServeHot},
}

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times set-up is repeated; setup_s is their
	// median, and the last one is measured on.
	setups int
	// smoke shrinks everything and asserts only the oracles.
	smoke bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run one workload and print its JSON result line last")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs and the request mix")
		seconds = flag.Float64("seconds", 30, "measured time per run")
		trace   = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
		runs    = flag.Int("runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "without -workload: write the result file here (default standard output)")
		smoke   = flag.Bool("smoke", false, "tiny scales, every workload and the probe once, oracles only")
	)
	flag.Parse()
	// The load generator shares two cores with the server, and every
	// request it sends leaves garbage. With the collector at its default a
	// young, small heap is collected hundreds of times a second: that took
	// a fifth of serve-hot's throughput, grew less as the samples piled up
	// (each burst of a run was faster than the one before) and made the
	// generator late. So the driver collects only when its heap reaches
	// 256 MB, which it does every few seconds.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(256 << 20)
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// Children die and scratch goes on every exit path, signals included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.Close()
		os.Exit(130)
	}()
	code := func() int {
		defer e.Close()
		if err := e.buildBinaries(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3}
		switch {
		case *smoke:
			return smokeMain(e)
		case *name != "":
			return oneMain(e, *name, o)
		default:
			return allMain(e, o, *runs, *out)
		}
	}()
	os.Exit(code)
}

func has(m map[string]metric, name string) bool { _, ok := m[name]; return ok }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// oneMain is the contract's entry point: one workload, one result line.
func oneMain(e *env, name string, o options) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	res, err := w.run(e, w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	printMetrics(os.Stdout, res, o.trace)
	fmt.Println(string(contractLine(res, o.trace)))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics lists every metric by name with its unit: the
// end-to-end metrics and the issue's names for them, or every per-layer
// metric, saying which are absent.
func printMetrics(f *os.File, res *outcome, traced bool) {
	line := func(name string, m metric) { fmt.Fprintf(f, "%-32s %14.4f %s\n", name, m.Value, m.Unit) }
	if traced {
		for _, lm := range layerMetrics {
			if m, ok := res.Metrics[lm.name]; ok {
				line(lm.name, m)
			} else {
				fmt.Fprintf(f, "%-32s %14s\n", lm.name, "absent")
			}
		}
	} else {
		for _, em := range endToEnd {
			line(em.name, res.Metrics[em.name])
		}
		names := make([]string, 0, len(res.Named))
		for n := range res.Named {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			line(n, res.Named[n])
		}
	}
	fmt.Fprintf(f, "%-32s %9d of %d failed\n", "operations", res.Failed, res.Attempted)
}

// runRecord is one run in a result file.
type runRecord struct {
	Seed    int64             `json:"seed"`
	Trace   bool              `json:"trace"`
	Outcome *outcome          `json:"outcome"`
	Named   map[string]metric `json:"named,omitempty"`
	Config  map[string]string `json:"config"`
}

// resultFile is what `bench -seed N -runs K` writes and `bench compare`
// reads.
type resultFile struct {
	Machine   machine                `json:"machine"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string][]runRecord `json:"workloads"`
}

// allMain runs every workload, untraced on `runs` seeds and traced
// once, and writes one result file.
func allMain(e *env, o options, runs int, out string) int {
	rf := resultFile{Machine: e.machine(), Seconds: o.seconds, Workloads: map[string][]runRecord{}}
	bad := false
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			ro.trace = i == runs // the last run of each workload is the traced one
			if ro.trace {
				ro.seed = o.seed
			}
			started := time.Now()
			res, err := w.run(e, w, ro)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, ro.seed, err)
				bad = true
				continue
			}
			fmt.Fprintf(os.Stderr, "== %s seed=%d trace=%v (%.1fs)\n", w.name, ro.seed, ro.trace, time.Since(started).Seconds())
			printMetrics(os.Stderr, res, ro.trace)
			bad = bad || !res.Correct
			rf.Workloads[w.name] = append(rf.Workloads[w.name], runRecord{
				Seed: ro.seed, Trace: ro.trace, Outcome: res, Named: res.Named,
				Config: map[string]string{
					"pubs": fmt.Sprint(w.pubs), "side_pubs": fmt.Sprint(w.sidePubs), "rate": fmt.Sprint(w.rate),
				},
			})
		}
	}
	data, _ := json.MarshalIndent(rf, "", " ")
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if bad {
		return 1
	}
	return 0
}

// smokeMain runs all four workloads and the probe once at tiny scales
// and judges only the oracles, never a timing.
func smokeMain(e *env) int {
	code := 0
	for _, w := range workloads {
		w.pubs, w.sidePubs, w.rate = 120, 40, 50
		for _, traced := range []bool{false, true} {
			res, err := w.run(e, w, options{seed: 7, seconds: 1, trace: traced, setups: 1, smoke: true})
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "smoke: %s trace=%v: %v\n", w.name, traced, err)
				code = 1
			case !res.Correct:
				fmt.Fprintf(os.Stderr, "smoke: %s trace=%v: %d of %d operations failed their oracle\n", w.name, traced, res.Failed, res.Attempted)
				code = 1
			case !traced && len(res.Metrics) != len(endToEnd), res.Attempted < 1:
				fmt.Fprintf(os.Stderr, "smoke: %s: %d end-to-end metrics over %d operations is not what BENCHMARK.json promises\n", w.name, len(res.Metrics), res.Attempted)
				code = 1
			case traced && res.Metrics["probe.ok"].Value != 1:
				fmt.Fprintf(os.Stderr, "smoke: %s: the probe did not run\n", w.name)
				code = 1
			case traced && !has(res.Metrics, "run.budget_ms"):
				fmt.Fprintf(os.Stderr, "smoke: %s: the probe measured too little for the stage budget\n", w.name)
				code = 1
			default:
				fmt.Fprintf(os.Stderr, "smoke: %s trace=%v: ok, %d operations\n", w.name, traced, res.Attempted)
			}
		}
	}
	return code
}
