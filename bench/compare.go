package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json that compare needs: each
// end-to-end metric's direction and the share of the first median by
// which the second may be worse.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// values collects one metric over a workload's runs: an end-to-end
// metric of BENCHMARK.json, or one of the issue's names for them.
func values(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Outcome.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Named[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparison is one metric on one workload in two sets of runs.
type comparison struct {
	medianA, medianB float64
	worse            float64 // by how much B is worse, as a share of A's median or in the metric's unit; negative when better
	spreadA, spreadB float64 // distance between the quartiles of each side's own runs, in the same terms
	verdict          string
}

// verdict judges B against A. A metric only one side reports is
// "missing". When either side's own run-to-run spread is wider than the
// bound the runs cannot tell a regression from noise, and the answer is
// "unresolved", not "within"; so it is when a side has too few runs for
// quartiles to mean anything (the ladder's max_ok_rps has one per set),
// and when the bound is a share and A's median, its base, is 0.
func verdict(a, b []float64, m issueMetric) comparison {
	if len(a) == 0 || len(b) == 0 {
		return comparison{verdict: "missing"}
	}
	tooFew := len(a) < 4 || len(b) < 4
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	c := comparison{medianA: medA, medianB: medB, worse: medB - medA, spreadA: quartileRange(a), spreadB: quartileRange(b)}
	if m.better == "higher" {
		c.worse = -c.worse
	}
	if !m.absolute {
		if medA == 0 {
			c.verdict = "unresolved"
			return c
		}
		c.worse /= math.Abs(medA)
		c.spreadA, c.spreadB = quartileSpread(a), quartileSpread(b)
	}
	switch {
	case tooFew || c.spreadA > m.bound || c.spreadB > m.bound:
		c.verdict = "unresolved"
	case c.worse > m.bound:
		c.verdict = "regressed"
	default:
		c.verdict = "within"
	}
	return c
}

// compareMain prints, per workload, for every end-to-end metric of
// BENCHMARK.json and every metric the issue named: both medians, how
// much worse the second is, the bound, both spreads, the sample counts
// and the verdict. It exits 1 unless every verdict is "within".
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var bf benchmarkFile
	var a, b resultFile
	for path, into := range map[string]any{filepath.Join(root, "BENCHMARK.json"): &bf, args[0]: &a, args[1]: &b} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	var judged []issueMetric
	for _, m := range bf.EndToEnd {
		judged = append(judged, issueMetric{name: m.Name, better: m.Better, bound: m.Bound})
	}
	judged = append(judged, issueMetrics...)
	code := 0
	fmt.Printf("%-12s %-18s %12s %12s %8s %7s %7s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "A iqr", "B iqr", "runs", "verdict")
	for _, w := range workloads {
		for _, m := range judged {
			va, vb := values(a.Workloads[w.name], m.name), values(b.Workloads[w.name], m.name)
			if len(va) == 0 && len(vb) == 0 {
				continue // not a metric of this workload
			}
			c := verdict(va, vb, m)
			if c.verdict != "within" {
				code = 1
			}
			scale, suffix := 100.0, "%"
			if m.absolute {
				scale, suffix = 1, " "
			}
			fmt.Printf("%-12s %-18s %12.4f %12.4f %+7.3g%s %6.3g%s %6.3g%s %6.3g%s %3d/%-2d  %s\n",
				w.name, m.name, c.medianA, c.medianB, scale*c.worse, suffix, scale*m.bound, suffix,
				scale*c.spreadA, suffix, scale*c.spreadB, suffix, len(va), len(vb), c.verdict)
		}
	}
	return code
}
