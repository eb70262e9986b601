package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"strudel/internal/constraints"
	"strudel/internal/core"
	"strudel/internal/dynamic"
	"strudel/internal/fsx"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// swapper is watch mode's consumer of the reload loop: it pushes each
// new data generation's delta through the incremental site, re-checks
// the integrity constraints, and patches only the dirtied pages into the
// published tree. Every failure is fail-soft: the published directory
// keeps the last good generation, the site keeps every page dirtied
// since its last publication, and the next generation retries.
type swapper struct {
	site    *ivm.Site
	checks  []constraints.Constraint
	out     string
	metrics *obs.IVMMetrics
	logf    func(format string, args ...any)
	// err is the last swap's failure, nil after a success.
	err error
}

// newWatch builds the site once from current file state, publishes it
// whole, and returns the reload loop that keeps it fresh. The loop's
// file stamps are taken before the first load, so an edit made while
// the site builds is seen by the first poll. A constraint violation on
// the initial build is fatal, exactly like a batch build: there is no
// last-good tree to fall back to yet.
func newWatch(sources []mediator.Source, version *core.Version, out string,
	interval time.Duration, opts *core.Options, logger *log.Logger) (*dynamic.Reloader, *swapper, error) {
	sw := &swapper{out: out, metrics: &obs.IVMMetrics{}, logf: logger.Printf}
	for _, cs := range version.Constraints {
		c, err := constraints.Parse(cs)
		if err != nil {
			return nil, nil, err
		}
		sw.checks = append(sw.checks, c)
	}
	rl, err := dynamic.NewReloader(sources...)
	if err != nil {
		return nil, nil, err
	}
	rl.Interval, rl.Logger = interval, logger
	data, err := rl.Warehouse()
	if err != nil {
		return nil, nil, err
	}
	if sw.site, err = ivm.NewSite(version, data, opts, sw.metrics); err != nil {
		return nil, nil, err
	}
	if !sw.checksPass() {
		return nil, nil, errConstraints
	}
	if err := sw.site.Publish(fsx.OS, out, nil); err != nil {
		return nil, nil, err
	}
	rl.AttachSwapper(sw, nil)
	return rl, sw, nil
}

// checksPass runs every integrity constraint against the current site
// graph, logging verdicts; any violation vetoes publication.
func (s *swapper) checksPass() bool {
	g := s.site.SiteGraph()
	if g == nil {
		return true
	}
	pass := true
	for i, c := range s.checks {
		r := c.CheckSite(g)
		if r.Verdict == constraints.Violated {
			pass = false
			s.logf("constraint %d: %s — %s", i+1, r.Verdict, r.Reason)
		}
	}
	return pass
}

// SwapData publishes one data generation. The reload loop always hands
// over its round's delta; a nil delta (an unknown change) would make the
// site rebuild whole. Watch mode keeps no page cache, so nothing is kept
// or dropped.
func (s *swapper) SwapData(data struql.Source, d *mediator.Delta) (kept, dropped int) {
	if s.err = s.swap(data, d); s.err == nil {
		snap := s.metrics.Snapshot()
		s.logf("watch: republished (applied=%v rebuilds=%v dirty=%v)",
			snap["deltas_applied"], snap["full_rebuilds"], snap["dirty_pages"])
	}
	return 0, 0
}

func (s *swapper) swap(data struql.Source, d *mediator.Delta) error {
	if err := s.site.Apply(data, d); err != nil {
		// Even the degraded full rebuild failed; the site still holds its
		// last good generation and its dirty set.
		s.logf("watch: apply: %v (keeping last good site)", err)
		return err
	}
	if !s.checksPass() {
		s.logf("watch: constraints violated; publication vetoed, last good site kept")
		return errConstraints
	}
	if err := s.site.Publish(fsx.OS, s.out, nil); err != nil {
		s.logf("watch: publish: %v (dirty pages retained for next attempt)", err)
		return err
	}
	return nil
}

// runWatch is the -watch entry point: build and publish once, then poll
// and patch until killed.
func runWatch(sources []mediator.Source, version *core.Version, out string,
	interval time.Duration, opts *core.Options) error {
	rl, _, err := newWatch(sources, version, out, interval, opts, log.New(os.Stderr, "strudel: ", 0))
	if err != nil {
		return err
	}
	fmt.Printf("watching %d files, rebuilt site → %s (interval %s)\n", len(sources), out, interval)
	rl.Run(context.Background())
	return nil
}
