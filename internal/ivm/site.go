package ivm

import (
	"fmt"
	"sort"
	"time"

	"strudel/internal/core"
	"strudel/internal/fsx"
	"strudel/internal/graph"
	"strudel/internal/htmlgen"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// Site is the fail-soft face of incremental maintenance: one maintained
// version plus the degrade-to-full machinery around it. Apply tries the
// row-level Engine first; on any typed *Bailout it counts the reason
// and rebuilds the whole version from scratch — the same output, paid
// for with a full evaluation. Publish pushes only the pages dirtied
// since the last successful publication, hardlinking the rest, through
// the same stage-verify-swap sequence as a batch build, so a fault at
// any patch step still leaves the published tree fully old or fully
// new.
type Site struct {
	version *core.Version
	opts    *core.Options
	// eng is nil when the version cannot be maintained incrementally
	// (composed queries), or when the last rebuild failed: every Apply
	// is then a counted full rebuild.
	eng *Engine
	out *htmlgen.Output
	// fbGraph is the site graph of the last full build when eng is nil,
	// kept so constraint checks still have a graph to run against.
	fbGraph *graph.Graph

	// pendingDirty accumulates dirty page names across applies AND
	// across failed publishes: after a failed publish the published tree
	// is still the old generation, so the next attempt must write every
	// page dirtied since the last success, not just the latest batch.
	pendingDirty map[string]bool
	// fullPending forces the next publish to write the whole tree: set
	// after construction and after every full rebuild, because a patch
	// is only sound against a tree this process published.
	fullPending bool

	// Obs receives apply/bailout/publish instrumentation; nil disables.
	Obs *obs.IVMMetrics
}

// NewSite builds the version once and prepares incremental state. A
// version whose shape cannot be maintained incrementally still works —
// it is built whole here and rebuilt whole on every Apply, each one
// counted as a bailout.
func NewSite(v *core.Version, data struql.Source, opts *core.Options, m *obs.IVMMetrics) (*Site, error) {
	s := &Site{version: v, opts: opts, pendingDirty: map[string]bool{}, fullPending: true, Obs: m}
	eng, err := NewEngine(v, data, opts)
	if err != nil {
		if _, ok := err.(*Bailout); !ok {
			return nil, err
		}
		vr, err := core.BuildVersionWith(v, data, opts)
		if err != nil {
			return nil, err
		}
		s.out = vr.Output
		s.fbGraph = vr.SiteGraph
		return s, nil
	}
	eng.Obs = m
	s.eng = eng
	s.out = eng.Output()
	return s, nil
}

// Output returns the current generated site.
func (s *Site) Output() *htmlgen.Output { return s.out }

// SiteGraph returns the live site graph: the engine's maintained graph,
// or for composed-query versions the graph of the last full build.
func (s *Site) SiteGraph() *graph.Graph {
	if s.eng == nil {
		return s.fbGraph
	}
	return s.eng.Site()
}

// Engine returns the row-level engine, nil for composed-query versions.
func (s *Site) Engine() *Engine { return s.eng }

// Apply pushes one data delta through the pipeline, degrading to a full
// rebuild on any bailout. data must already reflect the delta. A nil
// delta means "changed by an unknown amount" and always rebuilds. The
// returned error is non-nil only when even the full rebuild failed; the
// site then still holds (and can republish) its last good generation.
func (s *Site) Apply(data struql.Source, delta *mediator.Delta) error {
	if s.eng == nil {
		if len(s.version.Queries) == 1 {
			// A single-query version without an engine lost it to a
			// failed rebuild: this is that rebuild's retry, not a bailout.
			if s.Obs != nil {
				s.Obs.RebuildRetries.Inc()
			}
		} else {
			s.Obs.RecordBailout(int(ReasonComposedQueries))
		}
		return s.rebuild(data)
	}
	if delta != nil && delta.Empty() {
		return nil
	}
	start := time.Now()
	pages, err := s.eng.Apply(data, delta)
	if err == nil {
		s.Obs.RecordApply(time.Since(start).Nanoseconds(), len(pages))
		for _, p := range pages {
			s.pendingDirty[p] = true
		}
		return nil
	}
	b, ok := err.(*Bailout)
	if !ok {
		return err
	}
	s.Obs.RecordBailout(int(b.Reason))
	return s.rebuild(data)
}

// rebuild replaces the engine (and output) with a from-scratch build.
// On failure the previous output is kept so the last good generation
// stays publishable; the stale engine is dropped either way, because a
// failed apply may have corrupted it.
func (s *Site) rebuild(data struql.Source) error {
	if s.Obs != nil {
		s.Obs.FullRebuilds.Inc()
	}
	s.eng = nil
	if len(s.version.Queries) == 1 {
		eng, err := NewEngine(s.version, data, s.opts)
		if err != nil {
			return fmt.Errorf("ivm: rebuild %s: %w", s.version.Name, err)
		}
		eng.Obs = s.Obs
		s.eng = eng
		s.out = eng.Output()
	} else {
		vr, err := core.BuildVersionWith(s.version, data, s.opts)
		if err != nil {
			return fmt.Errorf("ivm: rebuild %s: %w", s.version.Name, err)
		}
		s.out = vr.Output
		s.fbGraph = vr.SiteGraph
	}
	s.fullPending = true
	s.pendingDirty = map[string]bool{}
	return nil
}

// Publish pushes the current generation to dir: a patch of the pages
// dirtied since the last successful publish when one is sound, a full
// atomic publication otherwise. On failure the dirty set is retained —
// the published tree is still the previous generation, so the next
// attempt republishes everything accumulated since the last success.
func (s *Site) Publish(fsys fsx.FS, dir string, verify func(stage string) error) error {
	if s.fullPending {
		if err := s.out.Publish(fsys, dir, verify); err != nil {
			return err
		}
		s.fullPending = false
		s.pendingDirty = map[string]bool{}
		return nil
	}
	dirty := make([]string, 0, len(s.pendingDirty))
	for p := range s.pendingDirty {
		dirty = append(dirty, p)
	}
	sort.Strings(dirty)
	linked, written, err := s.out.PublishPatch(fsys, dir, dirty, verify)
	if s.Obs != nil {
		s.Obs.PagesLinked.Add(int64(linked))
		s.Obs.PagesWritten.Add(int64(written))
	}
	if err != nil {
		return err
	}
	s.pendingDirty = map[string]bool{}
	return nil
}
