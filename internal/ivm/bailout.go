// Package ivm is the batch pipeline's incremental view maintainer: it
// propagates a mediator.Delta through the StruQL operators of a single
// version query, tracks which site-graph regions and generated pages
// the delta dirties, and re-renders only those — the delta analogue of
// a full core.BuildVersionWith.
//
// The subsystem is fail-soft by construction. Any operator that cannot
// produce a sound delta — a composed (multi-query) version, a delta too
// large to beat a rebuild, an evaluation error mid-propagation, a
// refcount underflow in the site-graph splice — raises a typed *Bailout,
// and the Site wrapper degrades to the full fail-soft rebuild of the
// batch pipeline. Degradation is never silent: every bailout is counted
// by reason in obs.IVMMetrics.
package ivm

import (
	"fmt"

	"strudel/internal/obs"
)

// Reason classifies why delta propagation had to give up. The values
// mirror obs's Bailout* indices one for one, so a Reason converts to a
// metrics index by plain int conversion.
type Reason int

const (
	// ReasonComposedQueries: the version composes several queries, each
	// seeing the previous one's output; deltas are only propagated
	// through single-query versions.
	ReasonComposedQueries Reason = Reason(obs.BailoutComposedQueries)
	// ReasonDeltaTooLarge: the (compacted) delta exceeds the engine's
	// bound, where a full rebuild is expected to be cheaper than
	// row-by-row propagation.
	ReasonDeltaTooLarge Reason = Reason(obs.BailoutDeltaTooLarge)
	// ReasonEvalError: a seeded re-evaluation failed (resource guard,
	// timeout, or a relation that no longer binds an expected variable).
	ReasonEvalError Reason = Reason(obs.BailoutEvalError)
	// ReasonSupportUnderflow: counting a lost row or an old partition
	// out of the site graph would drive a refcount negative — the
	// maintained state is inconsistent and cannot be patched.
	ReasonSupportUnderflow Reason = Reason(obs.BailoutSupportUnderflow)

	// NumReasons is the number of distinct bailout reasons.
	NumReasons = int(obs.NumBailoutReasons)
)

// String returns the snapshot name of the reason ("eval_error", ...).
func (r Reason) String() string { return obs.BailoutName(int(r)) }

// Bailout is the typed error raised when delta propagation cannot
// proceed soundly. Catching it and falling back to a full rebuild is
// the contract: a Bailout means "rebuild", never "give up".
type Bailout struct {
	Reason Reason
	Detail string
}

func (b *Bailout) Error() string {
	if b.Detail == "" {
		return fmt.Sprintf("ivm: bailout: %s", b.Reason)
	}
	return fmt.Sprintf("ivm: bailout: %s: %s", b.Reason, b.Detail)
}

func bail(r Reason, format string, args ...any) *Bailout {
	return &Bailout{Reason: r, Detail: fmt.Sprintf(format, args...)}
}
