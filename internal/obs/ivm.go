package obs

// Bailout reasons for IVMMetrics' per-reason counters, mirroring the
// typed DeltaBailout taxonomy in package ivm (which converts its Reason
// values to these indices). Order is part of the contract: ivm.Reason
// constants are declared in the same order.
const (
	BailoutComposedQueries = iota
	BailoutDeltaTooLarge
	BailoutEvalError
	BailoutSupportUnderflow
	NumBailoutReasons
)

var bailoutNames = [NumBailoutReasons]string{
	"composed_queries", "delta_too_large", "eval_error", "support_underflow",
}

// BailoutName returns the snapshot key suffix of a bailout reason.
func BailoutName(kind int) string {
	if kind < 0 || kind >= NumBailoutReasons {
		return "unknown"
	}
	return bailoutNames[kind]
}

// IVMMetrics instruments the incremental view maintenance path: deltas
// propagated row by row, bailouts that degraded to a full rebuild (by
// reason), dirty-page counts, patch publication behaviour, and the
// apply-latency distribution. One instance is shared by the maintainer,
// the patch publisher, and — on the serving side — the hot reloader.
// Nil-safe throughout.
type IVMMetrics struct {
	// DeltasApplied counts deltas propagated incrementally end to end;
	// FullRebuilds counts applies that degraded to a from-scratch build
	// (every bailout and every rebuild retry produces one).
	DeltasApplied Counter
	FullRebuilds  Counter
	// RebuildRetries counts applies that found no engine because the
	// previous full rebuild failed, and so rebuilt again; they are not
	// bailouts.
	RebuildRetries Counter
	// Bailouts counts typed DeltaBailout raises by reason.
	Bailouts [NumBailoutReasons]Counter
	// DirtyPages counts pages dirtied (regenerated or dropped) by
	// incremental applies.
	DirtyPages Counter
	// RowsInserted/RowsRemoved count row-level (tier A) delta effects on
	// materialized where-relations; RowsRechecked counts the rows a
	// removal ground-re-checked (delete-and-rederive candidates, whether
	// or not they died); SitesReevaluated counts construction
	// sites that fell back to a from-scratch relation re-evaluation
	// (negation delete-and-rederive); BlocksReevaluated counts whole
	// query blocks re-evaluated wholesale (tier B).
	RowsInserted      Counter
	RowsRemoved       Counter
	RowsRechecked     Counter
	SitesReevaluated  Counter
	BlocksReevaluated Counter
	// PagesLinked/PagesWritten classify staged pages during patch
	// publication: hardlinked unchanged pages vs freshly written ones.
	PagesLinked  Counter
	PagesWritten Counter
	// ApplyNanos is the latency distribution of incremental applies
	// (delta propagation + page regeneration, excluding publication).
	ApplyNanos Histogram
}

// RecordBailout counts one typed bailout. Nil-safe.
func (m *IVMMetrics) RecordBailout(kind int) {
	if m == nil || kind < 0 || kind >= NumBailoutReasons {
		return
	}
	m.Bailouts[kind].Inc()
}

// RecordApply records one successful incremental apply. Nil-safe.
func (m *IVMMetrics) RecordApply(nanos int64, dirtyPages int) {
	if m == nil {
		return
	}
	m.DeltasApplied.Inc()
	m.DirtyPages.Add(int64(dirtyPages))
	m.ApplyNanos.Observe(nanos)
}

// Snapshot implements Snapshotter.
func (m *IVMMetrics) Snapshot() map[string]any {
	out := map[string]any{
		"deltas_applied":     m.DeltasApplied.Load(),
		"full_rebuilds":      m.FullRebuilds.Load(),
		"rebuild_retries":    m.RebuildRetries.Load(),
		"dirty_pages":        m.DirtyPages.Load(),
		"rows_inserted":      m.RowsInserted.Load(),
		"rows_removed":       m.RowsRemoved.Load(),
		"rows_rechecked":     m.RowsRechecked.Load(),
		"sites_reevaluated":  m.SitesReevaluated.Load(),
		"blocks_reevaluated": m.BlocksReevaluated.Load(),
		"pages_linked":       m.PagesLinked.Load(),
		"pages_written":      m.PagesWritten.Load(),
		"apply_nanos":        histSnap(&m.ApplyNanos),
	}
	for k, name := range bailoutNames {
		out["bailout_"+name] = m.Bailouts[k].Load()
	}
	return out
}
