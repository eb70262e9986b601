package struql

import "fmt"

// Guard limits a ResourceExhausted error names.
const (
	LimitRows      = "rows"
	LimitNFAStates = "nfa-states"
	LimitDeadline  = "deadline"
)

// ResourceExhausted is the typed error evaluation returns when a
// resource guard trips: the binding relation outgrew Options.MaxRows, a
// path condition's product automaton visited more than
// Options.MaxNFAStates states, or the Options.Deadline passed. It turns
// a pathological query — a cross product, a runaway closure — from a
// hang or an OOM kill into a diagnosable failure.
type ResourceExhausted struct {
	// Limit is which guard tripped: LimitRows, LimitNFAStates, or
	// LimitDeadline.
	Limit string
	// Used and Max are the observed and configured values (zero for
	// LimitDeadline, where the wall clock is the measure).
	Used int
	Max  int
}

func (e *ResourceExhausted) Error() string {
	if e.Limit == LimitDeadline {
		return "struql: evaluation deadline exceeded"
	}
	return fmt.Sprintf("struql: evaluation exceeded the %s limit (%d > %d)", e.Limit, e.Used, e.Max)
}
