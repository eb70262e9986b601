// Fault injection for the serving layer's tests. These types are the
// harness of the degradation and chaos drills: they wrap a data source
// or a wrapper-load function and inject the failures a real deployment
// sees — slow reads, flaky filesystems, partially written files — so the
// degradation, backoff, cancellation, and drain behavior can be proven
// rather than assumed.

package dynamic

import (
	"sync"
	"sync/atomic"
	"time"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

// FaultSource wraps a struql.Source, delaying every access by Delay and
// counting accesses. It has no snapshot of its own, so every evaluation
// over it first reads it whole into a copy (struql.Snapshot): each
// evaluation, and so each page computed on it, is slow — Ops makes that
// observable.
type FaultSource struct {
	Inner struql.Source
	// Delay is added to every access; zero only counts.
	Delay time.Duration

	ops atomic.Int64
}

// NewFaultSource wraps inner with the given per-access delay.
func NewFaultSource(inner struql.Source, delay time.Duration) *FaultSource {
	return &FaultSource{Inner: inner, Delay: delay}
}

// Ops returns the number of source accesses so far.
func (f *FaultSource) Ops() int64 { return f.ops.Load() }

func (f *FaultSource) touch() {
	f.ops.Add(1)
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}

func (f *FaultSource) Nodes() []graph.OID {
	f.touch()
	return f.Inner.Nodes()
}

func (f *FaultSource) Out(oid graph.OID) []graph.Edge {
	f.touch()
	return f.Inner.Out(oid)
}

func (f *FaultSource) CollectionNames() []string {
	f.touch()
	return f.Inner.CollectionNames()
}

func (f *FaultSource) Collection(name string) []graph.OID {
	f.touch()
	return f.Inner.Collection(name)
}

func (f *FaultSource) NumNodes() int {
	f.touch()
	return f.Inner.NumNodes()
}

func (f *FaultSource) NumEdges() int {
	f.touch()
	return f.Inner.NumEdges()
}

// FlakyLoader wraps a wrapper-load function with programmable faults: a
// number of upcoming calls can be made to fail (as a flaky filesystem or
// a half-written file would) and a per-call delay can simulate slow
// storage. It is safe for concurrent use.
type FlakyLoader struct {
	load func() (*graph.Graph, error)

	mu        sync.Mutex
	failN     int
	failErr   error
	delay     time.Duration
	calls     int
	failCalls int
}

// NewFlakyLoader wraps load.
func NewFlakyLoader(load func() (*graph.Graph, error)) *FlakyLoader {
	return &FlakyLoader{load: load}
}

// FailNext makes the next n Load calls return err without invoking the
// wrapped loader.
func (f *FlakyLoader) FailNext(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failN = n
	f.failErr = err
}

// SetDelay sleeps every Load call by d before proceeding.
func (f *FlakyLoader) SetDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
}

// Calls returns total and failed call counts.
func (f *FlakyLoader) Calls() (total, failed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.failCalls
}

// Load invokes the wrapped loader, injecting the programmed faults.
func (f *FlakyLoader) Load() (*graph.Graph, error) {
	f.mu.Lock()
	f.calls++
	delay := f.delay
	var err error
	if f.failN > 0 {
		f.failN--
		f.failCalls++
		err = f.failErr
	}
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return nil, err
	}
	return f.load()
}
