package mediator

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"strudel/internal/diag"
	"strudel/internal/graph"
	"strudel/internal/wrapper/csvrel"
)

func csvSource(name, src string, opts csvrel.Options) Source {
	return Source{
		Name: name,
		Load: func() (*graph.Graph, error) { return csvrel.Load(src, opts) },
		LoadLenient: func() (*graph.Graph, *diag.Report, error) {
			return csvrel.LoadLenient(src, name, opts)
		},
	}
}

// TestWarehouseLenientWithinBudget: dirty rows are skipped, reported,
// and the surviving data still warehouses.
func TestWarehouseLenientWithinBudget(t *testing.T) {
	m, err := New(
		csvSource("emp.csv", "id,name\n1,Alice\n2,Bob,extra\n3,Carol\n", csvrel.Options{Table: "emp", KeyColumn: "id"}),
		csvSource("org.csv", "id,head\nR11,1\n", csvrel.Options{Table: "org", KeyColumn: "id"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ix, reports, err := m.WarehouseLenient(diag.Budget{Max: 1})
	if err != nil {
		t.Fatalf("WarehouseLenient: %v", err)
	}
	if got := len(ix.Collection("emp")); got != 2 {
		t.Errorf("emp rows = %d, want 2 (the clean ones)", got)
	}
	if got := len(ix.Collection("org")); got != 1 {
		t.Errorf("org rows = %d, want 1", got)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %v, want one per source", reports)
	}
	if r := reports[0]; r.Name != "emp.csv" || r.Report.Skipped != 1 || r.Report.Records != 3 {
		t.Errorf("emp report = %+v", r)
	}
	if r := reports[1]; r.Name != "org.csv" || r.Report.Skipped != 0 {
		t.Errorf("org report = %+v", r)
	}
}

// TestWarehouseLenientBudgetExceeded: a source over budget fails the
// build with a typed error, and the reports still cover every source so
// one run surfaces all diagnostics.
func TestWarehouseLenientBudgetExceeded(t *testing.T) {
	m, err := New(
		csvSource("emp.csv", "id,name\n1,Alice\n2,Bob,extra\n3,Carol,extra\n", csvrel.Options{Table: "emp", KeyColumn: "id"}),
		csvSource("org.csv", "id,head\nR11,1,x\n", csvrel.Options{Table: "org", KeyColumn: "id"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, reports, err := m.WarehouseLenient(diag.Budget{Max: 1})
	if err == nil {
		t.Fatal("want budget error")
	}
	var be *diag.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *diag.BudgetError", err, err)
	}
	if be.Source != "emp.csv" || be.Skipped != 2 {
		t.Errorf("budget error = %+v, want emp.csv with 2 skips", be)
	}
	if len(reports) != 2 || reports[1].Report.Skipped != 1 {
		t.Errorf("reports = %+v, want both sources reported despite the failure", reports)
	}
}

// TestWarehouseLenientZeroBudgetIsStrict: with a zero budget any skip
// fails the build, restoring fail-fast semantics source by source.
func TestWarehouseLenientZeroBudgetIsStrict(t *testing.T) {
	m, _ := New(csvSource("emp.csv", "id,name\n1,Alice\n2,Bob,extra\n", csvrel.Options{Table: "emp", KeyColumn: "id"}))
	_, _, err := m.WarehouseLenient(diag.Budget{})
	var be *diag.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *diag.BudgetError", err)
	}
}

// TestWarehouseLenientWholeSourceFallback: a source without a lenient
// loader that fails outright degrades to one skipped record — within a
// generous budget the build survives it; the diagnostic names the
// source.
func TestWarehouseLenientWholeSourceFallback(t *testing.T) {
	m, _ := New(
		Source{Name: "flaky", Load: func() (*graph.Graph, error) { return nil, fmt.Errorf("disk on fire") }},
		csvSource("emp.csv", "id,name\n1,Alice\n", csvrel.Options{Table: "emp", KeyColumn: "id"}),
	)
	ix, reports, err := m.WarehouseLenient(diag.Unlimited)
	if err != nil {
		t.Fatalf("WarehouseLenient: %v", err)
	}
	if got := len(ix.Collection("emp")); got != 1 {
		t.Errorf("emp rows = %d, want 1", got)
	}
	r := reports[0]
	if r.Report.Skipped != 1 || r.Report.Records != 1 {
		t.Errorf("flaky report = %+v, want 1/1", r.Report)
	}
	if d := r.Report.Diags[0]; d.Source != "flaky" || !strings.Contains(d.Message, "disk on fire") {
		t.Errorf("diag = %q", d.String())
	}
	// With a zero budget the same failure is fatal.
	m2, _ := New(Source{Name: "flaky", Load: func() (*graph.Graph, error) { return nil, fmt.Errorf("no") }})
	if _, _, err := m2.WarehouseLenient(diag.Budget{}); err == nil {
		t.Error("zero budget should make a failing source fatal")
	}
}
