package queryapi

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"strudel/internal/graph"
	"strudel/internal/spine"
	"strudel/internal/struql"
)

// WireValue is the JSON wire form of one binding value. Type is always
// present ("null", "node", "string", "int", "float", "bool", "url",
// "file"); exactly one payload field accompanies it (none for null).
// Payload fields are pointers so zero values — empty string, 0, false —
// survive the round trip instead of vanishing under omitempty.
type WireValue struct {
	Type  string   `json:"type"`
	OID   string   `json:"oid,omitempty"`
	Str   *string  `json:"str,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
	// File qualifies Str for file atoms ("html", "image", ...).
	File string `json:"file,omitempty"`
}

func wireValue(v graph.Value) WireValue {
	switch v.Kind() {
	case graph.KindNode:
		return WireValue{Type: "node", OID: string(v.OID())}
	case graph.KindString:
		s := v.Str()
		return WireValue{Type: "string", Str: &s}
	case graph.KindInt:
		i := v.Int()
		return WireValue{Type: "int", Int: &i}
	case graph.KindFloat:
		f := v.Float()
		return WireValue{Type: "float", Float: &f}
	case graph.KindBool:
		b := v.Bool()
		return WireValue{Type: "bool", Bool: &b}
	case graph.KindURL:
		s := v.Str()
		return WireValue{Type: "url", Str: &s}
	case graph.KindFile:
		s := v.Str()
		return WireValue{Type: "file", Str: &s, File: v.FileType().String()}
	default:
		return WireValue{Type: "null"}
	}
}

// rowMsg is one streamed NDJSON row: values aligned with the header's
// vars order.
type rowMsg struct {
	Kind string      `json:"kind"`
	V    []WireValue `json:"v"`
}

// resultHeader is the first line of the closure payload (and the basis
// of the header line streamed to clients).
type resultHeader struct {
	Vars  []string `json:"vars"`
	Total int      `json:"total"`
}

// encodeResult projects a binding relation through the selector and
// encodes it as the newline-separated closure payload: a header line
// followed by one pre-marshaled row line per binding row. Encoding
// happens once, on the replica, inside the generation snapshot — the
// service pages over the resulting lines without re-touching graph
// values, and byte-identity across shards/replicas/cache states falls
// out of the evaluator's deterministic row order plus this single
// deterministic encoding.
//
// An empty selector keeps every variable in the relation's column
// order. A selector projects (and reorders) columns; projected rows are
// NOT re-deduplicated — the relation's row multiplicity is preserved,
// so walking pages with and without a selector stays positionally
// aligned.
func encodeResult(b *struql.Bindings, sel []string) (string, error) {
	cols := make([]int, 0, len(sel))
	vars := b.Vars
	if len(sel) > 0 {
		vars = sel
		for _, v := range sel {
			i := b.Index(v)
			if i < 0 {
				avail := append([]string(nil), b.Vars...)
				sort.Strings(avail)
				return "", &spine.Error{Code: spine.CodeUnknownSelect,
					Message: fmt.Sprintf("select variable %q is not bound by the query (bound: %s)",
						v, strings.Join(avail, ", "))}
			}
			cols = append(cols, i)
		}
	}
	var sb strings.Builder
	hdr, err := json.Marshal(resultHeader{Vars: vars, Total: len(b.Rows)})
	if err != nil {
		return "", err
	}
	sb.Write(hdr)
	row := rowMsg{Kind: "row", V: make([]WireValue, len(vars))}
	for _, r := range b.Rows {
		if len(sel) > 0 {
			for j, c := range cols {
				row.V[j] = wireValue(r[c])
			}
		} else {
			for j, v := range r {
				row.V[j] = wireValue(v)
			}
		}
		line, err := json.Marshal(row)
		if err != nil {
			return "", err
		}
		sb.WriteByte('\n')
		sb.Write(line)
	}
	return sb.String(), nil
}

// parseResult splits a closure payload back into its header and row
// lines (still marshaled — they are streamed verbatim).
func parseResult(payload string, gen int64) (*result, error) {
	head, rest, _ := strings.Cut(payload, "\n")
	var hdr resultHeader
	if err := json.Unmarshal([]byte(head), &hdr); err != nil {
		return nil, fmt.Errorf("queryapi: corrupt result header: %w", err)
	}
	var rows []string
	if rest != "" {
		rows = strings.Split(rest, "\n")
	}
	if len(rows) != hdr.Total {
		return nil, fmt.Errorf("queryapi: result header claims %d rows, payload has %d", hdr.Total, len(rows))
	}
	return &result{gen: gen, vars: hdr.Vars, rows: rows}, nil
}
