package repo

import (
	"fmt"

	"strudel/internal/graph"
)

// Binary graph serialization — the "efficient storage representations for
// semistructured data" direction §7 points at. SGB2 is the one binary
// format: the magic "SGB2" followed by the frozen snapshot's own payload
// (dictionary, typed arenas, out-adjacency CSR, collections — see
// internal/graph), so a file decodes straight into a queryable snapshot
// without re-indexing. With no schema to describe rows, attribute names
// repeat constantly; the snapshot's dictionary interns them, which is
// where the compression over the textual data-definition language comes
// from (BenchmarkBinaryVsText in this package).

const binaryMagic = "SGB2"

// FormatError reports input that does not start with the SGB2 magic:
// an earlier binary format, another file type, or a truncated header.
type FormatError struct {
	// Magic is the leading bytes found in place of the magic (fewer
	// than four when the input is shorter).
	Magic string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("repo: binary: unsupported format %q: only %s is read", e.Magic, binaryMagic)
}

// EncodeBinaryFrozen serializes a frozen snapshot in the SGB2 format.
func EncodeBinaryFrozen(f *graph.Frozen) []byte {
	out := make([]byte, 0, 1<<12)
	out = append(out, binaryMagic...)
	return graph.AppendFrozen(out, f)
}

// DecodeBinaryFrozen deserializes an SGB2 file into a frozen snapshot.
// Any other leading magic yields a *FormatError; corrupt SGB2 input
// yields an error, never a panic.
func DecodeBinaryFrozen(data []byte) (*graph.Frozen, error) {
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, &FormatError{Magic: string(data[:min(len(data), len(binaryMagic))])}
	}
	return graph.DecodeFrozen(data[len(binaryMagic):])
}
