package repo

import "testing"

// FuzzDecodeBinary: arbitrary bytes must never panic the decoder, and
// anything it accepts — in either format — must freeze and re-encode as
// SGB2 to a form that decodes to the same graph.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(sgb1(f, "sample"))
	f.Add(sgb1(f, "allkinds"))
	if fz := allKindsGraph().Freeze(); fz != nil {
		f.Add(EncodeBinaryFrozen(fz))
	}
	f.Add([]byte("SGB1"))
	f.Add([]byte("SGB2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(data)
		if err != nil {
			return
		}
		fz := g.Freeze()
		if fz == nil {
			t.Skip("graph beyond the snapshot's id capacity")
		}
		g2, err := DecodeBinary(EncodeBinaryFrozen(fz))
		if err != nil {
			t.Fatalf("re-encode of accepted graph failed: %v", err)
		}
		if g.Dump() != g2.Dump() {
			t.Fatal("re-encode round trip changed the graph")
		}
	})
}
