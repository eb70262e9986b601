package repo

import (
	"testing"

	"strudel/internal/ddl"
)

// FuzzDecodeBinary: arbitrary bytes must never panic the decoder, and
// any snapshot it accepts must re-encode to bytes that decode to the
// same graph and re-encode to themselves (SGB2's encoding is
// canonical).
func FuzzDecodeBinary(f *testing.F) {
	f.Add(encodeV2(f, allKindsGraph()))
	f.Add(encodeV2(f, sampleGraph()))
	f.Add(buildV2(nil))
	f.Add([]byte(binaryMagic))
	f.Add([]byte("XXXX"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz, err := DecodeBinaryFrozen(data)
		if err != nil {
			return
		}
		again := EncodeBinaryFrozen(fz)
		fz2, err := DecodeBinaryFrozen(again)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if ddl.Print(fz) != ddl.Print(fz2) {
			t.Fatal("re-encode round trip changed the graph")
		}
		if string(EncodeBinaryFrozen(fz2)) != string(again) {
			t.Fatal("re-encoding is not canonical")
		}
	})
}
