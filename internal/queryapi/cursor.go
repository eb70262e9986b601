package queryapi

import (
	"encoding/base64"
	"encoding/binary"
	"hash/fnv"

	"strudel/internal/spine"
)

// A cursor is the resumable position of a paginated query walk. It is
// sound because the evaluator's row order is deterministic per
// generation (rows are sorted by canonical value keys and deduped), so
// (generation, query hash, offset) names one exact row prefix: the
// cursor pins the generation it was minted on and resuming either
// completes on that generation's rows or fails with a typed
// generation-mismatch — never a torn mix of two generations.
//
// The wire form is opaque: magic ‖ uvarint(gen) ‖ uvarint(qhash) ‖
// uvarint(offset) ‖ FNV-64a checksum of the preceding bytes, base64url
// without padding. The checksum turns truncation and bit rot into a
// typed bad_cursor instead of a silently wrong resume point.
type cursor struct {
	gen    int64
	qhash  uint64
	offset int
}

var cursorMagic = []byte("sqc1")

func (c cursor) encode() string {
	buf := append([]byte(nil), cursorMagic...)
	buf = binary.AppendUvarint(buf, uint64(c.gen))
	buf = binary.AppendUvarint(buf, c.qhash)
	buf = binary.AppendUvarint(buf, uint64(c.offset))
	h := fnv.New64a()
	h.Write(buf)
	buf = h.Sum(buf)
	return base64.RawURLEncoding.EncodeToString(buf)
}

func decodeCursor(s string) (cursor, *spine.Error) {
	bad := func(msg string) (cursor, *spine.Error) {
		return cursor{}, &spine.Error{Code: spine.CodeBadCursor, Message: msg}
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return bad("cursor is not valid base64url")
	}
	if len(raw) < len(cursorMagic)+8+3 || string(raw[:len(cursorMagic)]) != string(cursorMagic) {
		return bad("cursor is truncated or not a query cursor")
	}
	body, sum := raw[:len(raw)-8], raw[len(raw)-8:]
	h := fnv.New64a()
	h.Write(body)
	if string(h.Sum(nil)) != string(sum) {
		return bad("cursor checksum mismatch")
	}
	p := body[len(cursorMagic):]
	gen, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		return bad("cursor fields are corrupted")
	}
	qh, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		return bad("cursor fields are corrupted")
	}
	off, n3 := binary.Uvarint(p[n1+n2:])
	if n3 <= 0 || n1+n2+n3 != len(p) {
		return bad("cursor fields are corrupted")
	}
	if gen > 1<<62 || off > 1<<31 {
		return bad("cursor fields are out of range")
	}
	return cursor{gen: int64(gen), qhash: qh, offset: int(off)}, nil
}

// queryHash names a (query text, selector) pair: it keys the result
// cache within a generation and binds cursors to the exact request
// shape they were minted for.
func queryHash(query string, sel []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(query))
	h.Write([]byte{0})
	for _, s := range sel {
		h.Write([]byte(s))
		h.Write([]byte{1})
	}
	return h.Sum64()
}
