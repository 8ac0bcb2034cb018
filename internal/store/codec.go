package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// The binary codec beneath the snapshot and WAL formats: a writer that
// appends to a growing buffer and a reader with a sticky error, so the
// decode paths read field after field and check failure once. All
// integers are varints (zigzag for signed), bulk numeric columns are
// little-endian fixed-width runs — the layout a restore can load with one
// pass and no intermediate structures.

type writer struct {
	buf []byte
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) strs(ss []string) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *writer) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// i32s writes an int32 column as a fixed-width little-endian run.
func (w *writer) i32s(col []int32) {
	w.uvarint(uint64(len(col)))
	for _, v := range col {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v))
	}
}

// f64s writes a float64 column as a fixed-width little-endian run.
func (w *writer) f64s(col []float64) {
	w.uvarint(uint64(len(col)))
	for _, v := range col {
		w.f64(v)
	}
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("store: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("store: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a length prefix and bounds it against the bytes remaining,
// so a corrupt length fails instead of allocating gigabytes.
func (r *reader) count(elemMin int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if v > uint64((len(r.buf)-r.off)/elemMin+1) {
		r.fail("store: implausible count %d at offset %d", v, r.off)
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.buf) {
		r.fail("store: truncated string at offset %d", r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// textView reads a string like str but returns a view of the buffer
// instead of a copy. The snapshot decoder reads document text with it:
// the restored index already keeps the file image alive through the
// token blocks and posting lists it adopts (bytes), so a copied text
// would hold the same bytes twice. The buffer must not be written after
// decoding — the rule those adopted byte runs already impose.
func (r *reader) textView() string {
	b := r.bytes(r.count(1))
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func (r *reader) strs() []string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("store: truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *reader) i32s() []int32 {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	if r.off+4*n > len(r.buf) {
		r.fail("store: truncated int32 column at offset %d", r.off)
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.buf[r.off+4*i:]))
	}
	r.off += 4 * n
	return out
}

func (r *reader) f64s() []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	if r.off+8*n > len(r.buf) {
		r.fail("store: truncated float64 column at offset %d", r.off)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off+8*i:]))
	}
	r.off += 8 * n
	return out
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

// seek repositions the reader at an absolute offset (a section-table
// entry). Out-of-range offsets trip the sticky error.
func (r *reader) seek(off int) {
	if r.err != nil {
		return
	}
	if off < 0 || off > len(r.buf) {
		r.fail("store: seek to %d outside %d-byte body", off, len(r.buf))
		return
	}
	r.off = off
}

// bytes returns the next n raw bytes as a capacity-clamped subslice of
// the body, so appending to the result can never grow in place over
// neighbouring sections.
func (r *reader) bytes(n int) []byte {
	if r.err != nil || n == 0 {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("store: truncated byte run at offset %d", r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}
