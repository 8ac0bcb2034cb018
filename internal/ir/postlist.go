package ir

import "encoding/binary"

// Compressed posting lists.
//
// A term's postings are ascending (id, tf) pairs — ids strictly increase
// because documents and passages are appended in order and each appears
// at most once per list. That makes the list delta-compressible: store
// the gap to the previous id and the tf as unsigned varints (~2 bytes
// per posting in dense lists vs 8 bytes for the fixed-width struct).
//
// Lists are hybrid: an encoded prefix plus a small raw tail. Add appends
// to the tail; when the tail reaches encodeThreshold entries it is
// flushed into the encoded prefix. Flushing is a pure function of the
// posting sequence — the bytes do not depend on when flushes happened —
// so Export can canonicalise any list (however it was built) into one
// deterministic wire form, and a restored index re-exports byte-identical
// snapshots.
//
// Iteration is a stack-value cursor (postingCursor), not a materialised
// slice: the search hot path decodes postings in place with zero
// per-query allocation, preserving the exact (id, tf) sequence the raw
// lists held — scores are a fold over that sequence, so rankings stay
// byte-identical to the dense reference oracle.
//
// Each list also carries two derived fields for the pruned search kernel
// (kernel.go): maxTF, which bounds the list's score contribution, and a
// skip table with one entry per skipBlock encoded postings, which lets a
// search decode only the blocks whose id range holds a candidate. Both
// are maintained by add/flush and rebuilt by Import in its validation
// walk; neither is part of the wire form, so snapshots do not change.

// encodeThreshold is the raw-tail length that triggers a flush into the
// encoded prefix. Lists shorter than this stay raw (rare terms), keeping
// Add cheap; longer lists hold at most this many uncompressed postings.
const encodeThreshold = 16

// skipBlock is the number of encoded postings one skip entry covers.
const skipBlock = 64

// postingList is the in-memory hybrid form of one term's postings.
type postingList struct {
	enc    []byte      // delta/varint encoded prefix
	encN   int32       // postings in enc
	lastID int32       // last id in enc; -1 when encN == 0
	maxTF  int32       // largest tf in the list (enc and raw); 0 when empty
	skips  []skipEntry // entry b covers encoded postings [b·skipBlock, (b+1)·skipBlock)
	raw    []Posting   // uncompressed tail, ascending, ids > lastID
}

// skipEntry locates one block of the encoded prefix: decoding from byte
// off with delta base base yields the block's postings, whose ids lie in
// (base, last].
type skipEntry struct {
	off  int32 // byte offset of the block's first posting in enc
	base int32 // id preceding the block (-1 for the first block)
	last int32 // last id in the block
}

// count returns the number of postings in the list.
func (pl *postingList) count() int { return int(pl.encN) + len(pl.raw) }

// bytes returns the memory held by posting storage: encoded bytes plus
// the raw tail at its struct width.
func (pl *postingList) bytes() int { return len(pl.enc) + 8*len(pl.raw) }

// add appends a posting (id must exceed every id already present) and
// flushes the raw tail into the encoded prefix once it reaches the
// threshold.
func (pl *postingList) add(id, tf int32) {
	pl.maxTF = max(pl.maxTF, tf)
	pl.raw = append(pl.raw, Posting{ID: id, TF: tf})
	if len(pl.raw) >= encodeThreshold {
		pl.flush()
	}
}

// flush encodes the raw tail onto the prefix, opening a skip entry at
// every skipBlock boundary. The encoding is positional — each posting's
// bytes depend only on its predecessor in the full sequence — so
// incremental flushes and a one-shot encode of the whole list produce
// identical bytes and identical skip tables.
func (pl *postingList) flush() {
	prev := pl.prevID()
	for _, p := range pl.raw {
		if pl.encN%skipBlock == 0 {
			pl.skips = append(pl.skips, skipEntry{off: int32(len(pl.enc)), base: prev})
		}
		pl.enc = appendPosting(pl.enc, prev, p)
		pl.skips[len(pl.skips)-1].last = p.ID
		pl.encN++
		prev = p.ID
	}
	pl.lastID = prev
	pl.raw = pl.raw[:0]
}

// prevID returns the delta base for the next encoded posting.
func (pl *postingList) prevID() int32 {
	if pl.encN == 0 {
		return -1
	}
	return pl.lastID
}

// appendPosting encodes one posting as (gap, tf) uvarints. prev is -1
// before the first posting, so the first gap is id+1; gaps are always
// ≥ 1 and tfs ≥ 1, making zero bytes impossible in a valid stream.
func appendPosting(dst []byte, prev int32, p Posting) []byte {
	dst = binary.AppendUvarint(dst, uint64(uint32(p.ID-prev)))
	return binary.AppendUvarint(dst, uint64(uint32(p.TF)))
}

// postingCursor streams a postingList's (id, tf) pairs in order. It is a
// plain value — callers keep it on the stack, so iterating a list
// allocates nothing. The zero cursor is empty.
type postingCursor struct {
	enc  []byte
	pos  int
	rem  int32 // encoded postings not yet yielded
	prev int32 // delta base (-1 before the first encoded posting)
	raw  []Posting
	ri   int
}

// cursor returns a cursor over the list's full posting sequence.
func (pl *postingList) cursor() postingCursor {
	return postingCursor{enc: pl.enc, rem: pl.encN, prev: -1, raw: pl.raw}
}

// next yields the next posting. ok is false when the list is exhausted.
func (c *postingCursor) next() (id, tf int32, ok bool) {
	if c.rem > 0 {
		c.rem--
		var gap, tfu uint64
		gap, tfu, c.pos = readPair(c.enc, c.pos)
		c.prev += int32(gap)
		return c.prev, int32(tfu), true
	}
	if c.ri < len(c.raw) {
		p := c.raw[c.ri]
		c.ri++
		return p.ID, p.TF, true
	}
	return 0, 0, false
}

// readPair decodes the (gap, tf) varint pair at enc[pos:] and returns the
// position after it, with an inlined fast path for the one-byte values
// that dominate dense lists. Callers only decode streams the list itself
// encoded (or Import validated) and bound the loop by the posting count,
// so truncation cannot occur.
func readPair(enc []byte, pos int) (gap, tf uint64, next int) {
	if pos+1 < len(enc) {
		b0, b1 := enc[pos], enc[pos+1]
		if b0 < 0x80 && b1 < 0x80 {
			return uint64(b0), uint64(b1), pos + 2
		}
	}
	gap, n := binary.Uvarint(enc[pos:])
	pos += n
	tf, n = binary.Uvarint(enc[pos:])
	return gap, tf, pos + n
}

// PostingList is the canonical wire form of one term's postings: the
// full sequence delta/varint-encoded, no raw tail. It is what Export
// produces, Import consumes, and the durability snapshot stores verbatim
// — restore installs the bytes without re-encoding (snapshot.go,
// internal/store).
type PostingList struct {
	N   int32  // posting count
	Enc []byte // (gap, tf) uvarint pairs; gap is delta from previous id (base -1)
}

// CompressPostings encodes a raw ascending posting slice into wire form.
// Used by tests and by the store's legacy-snapshot reader (fixed-width
// v2 postings are converted once at load).
func CompressPostings(posts []Posting) PostingList {
	if len(posts) == 0 {
		return PostingList{}
	}
	enc := make([]byte, 0, 3*len(posts))
	prev := int32(-1)
	for _, p := range posts {
		enc = appendPosting(enc, prev, p)
		prev = p.ID
	}
	return PostingList{N: int32(len(posts)), Enc: enc}
}

// DecodePostings materialises a wire-form list back into a raw slice —
// the inverse of CompressPostings, for tests and tooling. Malformed
// input yields a short result; use checkWirePostings to validate.
func (pl PostingList) DecodePostings() []Posting {
	out := make([]Posting, 0, pl.N)
	c := postingCursor{enc: pl.Enc, rem: pl.N, prev: -1}
	for {
		id, tf, ok := c.next()
		if !ok {
			return out
		}
		out = append(out, Posting{ID: id, TF: tf})
	}
}

// export canonicalises the list into wire form: the encoded prefix
// verbatim plus the tail encoded behind it. Because encoding is
// positional, the result equals CompressPostings over the full sequence.
func (pl *postingList) export() PostingList {
	n := pl.count()
	if n == 0 {
		return PostingList{}
	}
	enc := make([]byte, len(pl.enc), len(pl.enc)+3*len(pl.raw))
	copy(enc, pl.enc)
	prev := pl.prevID()
	for _, p := range pl.raw {
		enc = appendPosting(enc, prev, p)
		prev = p.ID
	}
	return PostingList{N: int32(n), Enc: enc}
}

// checkWirePostings validates a wire list — exact posting count, strictly
// ascending ids inside [0, limit), tfs ≥ 1, no trailing bytes — and, in
// the same walk, derives the in-memory list: lastID, maxTF and the skip
// table. The encoding is adopted capacity-clamped, so a later flush
// reallocates instead of growing into the snapshot buffer (whose tail
// bytes other lists alias when the store hands out slices of one file
// image).
func checkWirePostings(w PostingList, limit int) (postingList, error) {
	if w.N < 0 {
		return postingList{}, errNegativeCount
	}
	pl := postingList{enc: w.Enc[:len(w.Enc):len(w.Enc)], encN: w.N}
	prev := int32(-1)
	pos := 0
	for i := int32(0); i < w.N; i++ {
		off := pos
		gap, n := binary.Uvarint(w.Enc[pos:])
		if n <= 0 {
			return postingList{}, errTruncatedList
		}
		pos += n
		tf, n := binary.Uvarint(w.Enc[pos:])
		if n <= 0 {
			return postingList{}, errTruncatedList
		}
		pos += n
		if gap == 0 || gap > uint64(uint32(1)<<31-1) {
			return postingList{}, errBadGap
		}
		id := int64(prev) + int64(gap)
		if id >= int64(limit) {
			return postingList{}, errIDRange
		}
		if tf < 1 || tf > uint64(uint32(1)<<31-1) {
			return postingList{}, errBadTF
		}
		if i%skipBlock == 0 {
			pl.skips = append(pl.skips, skipEntry{off: int32(off), base: prev})
		}
		pl.skips[len(pl.skips)-1].last = int32(id)
		pl.maxTF = max(pl.maxTF, int32(tf))
		prev = int32(id)
	}
	if pos != len(w.Enc) {
		return postingList{}, errTrailingBytes
	}
	pl.lastID = prev
	return pl, nil
}

// postingsBytesLocked sums posting storage across both stores. Caller
// holds at least the read lock.
func (ix *Index) postingsBytesLocked() (bytes, count int) {
	for i := range ix.postings {
		bytes += ix.postings[i].bytes()
		count += ix.postings[i].count()
	}
	for i := range ix.docPostings {
		bytes += ix.docPostings[i].bytes()
		count += ix.docPostings[i].count()
	}
	return bytes, count
}

// PostingsBytes reports the bytes held by posting storage and the total
// posting count across the passage and document stores — the compression
// ratio metric BENCH_PERF.json tracks (fixed-width storage would hold
// exactly 8 bytes per posting).
func (ix *Index) PostingsBytes() (bytes, count int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.postingsBytesLocked()
}
