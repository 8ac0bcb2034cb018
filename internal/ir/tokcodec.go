package ir

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dwqa/internal/nlp"
)

// Per-document token-stream codec.
//
// A document's analysed sentences are stored as one framed byte block:
// per sentence a token count, per token (start delta, length, tag index,
// lemma index) varints against snapshot-wide tag/lemma intern tables.
// Token text is not stored — a token's surface form is exactly
// doc.Text[start:end), so decode slices it back out of the document.
//
// The codec lives in ir (not internal/store) because restore is lazy:
// Import keeps the wire blocks and decodes a document's sentences on
// first touch (sentsAt), so a restored index pays token materialisation
// only for documents a query actually reads. The store writes and ships
// the same blocks verbatim. The byte format is unchanged from snapshot
// schema v2, which decoded everything eagerly.

var (
	errNegativeCount = errors.New("negative posting count")
	errTruncatedList = errors.New("truncated posting list")
	errBadGap        = errors.New("zero or oversized id gap")
	errIDRange       = errors.New("posting id out of range")
	errBadTF         = errors.New("posting tf out of range")
	errTrailingBytes = errors.New("trailing bytes after posting list")
)

// encodeTokenBlock appends one document's token stream to dst, interning
// tags and lemmas into the shared tables (extended in first-occurrence
// order — the append-only order that keeps previously encoded blocks'
// indexes valid). The tag table holds tag names (Tag.String), so the
// wire format does not depend on the enum's numbering. Returns the
// extended dst and the token count.
func encodeTokenBlock(dst []byte, sents []nlp.Sentence, tagIdx map[nlp.Tag]int, tags *[]string, lemmaIdx map[string]int, lemmas *[]string) ([]byte, int) {
	tokens := 0
	prev := int64(0)
	for _, s := range sents {
		dst = binary.AppendUvarint(dst, uint64(len(s.Tokens)))
		tokens += len(s.Tokens)
		for _, t := range s.Tokens {
			ti, ok := tagIdx[t.Tag]
			if !ok {
				ti = len(*tags)
				tagIdx[t.Tag] = ti
				*tags = append(*tags, t.Tag.String())
			}
			li, ok := lemmaIdx[t.Lemma]
			if !ok {
				li = len(*lemmas)
				lemmaIdx[t.Lemma] = li
				*lemmas = append(*lemmas, t.Lemma)
			}
			dst = binary.AppendVarint(dst, int64(t.Start)-prev)
			dst = binary.AppendUvarint(dst, uint64(t.End-t.Start))
			dst = binary.AppendUvarint(dst, uint64(ti))
			dst = binary.AppendUvarint(dst, uint64(li))
			prev = int64(t.End)
		}
	}
	return dst, tokens
}

// uvTok decodes an unsigned varint with a fast path for the one-byte
// values that dominate token streams. Returns newPos -1 on truncation.
func uvTok(data []byte, pos int) (uint64, int) {
	if pos < len(data) {
		if b := data[pos]; b < 0x80 {
			return uint64(b), pos + 1
		}
	}
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// vTok is uvTok for zigzag-signed varints.
func vTok(data []byte, pos int) (int64, int) {
	u, next := uvTok(data, pos)
	if next < 0 {
		return 0, -1
	}
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, next
}

// walkTokenBlock drives both validation and decode: it streams the block
// once, calling emit for every token (emit is nil when only validating).
// All structural failure modes — truncation, empty sentences, token
// over/undercount, spans outside the document, intern indexes out of
// range, trailing bytes — surface as errors here, so a block that passed
// validation at Import decodes infallibly on first touch.
func walkTokenBlock(data []byte, textLen, nSents, nTokens, nTags, nLemmas int, emit func(sent, ti, start, end, tagIdx, lemmaIdx int)) error {
	pos := 0
	ti := 0
	prev := 0
	for s := 0; s < nSents; s++ {
		nToks, next := uvTok(data, pos)
		if next < 0 {
			return errors.New("truncated token block")
		}
		pos = next
		if nToks == 0 {
			return errors.New("empty sentence")
		}
		for t := uint64(0); t < nToks; t++ {
			if ti >= nTokens {
				return fmt.Errorf("more tokens than the declared %d", nTokens)
			}
			delta, next := vTok(data, pos)
			if next < 0 {
				return errors.New("truncated token block")
			}
			length, next2 := uvTok(data, next)
			if next2 < 0 {
				return errors.New("truncated token block")
			}
			tagIdx, next3 := uvTok(data, next2)
			if next3 < 0 {
				return errors.New("truncated token block")
			}
			lemmaIdx, next4 := uvTok(data, next3)
			if next4 < 0 {
				return errors.New("truncated token block")
			}
			pos = next4
			start := prev + int(delta)
			end := start + int(length)
			if start < 0 || end < start || end > textLen {
				return fmt.Errorf("token span [%d:%d) outside document (%d bytes)", start, end, textLen)
			}
			if tagIdx >= uint64(nTags) {
				return fmt.Errorf("tag index %d out of range (%d entries)", tagIdx, nTags)
			}
			if lemmaIdx >= uint64(nLemmas) {
				return fmt.Errorf("lemma index %d out of range (%d entries)", lemmaIdx, nLemmas)
			}
			if emit != nil {
				emit(s, ti, start, end, int(tagIdx), int(lemmaIdx))
			}
			ti++
			prev = end
		}
	}
	if ti != nTokens {
		return fmt.Errorf("declared %d tokens, stream holds %d", nTokens, ti)
	}
	if pos != len(data) {
		return fmt.Errorf("%d trailing bytes in token block", len(data)-pos)
	}
	return nil
}

// parseTagTable maps a snapshot's tag-name table onto the nlp.Tag enum,
// rejecting a name outside the tag inventory.
func parseTagTable(names []string) ([]nlp.Tag, error) {
	tags := make([]nlp.Tag, len(names))
	for i, name := range names {
		t, ok := nlp.ParseTag(name)
		if !ok {
			return nil, fmt.Errorf("unknown tag %q in tag table", name)
		}
		tags[i] = t
	}
	return tags, nil
}

// validateTokenBlock structurally checks a wire block without
// materialising tokens — the Import-time pass that makes lazy decode
// infallible.
func validateTokenBlock(data []byte, textLen, nSents, nTokens, nTags, nLemmas int) error {
	return walkTokenBlock(data, textLen, nSents, nTokens, nTags, nLemmas, nil)
}

// decodeTokenBlock materialises a validated block: tokens land in a
// single per-document arena (one allocation) with sentences as
// subslices, token text sliced straight out of the document. tags is the
// snapshot's tag table already parsed into enum values (parseTagTable).
// Panics on a malformed block — callers only reach here through Import,
// which validated the block already.
func decodeTokenBlock(data []byte, text string, nSents, nTokens int, tags []nlp.Tag, lemmas []string) []nlp.Sentence {
	arena := make([]nlp.Token, nTokens)
	counts := make([]int32, nSents)
	err := walkTokenBlock(data, len(text), nSents, nTokens, len(tags), len(lemmas), func(sent, ti, start, end, tagIdx, lemmaIdx int) {
		counts[sent]++
		arena[ti] = nlp.Token{
			Text:  text[start:end],
			Lemma: lemmas[lemmaIdx],
			Start: int32(start),
			End:   int32(end),
			Tag:   tags[tagIdx],
		}
	})
	if err != nil {
		panic(fmt.Sprintf("ir: validated token block failed to decode: %v", err))
	}
	sents := make([]nlp.Sentence, nSents)
	ti := int32(0)
	for s, n := range counts {
		toks := arena[ti : ti+n : ti+n]
		sents[s] = nlp.Sentence{Tokens: toks, Start: toks[0].Start, End: toks[len(toks)-1].End}
		ti += n
	}
	return sents
}
