// Package nlp provides the natural-language-processing substrate of the
// AliQAn reproduction: tokenisation, part-of-speech tagging, lemmatisation
// and sentence splitting.
//
// The paper's AliQAn system relies on the external tools Maco+ and
// TreeTagger for morphological analysis. This package replaces them with a
// self-contained lexicon-plus-heuristics analyzer that emits the same
// annotation alphabet the paper prints in Table 1: NP (proper noun),
// NN/NNS (common noun), CD (number), IN/OF (preposition), DT (determiner),
// VBZ and friends (verbs), WP (wh-pronoun) and SENT (sentence punctuation).
package nlp

import "fmt"

// Tag is a Penn-Treebank-style part-of-speech tag restricted to the subset
// used by the paper's trace format plus the closed classes needed to tag
// the evaluation texts. It is a one-byte enum so a Token packs into 48
// bytes; String returns the tag's name as the paper prints it. The zero
// Tag is the unset tag of a token Tokenize has not tagged yet.
type Tag uint8

// The tag inventory. TagOF is split from TagIN because the paper's Table 1
// prints the preposition "of" with its own OF tag.
const (
	TagNP   Tag = iota + 1 // proper noun
	TagNN                  // common noun, singular
	TagNNS                 // common noun, plural
	TagCD                  // cardinal number (incl. ordinals such as "12th")
	TagIN                  // preposition
	TagOF                  // the preposition "of"
	TagDT                  // determiner
	TagJJ                  // adjective
	TagRB                  // adverb
	TagVB                  // verb, base form
	TagVBZ                 // verb, 3rd person singular present
	TagVBP                 // verb, non-3rd person present
	TagVBD                 // verb, past tense
	TagVBG                 // verb, gerund
	TagVBN                 // verb, past participle
	TagMD                  // modal
	TagTO                  // infinitival "to"
	TagWP                  // wh-pronoun (what, who, which...)
	TagWRB                 // wh-adverb (when, where, how...)
	TagPRP                 // personal pronoun
	TagPRPS                // possessive pronoun
	TagCC                  // coordinating conjunction
	TagEX                  // existential "there"
	TagSENT                // sentence-final punctuation
	TagPunc                // non-final punctuation (comma, colon, ...)
	TagSYM                 // symbols (%, º, $ ...)
	TagUH                  // interjection
)

// tagNames maps each Tag to its printed name; index 0 is the unset tag.
var tagNames = [...]string{
	"", "NP", "NN", "NNS", "CD", "IN", "OF", "DT", "JJ", "RB", "VB", "VBZ",
	"VBP", "VBD", "VBG", "VBN", "MD", "TO", "WP", "WRB", "PRP", "PRP$", "CC",
	"EX", "SENT", ",", "SYM", "UH",
}

// String returns the tag's name as the paper's traces print it ("NP",
// "PRP$", "," ...); the unset tag prints as "".
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("Tag(%d)", uint8(t))
}

// ParseTag returns the Tag whose String is name. ok is false for a name
// outside the inventory.
func ParseTag(name string) (t Tag, ok bool) {
	for i, n := range tagNames {
		if n == name {
			return Tag(i), true
		}
	}
	return 0, false
}

// IsVerb reports whether the tag denotes a verbal category.
func (t Tag) IsVerb() bool {
	switch t {
	case TagVB, TagVBZ, TagVBP, TagVBD, TagVBG, TagVBN, TagMD:
		return true
	}
	return false
}

// IsNoun reports whether the tag denotes a nominal category (common or
// proper).
func (t Tag) IsNoun() bool {
	switch t {
	case TagNN, TagNNS, TagNP:
		return true
	}
	return false
}

// IsPreposition reports whether the tag is IN or OF.
func (t Tag) IsPreposition() bool { return t == TagIN || t == TagOF }

// IsPunct reports whether the tag is punctuation (final or internal).
func (t Tag) IsPunct() bool { return t == TagSENT || t == TagPunc }

// Token is a single analysed token: surface form, byte offsets into the
// original text, part-of-speech tag and lemma. Fields are ordered so the
// struct packs into 48 bytes (two string headers, two int32 offsets and a
// one-byte tag): restored documents hold one Token per word for as long
// as they stay decoded, so the width is the index's largest heap term.
// Offsets are int32, so analysed text is limited to math.MaxInt32 bytes.
type Token struct {
	Text  string // surface form exactly as it appears in the input
	Lemma string // lemma (lower-cased base form)
	Start int32  // byte offset of the first byte in the input
	End   int32  // byte offset one past the last byte
	Tag   Tag    // part-of-speech tag
}

// String renders the token in the paper's trace format:
// "Term Lexical_type Lemma", e.g. "January NP january".
func (t Token) String() string {
	return fmt.Sprintf("%s %s %s", t.Text, t.Tag, t.Lemma)
}

// IsContentWord reports whether the token belongs to an open class that
// carries meaning for retrieval (nouns, verbs other than auxiliaries,
// adjectives, adverbs, numbers).
func (t Token) IsContentWord() bool {
	switch t.Tag {
	case TagNN, TagNNS, TagNP, TagCD, TagJJ, TagRB,
		TagVB, TagVBZ, TagVBP, TagVBD, TagVBG, TagVBN:
		return t.Lemma != "be" && t.Lemma != "have" && t.Lemma != "do"
	}
	return false
}
