// Package sbparser implements the shallow parser of the AliQAn
// reproduction. It replaces SUPAR (reference [3] of the paper): the
// syntactic analysis is partial, producing the Syntactic Blocks (SBs) that
// drive question analysis, passage selection and answer extraction.
//
// Three block types exist, matching the paper's footnote 7: NP (noun
// phrase), PP (prepositional phrase, containing an NP) and VBC (verbal
// head). NPs carry the paper's feature annotations: a role (subject,
// compl) and a subtype (properNoun, comun, date, numeral, day).
package sbparser

import (
	"strconv"
	"strings"

	"dwqa/internal/nlp"
)

// BlockType is the syntactic category of a block. BlockType, SubType and
// Role are one-byte enums whose String is the name the paper's trace
// prints: the QA layer memoizes the parse of every corpus sentence it
// reads, so the width of Block is a live-heap term.
type BlockType uint8

// Block types.
const (
	NP  BlockType = iota + 1 // noun phrase
	PP                       // prepositional phrase
	VBC                      // verbal chunk (verbal head)
)

// String returns the block type's name ("NP", "PP", "VBC").
func (t BlockType) String() string { return enumName(blockTypeNames[:], int(t)) }

var blockTypeNames = [...]string{"", "NP", "PP", "VBC"}

// SubType is the paper's NP subtype annotation. "comun" (sic) follows the
// paper's own spelling in Table 1.
type SubType uint8

// NP subtypes.
const (
	SubNone       SubType = iota // ""
	SubProperNoun                // "properNoun"
	SubCommon                    // "comun"
	SubDate                      // "date"
	SubNumeral                   // "numeral"
	SubDay                       // "day"
)

// String returns the subtype's annotation name; SubNone prints as "".
func (s SubType) String() string { return enumName(subTypeNames[:], int(s)) }

var subTypeNames = [...]string{"", "properNoun", "comun", "date", "numeral", "day"}

// Role is the grammatical function annotation of an NP.
type Role uint8

// NP roles.
const (
	RoleNone    Role = iota // ""
	RoleSubject             // "subject"
	RoleCompl               // "compl"
)

// String returns the role's annotation name; RoleNone prints as "".
func (r Role) String() string { return enumName(roleNames[:], int(r)) }

var roleNames = [...]string{"", "subject", "compl"}

// enumName returns names[i], or a numeric placeholder for a value
// outside the table.
func enumName(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return "?" + strconv.Itoa(i)
}

// Block is one syntactic block: a typed span of tokens. A PP embeds the
// NP (and possibly further PPs) it governs as children; its own Tokens
// hold only the preposition.
type Block struct {
	Type     BlockType
	Sub      SubType
	Role     Role
	Tokens   []nlp.Token
	Children []Block
}

// Text returns the surface text of the block including children.
func (b Block) Text() string {
	var parts []string
	for _, t := range b.Tokens {
		parts = append(parts, t.Text)
	}
	for _, c := range b.Children {
		parts = append(parts, c.Text())
	}
	return strings.Join(parts, " ")
}

// Lemmas returns all lemmas in the block and its children.
func (b Block) Lemmas() []string {
	var out []string
	for _, t := range b.Tokens {
		out = append(out, t.Lemma)
	}
	for _, c := range b.Children {
		out = append(out, c.Lemmas()...)
	}
	return out
}

// ContentLemmas returns the lemmas of content tokens, stopwords excluded.
func (b Block) ContentLemmas() []string {
	var out []string
	for _, t := range b.Tokens {
		if t.IsContentWord() && !nlp.IsStopword(t.Lemma) {
			out = append(out, t.Lemma)
		}
	}
	for _, c := range b.Children {
		out = append(out, c.ContentLemmas()...)
	}
	return out
}

// HeadNoun returns the head of an NP: the last nominal token ("as head we
// mean ... the word that determines the syntactic type of the phrase",
// footnote 2 of the paper). Empty for non-NPs without nominal tokens.
func (b Block) HeadNoun() nlp.Token {
	var head nlp.Token
	for _, t := range b.Tokens {
		if t.Tag.IsNoun() {
			head = t
		}
	}
	return head
}

// InnerNP returns the NP governed by a PP (possibly nested), or the block
// itself when it already is an NP. Returns nil when none exists.
func (b *Block) InnerNP() *Block {
	if b.Type == NP {
		return b
	}
	for i := range b.Children {
		if np := b.Children[i].InnerNP(); np != nil {
			return np
		}
	}
	return nil
}

// Parse chunks one analysed sentence into syntactic blocks.
func Parse(sent nlp.Sentence) []Block {
	toks := sent.Tokens
	var blocks []Block
	i := 0
	// Track whether a VBC has been produced yet, for role assignment.
	firstVBCAt := -1
	for j, t := range toks {
		if t.Tag.IsVerb() {
			firstVBCAt = j
			break
		}
	}
	for i < len(toks) {
		t := toks[i]
		switch {
		case t.Tag.IsVerb():
			j := i
			for j < len(toks) && (toks[j].Tag.IsVerb() || toks[j].Tag == nlp.TagRB || toks[j].Tag == nlp.TagTO) {
				j++
			}
			blocks = append(blocks, Block{Type: VBC, Tokens: toks[i:j]})
			i = j
		case t.Tag.IsPreposition() || t.Tag == nlp.TagTO:
			// PP: preposition + following NP (if any).
			pp := Block{Type: PP, Tokens: toks[i : i+1]}
			i++
			if np, next := scanNP(toks, i); np != nil {
				pp.Children = append(pp.Children, *np)
				i = next
			}
			blocks = append(blocks, pp)
		default:
			if np, next := scanNP(toks, i); np != nil {
				*np = annotateRole(*np, blocks, firstVBCAt, posOf(toks, np.Tokens[0]))
				blocks = append(blocks, *np)
				i = next
				continue
			}
			// Token outside any block (punctuation, stray adjective...).
			i++
		}
	}
	return blocks
}

func posOf(toks []nlp.Token, t nlp.Token) int {
	for i := range toks {
		if toks[i].Start == t.Start {
			return i
		}
	}
	return -1
}

// scanNP tries to read a noun phrase starting at i: optional determiner,
// adjectives, then one or more nominal tokens (nouns, proper nouns,
// numbers, the degree marker). Returns nil when no NP starts here.
func scanNP(toks []nlp.Token, i int) (*Block, int) {
	j := i
	// Optional determiner.
	if j < len(toks) && toks[j].Tag == nlp.TagDT {
		j++
	}
	// Adjectives.
	for j < len(toks) && toks[j].Tag == nlp.TagJJ {
		j++
	}
	// Nominal core.
	core := j
	for j < len(toks) && isNominal(toks[j]) {
		j++
	}
	if j == core {
		return nil, i
	}
	np := Block{Type: NP, Tokens: toks[i:j]}
	np.Sub = classifyNP(np.Tokens)
	return &np, j
}

// isNominal reports whether a token can belong to the nominal core of an
// NP. The degree marker "º" joins ("8 º C" is one NP in the paper).
func isNominal(t nlp.Token) bool {
	if t.Tag.IsNoun() || t.Tag == nlp.TagCD {
		return true
	}
	return t.Text == "º" || t.Text == "°"
}

// classifyNP derives the paper's NP subtype from the token mix.
func classifyNP(toks []nlp.Token) SubType {
	hasMonth, hasDayName, hasCD, hasNP, hasNoun := false, false, false, false, false
	for _, t := range toks {
		lower := strings.ToLower(t.Text)
		if _, ok := nlp.IsMonthName(lower); ok {
			hasMonth = true
		}
		if nlp.IsDayName(lower) {
			hasDayName = true
		}
		switch t.Tag {
		case nlp.TagCD:
			hasCD = true
		case nlp.TagNP:
			hasNP = true
		case nlp.TagNN, nlp.TagNNS:
			hasNoun = true
		}
	}
	switch {
	case hasDayName && !hasMonth:
		return SubDay
	case hasMonth && hasCD, hasDayName && hasMonth:
		return SubDate
	case hasMonth:
		return SubDate
	case hasCD && !hasNP && !hasNoun:
		return SubNumeral
	case hasNP:
		return SubProperNoun
	default:
		return SubCommon
	}
}

// annotateRole assigns subject/compl following the positional heuristics
// of the paper's traces: NPs before the first verbal chunk (or in verbless
// sentences) are subjects; the NP immediately after a VBC is a complement.
func annotateRole(np Block, prior []Block, firstVBCAt, npTokenPos int) Block {
	if firstVBCAt == -1 || npTokenPos < firstVBCAt {
		np.Role = RoleSubject
		return np
	}
	if n := len(prior); n > 0 && prior[n-1].Type == VBC {
		np.Role = RoleCompl
	}
	return np
}

// ParseText analyses raw text and parses every sentence.
func ParseText(text string) [][]Block {
	sents := nlp.SplitSentences(text)
	out := make([][]Block, len(sents))
	for i, s := range sents {
		out[i] = Parse(s)
	}
	return out
}

// Render produces the paper's trace annotation for a block list, e.g.
// "<@NP,compl,comun,,> the DT the weather NN weather <@/NP,compl,comun,,>".
func Render(blocks []Block) string {
	var b strings.Builder
	for i, blk := range blocks {
		if i > 0 {
			b.WriteByte(' ')
		}
		renderBlock(&b, blk)
	}
	return b.String()
}

func renderBlock(b *strings.Builder, blk Block) {
	switch blk.Type {
	case PP:
		b.WriteString("<@PP>")
		for _, t := range blk.Tokens {
			b.WriteByte(' ')
			b.WriteString(t.String())
		}
		for _, c := range blk.Children {
			b.WriteByte(' ')
			renderBlock(b, c)
		}
		b.WriteString(" <@/PP>")
	case VBC:
		b.WriteString("<@VBC>")
		for _, t := range blk.Tokens {
			b.WriteByte(' ')
			b.WriteString(t.String())
		}
		b.WriteString(" <@/VBC>")
	default:
		tag := "<@NP," + blk.Role.String() + "," + blk.Sub.String() + ",,>"
		b.WriteString(tag)
		for _, t := range blk.Tokens {
			b.WriteByte(' ')
			b.WriteString(t.String())
		}
		b.WriteString(" <@/NP," + blk.Role.String() + "," + blk.Sub.String() + ",,>")
	}
}

// DateRef is a (possibly partial) calendar date mentioned in text. Zero
// fields are unknown.
type DateRef struct {
	Year  int
	Month int
	Day   int
}

// IsZero reports whether nothing was recognised.
func (d DateRef) IsZero() bool { return d.Year == 0 && d.Month == 0 && d.Day == 0 }

// Covers reports whether d is compatible with other: every field known in
// d matches other (month/year queries cover specific days).
func (d DateRef) Covers(other DateRef) bool {
	if d.Year != 0 && d.Year != other.Year {
		return false
	}
	if d.Month != 0 && d.Month != other.Month {
		return false
	}
	if d.Day != 0 && d.Day != other.Day {
		return false
	}
	return true
}

// ExtractDates finds date references across a block sequence. Date parts
// split across adjacent blocks are combined — "in January of 2004" parses
// as PP(January)+PP(2004) and yields one DateRef{2004,1,0}.
func ExtractDates(blocks []Block) []DateRef {
	var refs []DateRef
	cur := DateRef{}
	flush := func() {
		if !cur.IsZero() && (cur.Year != 0 || cur.Month != 0) {
			refs = append(refs, cur)
		}
		cur = DateRef{}
	}
	var walk func(blk Block)
	walk = func(blk Block) {
		if blk.Type == NP {
			sawPart := false
			for _, t := range blk.Tokens {
				lower := strings.ToLower(t.Text)
				if m, ok := nlp.IsMonthName(lower); ok {
					if cur.Month != 0 {
						flush()
					}
					cur.Month = m
					sawPart = true
					continue
				}
				if t.Tag == nlp.TagCD {
					if n, ok := parseCD(t.Text); ok {
						switch {
						case n >= 1500 && n <= 2200:
							if cur.Year != 0 {
								flush()
							}
							cur.Year = n
							sawPart = true
						case n >= 1 && n <= 31 && cur.Day == 0:
							// The day may precede the month ("the 12th of
							// May"); keep it tentatively — flush discards
							// it unless a month or year joins.
							cur.Day = n
							sawPart = true
						}
					}
				}
			}
			_ = sawPart
			return
		}
		for _, c := range blk.Children {
			walk(c)
		}
	}
	for _, blk := range blocks {
		walk(blk)
	}
	flush()
	return refs
}

// parseCD parses a cardinal token ("31", "12th", "46.4") as an integer
// when it is a whole number.
func parseCD(text string) (int, bool) {
	text = strings.TrimSuffix(text, "st")
	text = strings.TrimSuffix(text, "nd")
	text = strings.TrimSuffix(text, "rd")
	text = strings.TrimSuffix(text, "th")
	n, err := strconv.Atoi(text)
	if err != nil {
		return 0, false
	}
	return n, true
}
