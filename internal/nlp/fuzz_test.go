package nlp

import (
	"testing"
	"unicode/utf8"
)

// fuzzSeeds are drawn from the paper's example questions and trace
// passages (Table 1, Figure 4/5, the CLEF query of §2) plus adversarial
// shapes for the tokenizer's number/ordinal/symbol handling.
var fuzzSeeds = []string{
	"What is the weather like in January of 2004 in El Prat?",
	"Which country did Iraq invade in 1990?",
	"What is Sirius?",
	"How hot is it in Barcelona in February of 2004?",
	"Barcelona Weather: Temperature 7º C around 44.6 F Light rain today",
	"High (ºC) 8 Low -2 Monday, January 31, 2004",
	"Temperature -4º C on the 12th of May",
	"46.4 F equals 8ºC; 100,5 is a decimal too",
	"the 1st, 2nd, 3rd and 12th of May 2004",
	"a-b-c it's O'Brien's 3.14159 …",
	"ºººº °° ª 8º9º10",
	"",
	" \t\n ",
	"12those 12th 12thx",
	"\xff\xfe invalid utf8 \xc3\x28",
}

// FuzzTokenize asserts the tokenizer's structural invariants on arbitrary
// input: every token spans valid, in-bounds, strictly increasing byte
// offsets and reproduces its slice of the input; the full analysis and
// sentence-splitting paths must not panic and sentences must cover their
// tokens.
func FuzzTokenize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		toks := Tokenize(text)
		prevEnd := int32(0)
		for i, tok := range toks {
			if tok.Text == "" {
				t.Fatalf("token %d is empty", i)
			}
			if tok.Start < prevEnd || tok.End <= tok.Start || int(tok.End) > len(text) {
				t.Fatalf("token %d has bad span [%d,%d) after %d in text of %d bytes",
					i, tok.Start, tok.End, prevEnd, len(text))
			}
			if text[tok.Start:tok.End] != tok.Text {
				t.Fatalf("token %d text %q does not match span %q",
					i, tok.Text, text[tok.Start:tok.End])
			}
			prevEnd = tok.End
		}

		// The tagged/lemmatised path must not panic and must keep spans.
		analyzed := Analyze(text)
		if len(analyzed) != len(toks) {
			t.Fatalf("Analyze returned %d tokens, Tokenize %d", len(analyzed), len(toks))
		}
		for i, tok := range analyzed {
			if utf8.ValidString(text) && tok.Lemma == "" && tok.Text != "" {
				t.Fatalf("token %d (%q) has empty lemma", i, tok.Text)
			}
		}

		// Sentences partition the tokens in order.
		total := 0
		for _, s := range SplitSentences(text) {
			if len(s.Tokens) == 0 {
				t.Fatal("empty sentence")
			}
			if s.Start != s.Tokens[0].Start || s.End != s.Tokens[len(s.Tokens)-1].End {
				t.Fatalf("sentence span [%d,%d) disagrees with its tokens", s.Start, s.End)
			}
			_ = s.Text()
			_ = s.ContentLemmas()
			total += len(s.Tokens)
		}
		if total != len(toks) {
			t.Fatalf("sentences hold %d tokens, tokenizer produced %d", total, len(toks))
		}
	})
}
