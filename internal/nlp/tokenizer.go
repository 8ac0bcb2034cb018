package nlp

import (
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into raw tokens with byte offsets. It keeps decimal
// numbers ("46.4") and hyphenated words together, splits trailing
// punctuation, and separates measurement symbols so that "8ºC" becomes the
// three tokens "8", "º", "C" exactly as the paper's Table 1 analyses it.
func Tokenize(text string) []Token {
	var toks []Token
	i := 0
	n := len(text)
	for i < n {
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case isDigit(r):
			j := i + size
			seenDot := false
			for j < n {
				r2, s2 := utf8.DecodeRuneInString(text[j:])
				if isDigit(r2) {
					j += s2
					continue
				}
				// Keep a single interior decimal point: "46.4".
				if (r2 == '.' || r2 == ',') && !seenDot && j+s2 < n {
					r3, _ := utf8.DecodeRuneInString(text[j+s2:])
					if isDigit(r3) {
						seenDot = true
						j += s2
						continue
					}
				}
				break
			}
			// Ordinal suffixes: 12th, 1st, 2nd, 3rd stay one token (CD).
			j = absorbOrdinal(text, j)
			toks = append(toks, Token{Text: text[i:j], Start: int32(i), End: int32(j)})
			i = j
		case isWordRune(r):
			j := i + size
			for j < n {
				r2, s2 := utf8.DecodeRuneInString(text[j:])
				if isWordRune(r2) {
					j += s2
					continue
				}
				// Interior hyphen or apostrophe between letters stays.
				if (r2 == '-' || r2 == '\'') && j+s2 < n {
					r3, _ := utf8.DecodeRuneInString(text[j+s2:])
					if isWordRune(r3) {
						j += s2
						continue
					}
				}
				break
			}
			toks = append(toks, Token{Text: text[i:j], Start: int32(i), End: int32(j)})
			i = j
		default:
			// Punctuation and symbols: one token per rune (º, %, ?, ...).
			toks = append(toks, Token{Text: text[i : i+size], Start: int32(i), End: int32(i + size)})
			i += size
		}
	}
	return toks
}

// absorbOrdinal extends a digit run over an English ordinal suffix.
func absorbOrdinal(text string, j int) int {
	for _, suf := range [...]string{"st", "nd", "rd", "th"} {
		if len(text) >= j+len(suf) && text[j:j+len(suf)] == suf {
			// Only when not followed by further letters ("12those" stays split).
			k := j + len(suf)
			if k >= len(text) {
				return k
			}
			r, _ := utf8.DecodeRuneInString(text[k:])
			if !isWordRune(r) {
				return k
			}
		}
	}
	return j
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

func isWordRune(r rune) bool {
	// The ordinal indicators º/ª are Unicode letters but act as measurement
	// symbols in weather text ("8ºC"); keep them as standalone tokens.
	if r == 'º' || r == 'ª' || r == '°' {
		return false
	}
	return unicode.IsLetter(r) || r == '_'
}
