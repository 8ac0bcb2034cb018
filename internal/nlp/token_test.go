package nlp

import (
	"testing"
	"unsafe"
)

// TestTokenLayout pins the 48-byte Token (two string headers, two int32
// offsets, a one-byte tag): restored documents hold one per word, so a
// field that widens it shows up directly in the server's live heap.
func TestTokenLayout(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got != 48 {
		t.Errorf("Token is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(Sentence{}); got != 32 {
		t.Errorf("Sentence is %d bytes, want 32", got)
	}
}

// TestTagNamesRoundTrip checks that every tag prints the name the
// paper's traces use and that ParseTag maps the name back — the mapping
// the snapshot tag table relies on.
func TestTagNamesRoundTrip(t *testing.T) {
	want := map[Tag]string{
		TagNP: "NP", TagNN: "NN", TagNNS: "NNS", TagCD: "CD", TagIN: "IN",
		TagOF: "OF", TagDT: "DT", TagJJ: "JJ", TagRB: "RB", TagVB: "VB",
		TagVBZ: "VBZ", TagVBP: "VBP", TagVBD: "VBD", TagVBG: "VBG",
		TagVBN: "VBN", TagMD: "MD", TagTO: "TO", TagWP: "WP", TagWRB: "WRB",
		TagPRP: "PRP", TagPRPS: "PRP$", TagCC: "CC", TagEX: "EX",
		TagSENT: "SENT", TagPunc: ",", TagSYM: "SYM", TagUH: "UH",
	}
	if len(want) != len(tagNames)-1 {
		t.Fatalf("test covers %d tags, inventory has %d", len(want), len(tagNames)-1)
	}
	for tag, name := range want {
		if got := tag.String(); got != name {
			t.Errorf("Tag %d prints %q, want %q", tag, got, name)
		}
		if got, ok := ParseTag(name); !ok || got != tag {
			t.Errorf("ParseTag(%q) = %v, %v; want %v", name, got, ok, tag)
		}
	}
	if _, ok := ParseTag("XYZ"); ok {
		t.Error("ParseTag accepted a name outside the inventory")
	}
	if got := Tag(200).String(); got != "Tag(200)" {
		t.Errorf("out-of-range tag prints %q", got)
	}
}
