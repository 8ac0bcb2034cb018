package sbparser

import (
	"strings"
	"testing"

	"dwqa/internal/nlp"
)

func parseOne(t *testing.T, text string) []Block {
	t.Helper()
	sents := nlp.SplitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("expected 1 sentence from %q, got %d", text, len(sents))
	}
	return Parse(sents[0])
}

// findNP returns the first NP (directly or inside a PP) whose text
// contains the fragment.
func findNP(blocks []Block, fragment string) *Block {
	var found *Block
	var walk func(b *Block)
	walk = func(b *Block) {
		if found != nil {
			return
		}
		if b.Type == NP && strings.Contains(b.Text(), fragment) {
			found = b
			return
		}
		for i := range b.Children {
			walk(&b.Children[i])
		}
	}
	for i := range blocks {
		walk(&blocks[i])
	}
	return found
}

func TestParsePaperQuery(t *testing.T) {
	// Table 1: "What is the weather like in January of 2004 in El Prat?"
	blocks := parseOne(t, "What is the weather like in January of 2004 in El Prat?")

	weather := findNP(blocks, "weather")
	if weather == nil {
		t.Fatal("no NP for 'the weather'")
	}
	if weather.Sub != SubCommon {
		t.Errorf("'the weather' subtype = %q, want comun", weather.Sub)
	}
	if weather.Role != RoleCompl {
		t.Errorf("'the weather' role = %q, want compl (after VBC)", weather.Role)
	}

	january := findNP(blocks, "January")
	if january == nil {
		t.Fatal("no NP for January")
	}
	if january.Sub != SubDate {
		t.Errorf("January subtype = %q, want date", january.Sub)
	}

	prat := findNP(blocks, "Prat")
	if prat == nil {
		t.Fatal("no NP for El Prat")
	}
	if prat.Sub != SubProperNoun {
		t.Errorf("El Prat subtype = %q, want properNoun", prat.Sub)
	}

	// There must be a VBC for "is".
	hasVBC := false
	for _, b := range blocks {
		if b.Type == VBC {
			hasVBC = true
		}
	}
	if !hasVBC {
		t.Error("no VBC block for 'is'")
	}
}

func TestParsePaperPassage(t *testing.T) {
	// Table 1 passage: "Monday, January 31, 2004 / Barcelona Weather:
	// Temperature 8º C around 46.4 F Clear skies today".
	text := "Monday, January 31, 2004 Barcelona Weather: Temperature 8º C around 46.4 F Clear skies today"
	sents := nlp.SplitSentences(text)
	var blocks []Block
	for _, s := range sents {
		blocks = append(blocks, Parse(s)...)
	}

	if b := findNP(blocks, "Monday"); b == nil {
		t.Error("Monday not in any NP")
	}
	jan := findNP(blocks, "January")
	if jan == nil || jan.Sub != SubDate {
		t.Errorf("January 31, 2004 should be a date NP, got %+v", jan)
	}
	bw := findNP(blocks, "Barcelona")
	if bw == nil || bw.Sub != SubProperNoun {
		t.Errorf("Barcelona Weather should be properNoun, got %+v", bw)
	}
	deg := findNP(blocks, "8")
	if deg == nil {
		t.Fatal("temperature figure 8 º C not chunked")
	}
	if !strings.Contains(deg.Text(), "º") || !strings.Contains(deg.Text(), "C") {
		t.Errorf("temperature NP should include unit: %q", deg.Text())
	}
}

func TestRolesSubjectAndCompl(t *testing.T) {
	blocks := parseOne(t, "The company sold tickets.")
	subj := findNP(blocks, "company")
	if subj == nil || subj.Role != RoleSubject {
		t.Errorf("'the company' should be subject, got %+v", subj)
	}
	obj := findNP(blocks, "tickets")
	if obj == nil || obj.Role != RoleCompl {
		t.Errorf("'tickets' should be compl, got %+v", obj)
	}
}

func TestVerblessSentenceSubjects(t *testing.T) {
	blocks := parseOne(t, "Barcelona Weather: Temperature 8º C")
	bw := findNP(blocks, "Barcelona")
	if bw == nil || bw.Role != RoleSubject {
		t.Errorf("verbless sentence NP should be subject, got %+v", bw)
	}
}

func TestCLEFQuestionBlocks(t *testing.T) {
	// "Which country did Iraq invade in 1990?" → SBs [Iraq][to invade][in 1990].
	blocks := parseOne(t, "Which country did Iraq invade in 1990?")
	iraq := findNP(blocks, "Iraq")
	if iraq == nil || iraq.Sub != SubProperNoun {
		t.Errorf("Iraq should be properNoun NP, got %+v", iraq)
	}
	var pp1990 *Block
	for i := range blocks {
		if blocks[i].Type == PP && strings.Contains(blocks[i].Text(), "1990") {
			pp1990 = &blocks[i]
		}
	}
	if pp1990 == nil {
		t.Fatal("no PP for 'in 1990'")
	}
	inner := pp1990.InnerNP()
	if inner == nil || inner.Sub != SubNumeral && inner.Sub != SubDate {
		t.Errorf("inner NP of 'in 1990' = %+v", inner)
	}
}

func TestHeadNoun(t *testing.T) {
	blocks := parseOne(t, "The last minute sales increased.")
	np := findNP(blocks, "sales")
	if np == nil {
		t.Fatal("no NP found")
	}
	if got := np.HeadNoun().Lemma; got != "sale" {
		t.Errorf("HeadNoun lemma = %q, want sale", got)
	}
}

func TestRenderFormat(t *testing.T) {
	blocks := parseOne(t, "What is the weather like in January of 2004 in El Prat?")
	out := Render(blocks)
	for _, want := range []string{
		"<@VBC> is VBZ be <@/VBC>",
		"<@NP,compl,comun,,> the DT the weather NN weather <@/NP,compl,comun,,>",
		"<@PP> in IN in",
		"January NP january",
		"El NP el Prat NP prat",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
}

func TestExtractDatesCombinesAcrossBlocks(t *testing.T) {
	blocks := parseOne(t, "What is the weather like in January of 2004 in El Prat?")
	dates := ExtractDates(blocks)
	if len(dates) != 1 {
		t.Fatalf("ExtractDates = %v, want one date", dates)
	}
	if dates[0].Year != 2004 || dates[0].Month != 1 || dates[0].Day != 0 {
		t.Errorf("date = %+v, want 2004-01", dates[0])
	}
}

func TestExtractDatesFullDate(t *testing.T) {
	blocks := parseOne(t, "Monday, January 31, 2004 was cold.")
	dates := ExtractDates(blocks)
	if len(dates) != 1 {
		t.Fatalf("ExtractDates = %v", dates)
	}
	d := dates[0]
	if d.Year != 2004 || d.Month != 1 || d.Day != 31 {
		t.Errorf("date = %+v, want 2004-01-31", d)
	}
}

func TestExtractDatesOrdinal(t *testing.T) {
	blocks := parseOne(t, "What is the weather like in John Wayne on the 12th of May, 1997?")
	dates := ExtractDates(blocks)
	if len(dates) == 0 {
		t.Fatal("no dates extracted")
	}
	d := dates[0]
	if d.Month != 5 || d.Day != 12 || d.Year != 1997 {
		t.Errorf("date = %+v, want 1997-05-12", d)
	}
}

func TestDateRefCovers(t *testing.T) {
	monthQuery := DateRef{Year: 2004, Month: 1}
	day := DateRef{Year: 2004, Month: 1, Day: 31}
	if !monthQuery.Covers(day) {
		t.Error("month query should cover a day within it")
	}
	if monthQuery.Covers(DateRef{Year: 2004, Month: 2, Day: 1}) {
		t.Error("month query must not cover another month")
	}
	if (DateRef{}).IsZero() != true {
		t.Error("zero DateRef should be zero")
	}
	if day.Covers(DateRef{Year: 2004, Month: 1}) {
		t.Error("specific day must not cover a whole month")
	}
}

func TestNoBlocksForPunctuationOnly(t *testing.T) {
	sents := nlp.SplitSentences("?!")
	for _, s := range sents {
		for _, b := range Parse(s) {
			if b.Type == NP && len(b.Tokens) == 0 {
				t.Error("empty NP produced")
			}
		}
	}
}

func TestParseTextMultiSentence(t *testing.T) {
	per := ParseText("The weather was mild. Temperatures reached 21 degrees.")
	if len(per) != 2 {
		t.Fatalf("ParseText returned %d sentence parses, want 2", len(per))
	}
	if findNP(per[0], "weather") == nil {
		t.Error("first sentence missing weather NP")
	}
	if findNP(per[1], "21") == nil {
		t.Error("second sentence missing numeric NP")
	}
}

func BenchmarkParse(b *testing.B) {
	sents := nlp.SplitSentences("What is the weather like in January of 2004 in El Prat?")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(sents[0])
	}
}

// TestAnnotationNames pins the names the block annotations print in the
// paper's trace format.
func TestAnnotationNames(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{NP.String(), "NP"}, {PP.String(), "PP"}, {VBC.String(), "VBC"},
		{SubNone.String(), ""}, {SubProperNoun.String(), "properNoun"},
		{SubCommon.String(), "comun"}, {SubDate.String(), "date"},
		{SubNumeral.String(), "numeral"}, {SubDay.String(), "day"},
		{RoleNone.String(), ""}, {RoleSubject.String(), "subject"},
		{RoleCompl.String(), "compl"}, {Role(9).String(), "?9"},
	} {
		if c.got != c.want {
			t.Errorf("annotation prints %q, want %q", c.got, c.want)
		}
	}
}
