package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dwqa/internal/core"
	"dwqa/internal/webcorpus"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

func TestWindowed(t *testing.T) {
	var ss []sample
	for i := 0; i < 30; i++ {
		ss = append(ss, sample{due: time.Duration(i) * 100 * time.Millisecond, status: 200})
	}
	ss = append(ss, sample{due: 5 * time.Second, status: 200}) // past the phase: last window
	ss = append(ss, sample{due: 0, status: 500})               // failed: dropped
	win, width := windowed(ss, 3*time.Second, func(s *sample) time.Duration { return s.due },
		func(s *sample) (float64, bool) { return 1, true })
	if width != 500*time.Millisecond || len(win) != 6 || len(win[0]) != 5 || len(win[4]) != 5 || len(win[5]) != 6 {
		t.Fatalf("%d windows of %v: %v", len(win), width, win)
	}
}

func TestFinite(t *testing.T) {
	nan := math.NaN()
	if got := finite([]float64{1, nan, 3}); fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("finite kept %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: "request", Parent: -1, Start: 0, End: 100},
		{Layer: "qa.answer", Parent: 0, Start: 10, End: 90},
		{Layer: "nlp", Parent: 1, Start: 10, End: 20},
		{Layer: "ir", Parent: 1, Start: 20, End: 60},
	}
	self, calls := selfTimes(spans, nil)
	want := map[string]time.Duration{"request": 20, "qa.answer": 30, "nlp": 10, "ir": 40}
	for l, d := range want {
		if self[l] != d || calls[l] != 1 {
			t.Errorf("%s: self %v calls %d, want %v and 1", l, self[l], calls[l], d)
		}
	}
}

// The truth model must agree with the generators it is built from.
func TestTruthMatchesGenerators(t *testing.T) {
	tt, err := newTruth(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	pg := core.ScaledPage(3, 7)
	k := pageKey{pg.Gold[0].City, pg.Gold[0].Year, pg.Gold[0].Month}
	days := webcorpus.WeatherSeries(k.city, k.year, k.month, 7)
	good := &answerJSON{HasValue: true, Unit: "C", Value: float64(days[4].HighC),
		Date: fmt.Sprintf("%04d-%02d-05", k.year, k.month), URL: pg.URL}
	if why := tt.checkFactoid(k, good); why != "" {
		t.Fatalf("generator's own answer judged wrong: %s", why)
	}
	bad := *good
	bad.Value++
	if tt.checkFactoid(k, &bad) == "" {
		t.Fatal("wrong value judged right")
	}
	bad = *good
	bad.URL = "http://elsewhere.example/"
	if tt.checkFactoid(k, &bad) == "" {
		t.Fatal("wrong page judged right")
	}

	// An average by month over the city's seeded pages.
	spec := &olapSpec{fact: "Weather", measure: "TempC", agg: "avg",
		filters: []olapFilter{{"City/City", []string{k.city}}}, groupBy: []string{"Date/Month"}}
	want := tt.expected(spec, nil)
	var sum float64
	for _, d := range days {
		sum += float64(d.HighC)
	}
	got := want[fmt.Sprintf("%04d-%02d", k.year, k.month)]
	if got.count != len(days) || got.value != sum/float64(len(days)) {
		t.Fatalf("expected cell %+v, want count %d avg %v", got, len(days), sum/float64(len(days)))
	}
	rows := []olapRow{}
	for g, c := range want {
		rows = append(rows, olapRow{Groups: []string{g}, Value: c.value, Count: c.count})
	}
	if !sameTable(rows, want) {
		t.Fatal("a table does not match itself")
	}
	rows[0].Value += 0.5
	if sameTable(rows, want) || tt.tableDefectOnly(spec, rows, want) {
		t.Fatal("a changed value on a prose page matched")
	}

	// Feeds: a scenario month is new only the first time its city is fed.
	fs := []feed{{airport: core.ScenarioAirports[2], month: 1, scaled: k}, {airport: core.ScenarioAirports[3], month: 1, scaled: k}}
	ft := tt.feedTruths(fs)
	if ft[0].newRows[0] != 31 || ft[1].newRows[0] != 0 || ft[1].rows[0] != 31 || ft[0].rows[1] != len(days) || ft[0].newRows[1] != 0 {
		t.Fatalf("feed truths %+v", ft)
	}
}
