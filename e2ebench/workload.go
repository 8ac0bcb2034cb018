package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dwqa/internal/core"
)

// A question is one distinct question of a workload's universe, with
// what the truth checker needs to judge its answer.
type question struct {
	text string
	body []byte // pre-encoded POST /ask body
	// Factoid questions name one page of the scaled grid.
	factoid bool
	page    pageKey
	// Analytic questions carry the plan the generator intends; the
	// truth model evaluates it over its own copy of the facts.
	spec *olapSpec
}

// pageKey identifies one scaled-corpus page: a city's month.
type pageKey struct {
	city        string
	year, month int
}

// A feed is one POST /harvest request: a scenario-airport question
// (whose city the warehouse has no weather for yet) paired with a
// scaled-corpus city question (whose records the seeder already loaded).
type feed struct {
	scenarioQ string
	airport   core.Airport
	month     int // of scenarioYear
	scaledQ   string
	scaled    pageKey
	body      []byte
}

// scenarioYear is the year of the scenario's weather pages (the
// pipeline's default configuration).
const scenarioYear = 2004

// workloadSpec is one workload's traffic shape.
type workloadSpec struct {
	name string
	why  string
	// rate is the open-loop offered load in requests per second.
	rate float64
	// feedsUnderLoad spaces the feeds through the open-loop phase;
	// otherwise they run alone after the closed-loop phase.
	feedsUnderLoad bool
}

// workloads are the traffic mixes a run can drive. BENCHMARK.json lists
// factoid_cold and analytic_feed only, so that measuring every listed
// workload a few dozen times stays within an hour at about 45 s a run
// (two seeded set-ups, a warm-up over the whole universe, 15 measured
// seconds); mixed_hot stays runnable by name.
var workloads = []workloadSpec{
	{name: "factoid_cold", rate: 300,
		why: "uniform factoid questions over the whole scaled grid, ~6.7k distinct against a 1,024-entry cache: nlp, ir and qa do the work, cache and OLAP almost none"},
	{name: "mixed_hot", rate: 1500,
		why: "3:1 factoid to analytic, Zipf-skewed over 320 questions that fit in the cache: the engine's HTTP, JSON and cache path; an ir, qa or dw change should not move it"},
	{name: "analytic_feed", rate: 300, feedsUnderLoad: true,
		why: "3:1 analytic to factoid over ~3.8k questions, more than the cache holds, with 21 Step 5 feeds through the WAL spaced through the load: writes beside reads"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// traffic is everything a run sends, generated from the seed before
// anything is timed: the question universe (warm-up covers all of it),
// a draw function for the request stream, and the feeds.
type traffic struct {
	questions []question
	// stream holds question indices; the open loop sends a prefix, the
	// closed loop continues after it, the traced replay repeats the
	// open-loop prefix.
	stream []int
	feeds  []feed
}

// grid describes the scaled corpus the seeder produced: pages
// 0..pages-1 of core.ScaledPage's enumeration.
type grid struct {
	pages []pageKey
}

func factoidText(k pageKey) string {
	return fmt.Sprintf("What is the weather like in %s of %d in %s?", time.Month(k.month), k.year, k.city)
}

func askBody(text string) []byte {
	b, err := json.Marshal(map[string]string{"question": text})
	if err != nil {
		panic(err) // a string map always marshals
	}
	return b
}

// buildTraffic generates a workload's universe, stream and feeds from
// the seed. streamLen bounds how many requests any phase can send.
func buildTraffic(w workloadSpec, g grid, seed int64, streamLen int) *traffic {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{}
	add := func(q question) int {
		q.body = askBody(q.text)
		t.questions = append(t.questions, q)
		return len(t.questions) - 1
	}
	addFactoid := func(k pageKey) int {
		return add(question{text: factoidText(k), factoid: true, page: k})
	}
	addAnalytic := func(text string, s *olapSpec) int {
		return add(question{text: text, spec: s})
	}

	switch w.name {
	case "factoid_cold":
		for _, k := range g.pages {
			addFactoid(k)
		}
		for i := 0; i < streamLen; i++ {
			t.stream = append(t.stream, rng.Intn(len(t.questions)))
		}
	case "mixed_hot":
		// 240 factoid and 80 analytic questions: 320 distinct, well
		// inside the 1,024-entry answer cache.
		var fact, anal []int
		for _, i := range rng.Perm(len(g.pages))[:240] {
			fact = append(fact, addFactoid(g.pages[i]))
		}
		universe := analyticUniverse(g)
		for _, i := range rng.Perm(len(universe))[:80] {
			anal = append(anal, addAnalytic(universe[i].text, universe[i].spec))
		}
		zf := rand.NewZipf(rng, 1.1, 1, uint64(len(fact)-1))
		za := rand.NewZipf(rng, 1.1, 1, uint64(len(anal)-1))
		for i := 0; i < streamLen; i++ {
			if rng.Intn(4) < 3 {
				t.stream = append(t.stream, fact[zf.Uint64()])
			} else {
				t.stream = append(t.stream, anal[za.Uint64()])
			}
		}
	case "analytic_feed":
		// The factoid quarter draws from 2,000 random grid pages: with
		// the ~1.8k analytic questions the universe is still 3.7 times
		// the cache, and warming it up costs half of the whole grid.
		var fact, anal []int
		for _, i := range rng.Perm(len(g.pages))[:2000] {
			fact = append(fact, addFactoid(g.pages[i]))
		}
		for _, a := range analyticUniverse(g) {
			anal = append(anal, addAnalytic(a.text, a.spec))
		}
		for i := 0; i < streamLen; i++ {
			if rng.Intn(4) < 3 {
				t.stream = append(t.stream, anal[rng.Intn(len(anal))])
			} else {
				t.stream = append(t.stream, fact[rng.Intn(len(fact))])
			}
		}
	default:
		panic("unknown workload " + w.name)
	}
	t.feeds = buildFeeds(rng, g)
	return t
}

// buildFeeds pairs each of the 21 scenario-airport harvest questions
// (7 airports × 3 months), in a seeded order, with a harvest question
// for a random scaled-corpus page. The scaled halves keep the known
// Step 5 defect visible: their records are rejected with "no location".
func buildFeeds(rng *rand.Rand, g grid) []feed {
	var out []feed
	for _, a := range core.ScenarioAirports {
		for month := 1; month <= 3; month++ {
			out = append(out, feed{airport: a, month: month})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		f := &out[i]
		f.scenarioQ = fmt.Sprintf("What is the weather like in %s of %d in %s?",
			time.Month(f.month), scenarioYear, f.airport.Name)
		f.scaled = g.pages[rng.Intn(len(g.pages))]
		f.scaledQ = factoidText(f.scaled)
		b, err := json.Marshal(map[string][]string{"questions": {f.scenarioQ, f.scaledQ}})
		if err != nil {
			panic(err)
		}
		f.body = b
	}
	return out
}

// analyticQ is one analytic question of the universe.
type analyticQ struct {
	text string
	spec *olapSpec
}

var aggWords = []struct {
	word string
	agg  string
}{{"average", "avg"}, {"minimum", "min"}, {"maximum", "max"}}

// scenarioCities are the cities the Step 5 feeds load weather for.
var scenarioCities = []string{"Barcelona", "Bilbao", "Costa Mesa", "Madrid", "New York", "Seville"}

// analyticUniverse enumerates the analytic questions the workloads
// draw from: temperature aggregates per scaled city by month and by
// year, per city-year by month, per month across cities, the same
// aggregates for the scenario cities the feeds fill, and the scenario's
// canonical analytic workload (core.AnalyticQuestions).
func analyticUniverse(g grid) []analyticQ {
	var out []analyticQ
	add := func(text string, s *olapSpec) { out = append(out, analyticQ{text, s}) }
	cities, years, months := g.axes()
	weather := func(agg string, filters []olapFilter, by ...string) *olapSpec {
		return &olapSpec{fact: "Weather", measure: "TempC", agg: agg, filters: filters, groupBy: by}
	}
	city := func(c string) olapFilter { return olapFilter{"City/City", []string{c}} }
	// The first 100 cities (all with pages in every year) bound the
	// warm-up; the universe stays larger than the cache.
	for _, c := range cities[:min(100, len(cities))] {
		for _, a := range aggWords {
			add(fmt.Sprintf("What is the %s temperature in %s by month?", a.word, c),
				weather(a.agg, []olapFilter{city(c)}, "Date/Month"))
			add(fmt.Sprintf("What is the %s temperature in %s by year?", a.word, c),
				weather(a.agg, []olapFilter{city(c)}, "Date/Year"))
			for _, y := range years {
				add(fmt.Sprintf("%s temperature in %s in %d by month", capitalize(a.word), c, y),
					weather(a.agg, []olapFilter{city(c), {"Date/Year", []string{fmt.Sprintf("%04d", y)}}}, "Date/Month"))
			}
		}
		add(fmt.Sprintf("Count of weather observations in %s by year", c),
			weather("count", []olapFilter{city(c)}, "Date/Year"))
		add(fmt.Sprintf("Count of weather observations in %s by month", c),
			weather("count", []olapFilter{city(c)}, "Date/Month"))
	}
	for _, ym := range months {
		add(fmt.Sprintf("Average temperature by city in %s of %d", time.Month(ym[1]), ym[0]),
			weather("avg", []olapFilter{{"Date/Month", []string{fmt.Sprintf("%04d-%02d", ym[0], ym[1])}}}, "City/City"))
	}
	for _, c := range scenarioCities {
		for _, a := range aggWords {
			add(fmt.Sprintf("What is the %s temperature in %s by month?", a.word, c),
				weather(a.agg, []olapFilter{city(c)}, "Date/Month"))
		}
	}
	for _, text := range core.AnalyticQuestions() {
		add(text, canonicalSpecs[text])
	}
	return out
}

// canonicalSpecs is the intended plan of each core.AnalyticQuestions
// question, written by hand from the question text.
var canonicalSpecs = map[string]*olapSpec{
	"What is the average temperature in Barcelona by month?": {fact: "Weather", measure: "TempC", agg: "avg",
		filters: []olapFilter{{"City/City", []string{"Barcelona"}}}, groupBy: []string{"Date/Month"}},
	"Total last-minute revenue per destination city in January": {fact: "LastMinuteSales", measure: "Price", agg: "sum",
		filters: []olapFilter{{"Date/Month", []string{"2004-01"}}}, groupBy: []string{"Destination/City"}},
	"How many tickets were sold to Barcelona in January of 2004?": {fact: "LastMinuteSales", agg: "count",
		filters: []olapFilter{{"Date/Month", []string{"2004-01"}}, {"Destination/City", []string{"Barcelona"}}}},
	"Average price by destination country and month": {fact: "LastMinuteSales", measure: "Price", agg: "avg",
		groupBy: []string{"Destination/Country", "Date/Month"}},
	"Number of flights per departure airport": {fact: "LastMinuteSales", agg: "count",
		groupBy: []string{"Departure/Airport"}},
	"count of weather observations by city": {fact: "Weather", agg: "count", groupBy: []string{"City/City"}},
}

func capitalize(s string) string { return strings.ToUpper(s[:1]) + s[1:] }

// axes returns the grid's cities (enumeration order), years and
// (year, month) pairs.
func (g grid) axes() (cities []string, years []int, months [][2]int) {
	seenC, seenY, seenM := map[string]bool{}, map[int]bool{}, map[[2]int]bool{}
	for _, k := range g.pages {
		if !seenC[k.city] {
			seenC[k.city] = true
			cities = append(cities, k.city)
		}
		if !seenY[k.year] {
			seenY[k.year] = true
			years = append(years, k.year)
		}
		ym := [2]int{k.year, k.month}
		if !seenM[ym] {
			seenM[ym] = true
			months = append(months, ym)
		}
	}
	return cities, years, months
}
