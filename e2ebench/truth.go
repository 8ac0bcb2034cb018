package main

import (
	"fmt"
	"math"
	"strings"

	"dwqa/internal/core"
	"dwqa/internal/webcorpus"
)

// The truth model: the benchmark's own copy of every fact the server
// can answer from, built from the generators (webcorpus.WeatherSeries
// through core.ScaledPage, and the scenario's sales generator through
// core.PopulateScenario), never from the server's warehouse. Answers are
// judged against it; all expected values are computed before any timed
// phase starts.

// olapSpec is the plan a question is meant to compile to, in the
// server's "Role/Level" naming.
type olapSpec struct {
	fact    string
	measure string // empty for count
	agg     string // avg, sum, min, max, count
	filters []olapFilter
	groupBy []string
}

type olapFilter struct {
	level  string
	values []string
}

// touchesScenario reports whether the answer depends on which Step 5
// feeds have landed (the scenario cities' weather starts empty).
func (s *olapSpec) touchesScenario() bool {
	if s.fact != "Weather" {
		return false
	}
	for _, f := range s.filters {
		if f.level == "Date/Month" || f.level == "Date/Year" {
			in := false
			for _, v := range f.values {
				in = in || strings.HasPrefix(v, fmt.Sprint(scenarioYear))
			}
			if !in {
				return false
			}
		}
	}
	for _, f := range s.filters {
		if f.level == "City/City" {
			for _, v := range f.values {
				if isScenarioCity(v) {
					return true
				}
			}
			return false
		}
	}
	return true // unfiltered by city: a by-city or by-date roll-up over everything
}

func isScenarioCity(c string) bool {
	for _, s := range scenarioCities {
		if s == c {
			return true
		}
	}
	return false
}

// fact is one row of a truth fact table. Weather rows (204k of them)
// keep their levels in fields with interned month and year keys; the
// few thousand sales rows use maps.
type fact struct {
	city, month, year string
	y, m, d           int
	temp              float64
	levels            map[string]string  // sales rows only
	measures          map[string]float64 // sales rows only
}

func (f *fact) level(name string) string {
	if f.levels != nil {
		return f.levels[name]
	}
	switch name {
	case "City/City":
		return f.city
	case "Date/Month":
		return f.month
	case "Date/Year":
		return f.year
	case "Date/Day":
		return fmt.Sprintf("%04d-%02d-%02d", f.y, f.m, f.d)
	}
	return ""
}

func (f *fact) measure(name string) float64 {
	if f.measures != nil {
		return f.measures[name]
	}
	return f.temp
}

// table is an expected OLAP result: group key → (value, count).
type table map[string]cell

type cell struct {
	value float64
	count int
}

func groupKey(groups []string) string { return strings.Join(groups, "\x1f") }

// pageTruth is one scaled-corpus page: its URL and daily highs.
type pageTruth struct {
	url   string
	highs []int // index day-1
}

// truth holds the models.
type truth struct {
	pages map[pageKey]*pageTruth
	grid  grid

	weather       []fact // seeded gold records
	weatherByCity map[string][]int
	weatherByMon  map[string][]int     // "YYYY-MM" → indices
	scenario      map[[2]string][]fact // (city, month) → the month's gold records
	scenarioDays  map[[2]string]int
	// tablePages marks the scenario (city, month) pages rendered as
	// Figure 5 tables. Step 5 reads their low and high columns
	// interchangeably (the layout failure mode the paper reports), so
	// the temperatures it loads for those months are not the highs.
	tablePages map[[2]string]bool
	sales      []fact
}

// newTruth builds the models for a seeder run that ingested `pages`
// pages of the scaled grid generated with gridSeed.
func newTruth(pages int, gridSeed int64) (*truth, error) {
	t := &truth{
		pages:         map[pageKey]*pageTruth{},
		weatherByCity: map[string][]int{},
		weatherByMon:  map[string][]int{},
		scenario:      map[[2]string][]fact{},
		scenarioDays:  map[[2]string]int{},
		tablePages:    map[[2]string]bool{},
	}
	for i := 0; i < pages; i++ {
		pg := core.ScaledPage(i, gridSeed)
		if len(pg.Gold) == 0 {
			return nil, fmt.Errorf("scaled page %d has no gold records", i)
		}
		g0 := pg.Gold[0]
		k := pageKey{city: g0.City, year: g0.Year, month: g0.Month}
		pt := &pageTruth{url: pg.URL}
		for _, g := range pg.Gold {
			pt.highs = append(pt.highs, int(g.TempC))
			f := weatherFact(g.City, g.Year, g.Month, g.Day, g.TempC)
			t.weatherByCity[g.City] = append(t.weatherByCity[g.City], len(t.weather))
			t.weatherByMon[f.month] = append(t.weatherByMon[f.month], len(t.weather))
			t.weather = append(t.weather, f)
		}
		t.pages[k] = pt
		t.grid.pages = append(t.grid.pages, k)
	}
	// The scenario corpus is generated with the data directory's
	// scenario seed (0: the seeder writes core.Config{}).
	for _, city := range scenarioCities {
		for month := 1; month <= 3; month++ {
			key := [2]string{city, fmt.Sprint(month)}
			for _, d := range webcorpus.WeatherSeries(city, scenarioYear, month, 0) {
				t.scenario[key] = append(t.scenario[key], weatherFact(city, d.Year, d.Month, d.Day, float64(d.HighC)))
			}
			t.scenarioDays[key] = len(t.scenario[key])
		}
	}
	ccfg := webcorpus.DefaultConfig() // the pipeline's corpus, with the directory's seed
	ccfg.Seed = 0
	for _, pg := range webcorpus.Build(ccfg).Pages {
		if strings.Contains(pg.URL, "layout=table") && len(pg.Gold) > 0 {
			t.tablePages[[2]string{pg.Gold[0].City, fmt.Sprint(pg.Gold[0].Month)}] = true
		}
	}
	rec := &salesRecorder{cityOf: map[string]string{}, countryOf: map[string]string{}, parent: map[[2]string]string{}}
	if err := core.PopulateScenario(rec, scenarioYear, []int{1, 2, 3}, 0); err != nil {
		return nil, fmt.Errorf("regenerating the scenario sales: %w", err)
	}
	t.sales = rec.facts
	return t, nil
}

// dateKeys interns the "YYYY-MM" and "YYYY" member names.
var dateKeys = map[[2]int][2]string{}

func weatherFact(city string, y, m, d int, temp float64) fact {
	k, ok := dateKeys[[2]int{y, m}]
	if !ok {
		k = [2]string{fmt.Sprintf("%04d-%02d", y, m), fmt.Sprintf("%04d", y)}
		dateKeys[[2]int{y, m}] = k
	}
	return fact{city: city, month: k[0], year: k[1], y: y, m: m, d: d, temp: temp}
}

// salesRecorder captures the scenario generator's members and sales
// facts (a core.ScenarioTarget), so the sales truth comes from the
// generator itself rather than from a warehouse.
type salesRecorder struct {
	cityOf    map[string]string    // airport → city
	countryOf map[string]string    // city → country
	parent    map[[2]string]string // (dim/level, name) → parent name
	facts     []fact
}

func (r *salesRecorder) AddMember(dim, level, name string, _ map[string]string, parentName string) (int, error) {
	switch {
	case dim == "Airport" && level == "Airport":
		r.cityOf[name] = parentName
	case dim == "Airport" && level == "City":
		r.countryOf[name] = parentName
	}
	r.parent[[2]string{dim + "/" + level, name}] = parentName
	return 0, nil
}

func (r *salesRecorder) AddFact(factName string, coords map[string]string, measures map[string]float64) error {
	if factName != "LastMinuteSales" {
		return fmt.Errorf("unexpected fact %q", factName)
	}
	lv := map[string]string{}
	for _, role := range []string{"Departure", "Destination"} {
		ap := coords[role]
		city := r.cityOf[ap]
		lv[role+"/Airport"] = ap
		lv[role+"/City"] = city
		lv[role+"/Country"] = r.countryOf[city]
	}
	day := coords["Date"]
	lv["Date/Day"] = day
	lv["Date/Month"] = day[:7]
	lv["Date/Year"] = day[:4]
	cust := coords["Customer"]
	lv["Customer/Customer"] = cust
	lv["Customer/Segment"] = r.parent[[2]string{"Customer/Customer", cust}]
	m := map[string]float64{}
	for k, v := range measures {
		m[k] = v
	}
	r.facts = append(r.facts, fact{levels: lv, measures: m})
	return nil
}

// feedState is the set of scenario (city, month) pairs loaded by the
// first n feeds of a run.
func feedState(feeds []feed, n int) map[[2]string]bool {
	st := map[[2]string]bool{}
	for _, f := range feeds[:n] {
		st[[2]string{f.airport.City, fmt.Sprint(f.month)}] = true
	}
	return st
}

// expected evaluates a spec over the truth facts with the given
// scenario months loaded.
func (t *truth) expected(s *olapSpec, loaded map[[2]string]bool) table {
	type acc struct {
		sum, min, max float64
		n             int
	}
	accs := map[string]*acc{}
	groups := make([]string, len(s.groupBy))
	visit := func(r *fact) {
		if !matches(s.filters, r) {
			return
		}
		for i, l := range s.groupBy {
			groups[i] = r.level(l)
		}
		k := groupKey(groups)
		v := r.measure(s.measure)
		a := accs[k]
		if a == nil {
			a = &acc{min: v, max: v}
			accs[k] = a
		}
		a.sum += v
		a.n++
		a.min = math.Min(a.min, v)
		a.max = math.Max(a.max, v)
	}
	switch s.fact {
	case "LastMinuteSales":
		for i := range t.sales {
			visit(&t.sales[i])
		}
	case "Weather":
		city, month := "", ""
		for _, f := range s.filters {
			if f.level == "City/City" && len(f.values) == 1 {
				city = f.values[0]
			}
			if f.level == "Date/Month" && len(f.values) == 1 {
				month = f.values[0]
			}
		}
		switch {
		case city != "":
			for _, i := range t.weatherByCity[city] {
				visit(&t.weather[i])
			}
		case month != "":
			for _, i := range t.weatherByMon[month] {
				visit(&t.weather[i])
			}
		default:
			for i := range t.weather {
				visit(&t.weather[i])
			}
		}
		for k := range loaded {
			if city == "" || city == k[0] {
				rows := t.scenario[k]
				for i := range rows {
					visit(&rows[i])
				}
			}
		}
	}
	out := table{}
	for k, a := range accs {
		var v float64
		switch s.agg {
		case "avg":
			v = a.sum / float64(a.n)
		case "sum":
			v = a.sum
		case "min":
			v = a.min
		case "max":
			v = a.max
		case "count":
			v = float64(a.n)
		}
		out[k] = cell{value: v, count: a.n}
	}
	return out
}

func matches(filters []olapFilter, r *fact) bool {
	for _, f := range filters {
		ok := false
		for _, v := range f.values {
			if r.level(f.level) == v {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// olapRow is a result row as the server returns it.
type olapRow struct {
	Groups []string `json:"groups"`
	Value  float64  `json:"value"`
	Count  int      `json:"count"`
}

// sameTable compares a returned table with an expected one: the same
// groups, equal counts, values equal up to float summation order.
func sameTable(got []olapRow, want table) bool {
	if len(got) != len(want) {
		return false
	}
	for _, r := range got {
		c, ok := want[groupKey(r.Groups)]
		if !ok || c.count != r.Count {
			return false
		}
		if math.Abs(c.value-r.Value) > 1e-9*math.Max(1, math.Abs(c.value)) {
			return false
		}
	}
	return true
}

// tableDefectOnly reports whether a returned table differs from the
// expected one only in the temperature values of scenario months whose
// page is a table page: same groups, same counts, and every differing
// value in such a month of the question's city.
func (t *truth) tableDefectOnly(s *olapSpec, got []olapRow, want table) bool {
	if s.fact != "Weather" || len(s.groupBy) != 1 || s.groupBy[0] != "Date/Month" ||
		len(s.filters) != 1 || s.filters[0].level != "City/City" || len(s.filters[0].values) != 1 {
		return false
	}
	city := s.filters[0].values[0]
	if len(got) != len(want) {
		return false
	}
	for _, r := range got {
		c, ok := want[groupKey(r.Groups)]
		if !ok || c.count != r.Count {
			return false
		}
		if math.Abs(c.value-r.Value) <= 1e-9*math.Max(1, math.Abs(c.value)) {
			continue
		}
		var y, m int
		if _, err := fmt.Sscanf(r.Groups[0], "%04d-%02d", &y, &m); err != nil || y != scenarioYear || !t.tablePages[[2]string{city, fmt.Sprint(m)}] {
			return false
		}
	}
	return true
}

// expectations precomputes every analytic question's expected table:
// once for questions the feeds cannot change, once per feed state
// (0..len(feeds)) for those they can.
type expectations struct {
	truth   *truth
	static  map[int]table   // question index → table
	byState map[int][]table // question index → table per feed state
}

func (t *truth) precompute(tr *traffic) *expectations {
	ex := &expectations{truth: t, static: map[int]table{}, byState: map[int][]table{}}
	var states []map[[2]string]bool
	for n := 0; n <= len(tr.feeds); n++ {
		states = append(states, feedState(tr.feeds, n))
	}
	for i, q := range tr.questions {
		if q.spec == nil {
			continue
		}
		if !q.spec.touchesScenario() {
			ex.static[i] = t.expected(q.spec, nil)
			continue
		}
		per := make([]table, len(states))
		for n, st := range states {
			per[n] = t.expected(q.spec, st)
		}
		ex.byState[i] = per
	}
	return ex
}

// answerJSON is the factoid answer as the server returns it.
type answerJSON struct {
	Value    float64 `json:"value"`
	HasValue bool    `json:"has_value"`
	Unit     string  `json:"unit"`
	Date     string  `json:"date"`
	URL      string  `json:"url"`
}

// checkFactoid judges one factoid answer: it must cite the asked
// city's page for the asked month, date a day of that month, and
// report the generator's high for that day.
func (t *truth) checkFactoid(k pageKey, a *answerJSON) string {
	if a == nil {
		return "no answer"
	}
	pt := t.pages[k]
	if pt == nil {
		return "question outside the seeded grid"
	}
	if a.URL != pt.url {
		return fmt.Sprintf("url %q, want %q", a.URL, pt.url)
	}
	var y, m, d int
	if _, err := fmt.Sscanf(a.Date, "%04d-%02d-%02d", &y, &m, &d); err != nil || y != k.year || m != k.month || d < 1 || d > len(pt.highs) {
		return fmt.Sprintf("date %q outside %04d-%02d", a.Date, k.year, k.month)
	}
	high := float64(pt.highs[d-1])
	switch {
	case !a.HasValue:
		return "answer carries no value"
	case a.Unit == "C" && a.Value == high:
	case a.Unit == "F" && math.Abs(a.Value-(high*1.8+32)) < 0.05:
	default:
		return fmt.Sprintf("value %v %s on %s, want %v C", a.Value, a.Unit, a.Date, high)
	}
	return ""
}

// feedTruth is what generator truth says one feed's pages hold, and
// how many of those records are new to the warehouse at that point.
type feedTruth struct {
	rows    [2]int // scenario page rows, scaled page rows
	newRows [2]int
}

// feedTruths computes, for each feed in order, the truth row counts.
// The scaled city's records are always already loaded (the seeder
// ingested them); a scenario month is new only the first time any of
// its city's airports is fed.
func (t *truth) feedTruths(feeds []feed) []feedTruth {
	out := make([]feedTruth, len(feeds))
	seen := map[[2]string]bool{}
	for i, f := range feeds {
		key := [2]string{f.airport.City, fmt.Sprint(f.month)}
		out[i].rows[0] = t.scenarioDays[key]
		if !seen[key] {
			out[i].newRows[0] = out[i].rows[0]
			seen[key] = true
		}
		out[i].rows[1] = len(t.pages[f.scaled].highs)
	}
	return out
}
