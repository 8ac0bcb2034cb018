package main

import (
	"bufio"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"dwqa/internal/core"
	"dwqa/internal/dw"
	"dwqa/internal/engine"
	"dwqa/internal/ir"
	"dwqa/internal/nl2olap"
	"dwqa/internal/qa"
	"dwqa/internal/store"
)

// The traced run replays a workload's request stream (the open-loop
// schedule, then any feeds that ran after it) in process, over the first
// set-up's data directory (seeded identically to the one the server
// used) opened with the server's configuration, calling each layer's
// public function in the order the engine does:
//
//	factoid:  nl2olap.Translator.Translate (classifies it factoid)
//	          → qa.System.Answer, whose retrieval goes through
//	            ir.Index.Search
//	analytic: nl2olap.Translator.Translate → dw.Warehouse.Execute
//	feed:     qa.System.Harvest (per question) → etl.Loader.LoadAll,
//	          which journals to the store (store.Store.LogBatch); then
//	          a dw.Warehouse.Execute count per fed city-month checks
//	          the load against truth
//
// Every span is recorded here, around those calls. The ir span wraps
// the qa system's Retriever, and the nlp span is the part of a qa call
// before its first retrieval: qa's question analysis (Module 1), which
// runs the nlp tokenizer and tagger and the SB parser and has no public
// entry point of its own. A small LRU in front of the replay stands in
// for the engine's answer cache, so hits skip the layers as they do in
// the server.

// span is one layer call of one request.
type span struct {
	Req    int32  `json:"req"`
	Layer  string `json:"layer"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. The replay is single-threaded, so it
// needs no locking; when off (warm-up, which runs concurrently) it
// records nothing and touches no state.
type tracer struct {
	on    bool
	t0    time.Time
	req   int32
	cur   int32
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(layer string) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Req: t.req, Layer: layer, Parent: t.cur, Start: t.now()})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].End = t.now()
	t.cur = t.spans[i].Parent
}

// tracedRetriever is the qa systems' view of the index: it records the
// nlp span (the qa call up to its first retrieval) and the ir span.
type tracedRetriever struct {
	ix *ir.Index
	tr *tracer
	// qaSpan is the open qa span whose nlp span is not yet recorded.
	qaSpan int32
	// passages counts results of traced searches.
	searches, passages int
}

func (r *tracedRetriever) analysed() {
	if r.qaSpan < 0 {
		return
	}
	t := r.tr
	t.spans = append(t.spans, span{Req: t.req, Layer: "nlp", Parent: r.qaSpan, Start: t.spans[r.qaSpan].Start, End: t.now()})
	r.qaSpan = -1
}

func (r *tracedRetriever) Search(terms []string, k int) []ir.Passage {
	r.analysed()
	sp := r.tr.begin("ir")
	out := r.ix.Search(terms, k)
	r.tr.end(sp)
	if sp >= 0 {
		r.searches++
		r.passages += len(out)
	}
	return out
}

func (r *tracedRetriever) AllPassages() []ir.Passage {
	r.analysed()
	sp := r.tr.begin("ir")
	out := r.ix.AllPassages()
	r.tr.end(sp)
	return out
}

func (r *tracedRetriever) Document(i int) (ir.Document, error) { return r.ix.Document(i) }

// tracedJournal records the store span around the warehouse's journal
// appends.
type tracedJournal struct {
	st *store.Store
	tr *tracer
}

func (j *tracedJournal) LogMembers(specs []dw.MemberSpec) error {
	sp := j.tr.begin("store")
	defer j.tr.end(sp)
	return j.st.LogMembers(specs)
}

func (j *tracedJournal) LogFactRows(fact string, rows []dw.FactRow) error {
	sp := j.tr.begin("store")
	defer j.tr.end(sp)
	return j.st.LogFactRows(fact, rows)
}

func (j *tracedJournal) LogBatch(specs []dw.MemberSpec, fact string, rows []dw.FactRow) error {
	sp := j.tr.begin("store")
	defer j.tr.end(sp)
	return j.st.LogBatch(specs, fact, rows)
}

// cacheModel is an LRU of the engine's capacity keyed like the engine's
// cache. Feeds evict the analytic entries whose plan reads what the
// feed wrote, as the engine's selective invalidation does.
type cacheModel struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	spec *olapSpec
}

func newCacheModel(capacity int) *cacheModel {
	return &cacheModel{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *cacheModel) get(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		return true
	}
	return false
}

func (c *cacheModel) put(key string, spec *olapSpec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, spec: spec})
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// fed evicts the entries a feed of the city's month may change.
func (c *cacheModel) fed(city string, month int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ll.Front(); e != nil; {
		next := e.Next()
		if s := e.Value.(*cacheEntry).spec; s != nil && specReads(s, city, month) {
			c.ll.Remove(e)
			delete(c.items, e.Value.(*cacheEntry).key)
		}
		e = next
	}
}

// specReads reports whether a plan reads Weather rows of the city's
// scenario month: an unfiltered plan reads everything; a filtered one
// only the members it names.
func specReads(s *olapSpec, city string, month int) bool {
	if s.fact != "Weather" {
		return false
	}
	if len(s.filters) == 0 {
		return true
	}
	ym, y := fmt.Sprintf("%04d-%02d", scenarioYear, month), fmt.Sprint(scenarioYear)
	for _, f := range s.filters {
		for _, v := range f.values {
			if (f.level == "City/City" && v == city) || (f.level == "Date/Month" && v == ym) || (f.level == "Date/Year" && v == y) {
				return true
			}
		}
	}
	return false
}

// traceResult is what the traced run reports.
type traceResult struct {
	recoverS   float64 // store.Open + LoadSnapshot of the copy
	openS      float64 // core.OpenPipeline of the copy
	warmS      float64
	asks       int
	feeds      int
	hits       int
	spans      []span
	passages   float64 // mean passages per traced search
	accepted   int     // factoid answers with a best answer
	candidates int
	rows       int // result rows over traced executions
	execs      int
	normalized int
	rejected   int
	wrong      []string
}

// tracedRun opens dir in process and replays sched.
func tracedRun(ctx context.Context, dir string, t *traffic, tt *truth, ex *expectations, fts []feedTruth, sched []sample, conns int) (*traceResult, error) {
	res := &traceResult{}
	start := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if _, _, err := st.LoadSnapshot(); err != nil {
		st.Close()
		return nil, err
	}
	res.recoverS = time.Since(start).Seconds()
	if err := st.Close(); err != nil {
		return nil, err
	}
	runtime.GC()

	cfg := core.DefaultConfig()
	cfg.Seed = 0 // the server's -seed 0
	start = time.Now()
	p, _, err := core.OpenPipeline(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer p.Store().Close()
	res.openS = time.Since(start).Seconds()

	tr := &tracer{cur: -1}
	askRet := &tracedRetriever{ix: p.Index, tr: tr, qaSpan: -1}
	harvRet := &tracedRetriever{ix: p.Index, tr: tr, qaSpan: -1}
	ask, err := qa.NewSystem(p.Lexicon, p.Ontology, askRet, cfg.QA)
	if err != nil {
		return nil, err
	}
	ask.TunePatterns(qa.WeatherPatterns()...)
	hcfg := cfg.QA
	hcfg.TopPassages = cfg.HarvestPassages
	harv, err := qa.NewSystem(p.Lexicon, p.Ontology, harvRet, hcfg)
	if err != nil {
		return nil, err
	}
	harv.TunePatterns(qa.WeatherPatterns()...)
	trans, err := p.Translator()
	if err != nil {
		return nil, err
	}
	p.Warehouse.SetJournal(&tracedJournal{st: p.Store(), tr: tr})
	cache := newCacheModel(engine.DefaultCacheSize)

	// answer runs one question through the layers (or the cache model).
	answer := func(qi int) (hit bool, werr string) {
		q := &t.questions[qi]
		key := engine.NormalizeQuestion(q.text)
		if cache.get(key) {
			return true, ""
		}
		sp := tr.begin("nl2olap")
		tl, err := trans.Translate(q.text)
		tr.end(sp)
		switch {
		case err == nil:
			sp = tr.begin("dw")
			r, err := p.Warehouse.Execute(tl.Query)
			tr.end(sp)
			if err != nil {
				return false, err.Error()
			}
			if tr.on {
				res.execs++
				res.rows += len(r.Rows)
			}
			cache.put(key, q.spec)
			verdict, why := judgeTable(ex, q.spec, qi, toRows(r), int32(res.feeds), int32(res.feeds))
			if verdict == knownDefect {
				why = ""
			}
			return false, why
		case !errors.Is(err, nl2olap.ErrFactoid):
			return false, err.Error()
		}
		sp = tr.begin("qa.answer")
		if tr.on {
			askRet.qaSpan = sp
		}
		r, err := ask.Answer(q.text)
		if tr.on {
			askRet.qaSpan = -1
		}
		tr.end(sp)
		if err != nil {
			return false, err.Error()
		}
		if tr.on {
			res.candidates += len(r.Candidates)
			if r.Best != nil {
				res.accepted++
			}
		}
		cache.put(key, nil)
		if !q.factoid {
			return false, "analytic question answered as factoid"
		}
		var a *answerJSON
		if r.Best != nil {
			a = &answerJSON{Value: r.Best.Value, HasValue: r.Best.HasValue, Unit: r.Best.Unit,
				Date: fmt.Sprintf("%04d-%02d-%02d", r.Best.Date.Year, r.Best.Date.Month, r.Best.Date.Day), URL: r.Best.URL}
		}
		return false, tt.checkFactoid(q.page, a)
	}

	// Warm-up: every question once, untraced, as the server's warm-up.
	start = time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var werrs []string
	per := (len(t.questions) + conns - 1) / conns
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi && ctx.Err() == nil; i++ {
				if _, e := answer(i); e != "" {
					mu.Lock()
					werrs = append(werrs, t.questions[i].text+": "+e)
					mu.Unlock()
				}
			}
		}(w*per, min((w+1)*per, len(t.questions)))
	}
	wg.Wait()
	res.warmS = time.Since(start).Seconds()
	// The replay starts with an empty cache model, so the first ask of
	// each distinct question runs the layers: on mixed_hot, whose
	// server-side cache is warm, those first asks are the only layer
	// work the replay measures.
	cache = newCacheModel(engine.DefaultCacheSize)
	if len(werrs) > 0 {
		res.wrong = append(res.wrong, werrs...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The replay, traced.
	tr.on, tr.t0 = true, time.Now()
	for i := range sched {
		s := &sched[i]
		tr.req = int32(i)
		if s.q >= 0 {
			root := tr.begin("request")
			hit, werr := answer(s.q)
			tr.end(root)
			res.asks++
			if hit {
				res.hits++
			}
			if werr != "" {
				res.wrong = append(res.wrong, t.questions[s.q].text+": "+werr)
			}
			continue
		}
		f := &t.feeds[s.feed]
		root := tr.begin("feed")
		var batches [][]qa.Answer
		for _, q := range []string{f.scenarioQ, f.scaledQ} {
			sp := tr.begin("qa.harvest")
			harvRet.qaSpan = sp
			answers, _, err := harv.Harvest(q)
			harvRet.qaSpan = -1
			tr.end(sp)
			if err != nil {
				answers = nil
			}
			batches = append(batches, answers)
		}
		sp := tr.begin("etl")
		_, total, _, err := p.Loader.LoadAll(batches)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("traced feed: %w", err)
		}
		// Check the feed against truth through the warehouse: neither
		// half's city-month may now hold more rows than it has days
		// (fewer is lost recall, which feed_recall reports).
		for h, k := range []pageKey{{f.airport.City, scenarioYear, f.month}, f.scaled} {
			sp = tr.begin("dw")
			r, err := p.Warehouse.Execute(dw.Query{Fact: "Weather", Agg: dw.Count, Filters: []dw.Filter{
				{Role: "City", Level: "City", Values: []string{k.city}},
				{Role: "Date", Level: "Month", Values: []string{fmt.Sprintf("%04d-%02d", k.year, k.month)}}}})
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("traced feed check: %w", err)
			}
			res.execs++
			res.rows += len(r.Rows)
			if got, want := rowCount(r), fts[s.feed].rows[h]; got > want {
				res.wrong = append(res.wrong, fmt.Sprintf("feed %q: warehouse holds %d rows for %s %04d-%02d, truth %d",
					f.scenarioQ, got, k.city, k.year, k.month, want))
			}
		}
		tr.end(root)
		res.feeds++
		res.normalized += total.Normalized
		res.rejected += len(total.Rejections)
		cache.fed(f.airport.City, f.month)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	res.spans = tr.spans
	if n := askRet.searches + harvRet.searches; n > 0 {
		res.passages = float64(askRet.passages+harvRet.passages) / float64(n)
	}
	return res, nil
}

// rowCount is the fact count of an ungrouped count query.
func rowCount(r *dw.Result) int {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[0].Count
}

func toRows(r *dw.Result) []olapRow {
	out := make([]olapRow, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = olapRow{Groups: row.Groups, Value: row.Value, Count: row.Count}
	}
	return out
}

// selfTimes sums each layer's self time (span minus its children) and
// counts its calls, over the spans keep accepts (nil: all).
func selfTimes(spans []span, keep func(*span) bool) (self map[string]time.Duration, calls map[string]int) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, calls = map[string]time.Duration{}, map[string]int{}
	for i := range spans {
		s := &spans[i]
		if keep == nil || keep(s) {
			self[s.Layer] += time.Duration(s.End - s.Start - child[i])
			calls[s.Layer]++
		}
	}
	return self, calls
}

// writeSpans keeps the last traced run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
