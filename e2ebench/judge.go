package main

import (
	"encoding/json"
	"fmt"
)

// Verdicts of the truth check.
const (
	right = iota
	// knownDefect: the answer differs from the generator's truth only
	// where Step 5 loaded a table page's temperatures (tablePages). It
	// counts against answer_correct_ratio but does not make the run
	// incorrect, so the defect stays measurable until it is fixed.
	knownDefect
	wrong
)

// judgeTable checks an analytic answer against the expected table of
// every feed state it may reflect (lo..hi).
func judgeTable(ex *expectations, spec *olapSpec, qi int, rows []olapRow, lo, hi int32) (int, string) {
	if want, ok := ex.static[qi]; ok {
		if sameTable(rows, want) {
			return right, ""
		}
		return wrong, fmt.Sprintf("table of %d rows differs from the truth's %d", len(rows), len(want))
	}
	per := ex.byState[qi]
	for n := lo; n <= hi && int(n) < len(per); n++ {
		if sameTable(rows, per[n]) {
			return right, ""
		}
	}
	for n := lo; n <= hi && int(n) < len(per); n++ {
		if ex.truth.tableDefectOnly(spec, rows, per[n]) {
			return knownDefect, "temperatures of a table-page month differ from the highs (known Step 5 table-layout defect)"
		}
	}
	return wrong, fmt.Sprintf("table of %d rows matches no feed state %d..%d", len(rows), lo, hi)
}

// verdicts accumulates the truth checks of a run.
type verdicts struct {
	asks2xx, asksRight int
	failed             int
	wrongN             int
	knownDefectN       int
	notes              []string // first few failures and wrong answers, for the report

	feedRowsTruth, feedRowsSeen  int // rows the fed pages hold; rows loaded or already held
	feedNormalized, feedRejected int
	feedViolations               []string
}

func (v *verdicts) note(s string) {
	if len(v.notes) < 8 {
		v.notes = append(v.notes, s)
	}
}

// judge checks every sample of a phase.
func (v *verdicts) judge(t *traffic, tt *truth, ex *expectations, fts []feedTruth, samples []sample) {
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			v.failed++
			if s.err != nil {
				v.note(fmt.Sprintf("request failed: %v", s.err))
			} else {
				v.note(fmt.Sprintf("request failed: status %d: %.200s", s.status, s.body))
			}
			continue
		}
		if s.q < 0 {
			v.judgeFeed(t, fts, s)
			continue
		}
		v.asks2xx++
		q := &t.questions[s.q]
		var r askResp
		if err := json.Unmarshal(s.body, &r); err != nil {
			v.wrongN++
			v.note(fmt.Sprintf("%s: undecodable reply: %v", q.text, err))
			continue
		}
		verdict, why := wrong, ""
		switch {
		case r.Error != "":
			why = r.Error
		case q.factoid:
			if why = tt.checkFactoid(q.page, r.Answer); why == "" {
				verdict = right
			}
		case r.OLAP == nil:
			why = "analytic question answered without a table"
		default:
			verdict, why = judgeTable(ex, q.spec, s.q, r.OLAP.Rows, s.lo, s.hi)
		}
		v.count(verdict, q.text, why)
	}
}

// count records one answer's verdict.
func (v *verdicts) count(verdict int, text, why string) {
	switch verdict {
	case right:
		v.asksRight++
	case knownDefect:
		v.knownDefectN++
		if v.knownDefectN <= 2 {
			v.note("known defect: " + text + ": " + why)
		}
	default:
		v.wrongN++
		v.note("wrong answer: " + text + ": " + why)
	}
}

// judgeFeed checks one harvest reply against generator truth: neither
// half may load more rows than truth says are new, nor account for more
// rows than its pages hold. Rows lost to rejections lower feed_recall;
// they are not wrong answers.
func (v *verdicts) judgeFeed(t *traffic, fts []feedTruth, s *sample) {
	f := &t.feeds[s.feed]
	ft := fts[s.feed]
	var r feedResp
	if err := json.Unmarshal(s.body, &r); err != nil || len(r.Results) != 2 {
		v.feedViolations = append(v.feedViolations, fmt.Sprintf("feed %q: undecodable reply %.200s", f.scenarioQ, s.body))
		return
	}
	v.feedNormalized += r.Normalized
	v.feedRejected += r.Rejected
	for h, it := range r.Results {
		v.feedRowsTruth += ft.rows[h]
		v.feedRowsSeen += it.Loaded + it.Skipped
		if it.Loaded > ft.newRows[h] || it.Loaded+it.Skipped > ft.rows[h] {
			v.feedViolations = append(v.feedViolations, fmt.Sprintf("feed %q half %d: loaded %d skipped %d, truth holds %d rows (%d new)",
				f.scenarioQ, h, it.Loaded, it.Skipped, ft.rows[h], ft.newRows[h]))
		}
	}
}

// correct reports whether every answer matched truth and every feed
// stayed within it.
func (v *verdicts) correct() bool { return v.wrongN == 0 && len(v.feedViolations) == 0 }
