package ir

import (
	"math"
	"slices"
)

// The search kernel: exact top-k retrieval with max-score pruning
// (Turtle & Flood, 1995) and block skips (Ding & Suel, 2011). Search,
// SearchWeighted and SearchDocuments all rank through it.
//
// A factoid query sends IR-n a few terms of very different selectivity
// ([month, year, city]): tens of thousands of postings in total, of which
// only the rare term's few hundred can reach the top k. The kernel takes
// the terms in descending order of their score bound (1+ln maxTF)·idf.
// Before each term it checks whether at least k ids have been touched and
// the bounds of the remaining terms sum to less than θ·pruneSlack, θ
// being the k-th best partial score. From then on no id is admitted: an
// untouched id can only score below θ, which at least k touched ids
// already reach, so it can neither enter the top k nor tie into it. The
// remaining lists only look up the touched ids (the candidates), decoding
// just the skip blocks whose id range holds one.
//
// Scores stay byte-identical to the dense reference oracle. The kernel
// records each candidate's tf per query term and, once every list has
// been visited, re-folds each score in query order — the same float
// additions in the same order the reference performs — so pruning
// changes which postings are decoded, never a score bit or a tie-break.

// pruneSlack is the relative margin of the pruning test. The bounds are
// summed, and the partial scores accumulated, in a different order from
// the final query-order fold; the margin dwarfs that rounding (a few ulp)
// so the test never admits a case the exact arithmetic would reject.
const pruneSlack = 1 - 1e-9

// tfWeights[tf] is 1+ln tf, the IR-n term-frequency factor, for the small
// tfs that make up nearly every posting; tfWeight falls back to
// math.Log above the table. Entries are computed with the expression the
// reference oracle evaluates, so a lookup is bit-identical to it.
var tfWeights = func() (w [256]float64) {
	for tf := 1; tf < len(w); tf++ {
		w[tf] = 1 + math.Log(float64(tf))
	}
	return w
}()

// tfWeight returns 1+ln tf.
func tfWeight(tf int32) float64 {
	if uint32(tf) < uint32(len(tfWeights)) {
		return tfWeights[tf]
	}
	return 1 + math.Log(float64(tf))
}

// queryTerm is one scored term of a query, in query order.
type queryTerm struct {
	pl *postingList
	w  float64 // idf weight
	ub float64 // (1+ln maxTF)·w: no posting of pl contributes more
}

// addTerm appends a query term with its weight. Empty lists contribute
// nothing and are dropped.
func (a *sparseAcc) addTerm(pl *postingList, w float64) {
	if pl.count() > 0 {
		a.terms = append(a.terms, queryTerm{pl: pl, w: w})
	}
}

// topK ranks the added terms' ids and returns the k best (score
// descending, id ascending), leaving each returned id's exact score in
// a.scores. The caller has sized the accumulator for the id space.
func (a *sparseAcc) topK(k int) []int32 {
	prunable := a.orderTerms()
	j := 0
	for ; j < len(a.order); j++ {
		if prunable && len(a.touched) >= k && a.rem[j] < a.kthScore(k)*pruneSlack {
			break
		}
		a.scanAll(a.order[j])
	}
	if a.pruned = j < len(a.order); a.pruned {
		// The touched ids are now the candidates; ascending order lets
		// the remaining lists merge against them block by block.
		slices.Sort(a.touched)
		for ; j < len(a.order); j++ {
			a.scanCandidates(a.order[j])
		}
	}
	a.refold()
	return a.rank(k)
}

// orderTerms computes every term's bound, sorts the terms by descending
// bound (ties in query order) into a.order and fills a.rem[j] with the
// bound sum of a.order[j:]. Pruning is sound only when every weight is
// positive, which it reports.
func (a *sparseAcc) orderTerms() (prunable bool) {
	prunable = true
	a.order = a.order[:0]
	for i := range a.terms {
		t := &a.terms[i]
		t.ub = tfWeight(t.pl.maxTF) * t.w
		prunable = prunable && t.w > 0
		j := len(a.order)
		a.order = append(a.order, i)
		for ; j > 0 && a.terms[a.order[j-1]].ub < t.ub; j-- {
			a.order[j] = a.order[j-1]
		}
		a.order[j] = i
	}
	a.rem = append(a.rem[:0], make([]float64, len(a.order)+1)...)
	for j := len(a.order) - 1; j >= 0; j-- {
		a.rem[j] = a.rem[j+1] + a.terms[a.order[j]].ub
	}
	return prunable
}

// scanAll decodes term q's whole list, admitting every id it holds.
func (a *sparseAcc) scanAll(q int) {
	t := &a.terms[q]
	pl, w := t.pl, t.w
	pos, id := 0, int32(-1)
	for r := pl.encN; r > 0; r-- {
		var gap, tf uint64
		gap, tf, pos = readPair(pl.enc, pos)
		id += int32(gap)
		a.touch(id, int32(tf), q, w)
	}
	for _, p := range pl.raw {
		a.touch(p.ID, p.TF, q, w)
	}
}

// touch folds one posting of term q into id's partial score, registering
// id on first touch, and records its tf.
func (a *sparseAcc) touch(id, tf int32, q int, w float64) {
	n := len(a.touched)
	a.add(id, tfWeight(tf)*w)
	if len(a.touched) > n {
		a.slot[id] = int32(n)
		a.tfs = append(a.tfs, make([]int32, len(a.terms))...)
	}
	a.record(id, tf, q)
}

// record stores touched id's tf in term q.
func (a *sparseAcc) record(id, tf int32, q int) {
	a.tfs[int(a.slot[id])*len(a.terms)+q] = tf
}

// scanCandidates records the tf of every candidate term q's list holds,
// decoding only the skip blocks whose id range (base, last] holds a
// candidate, then merging the raw tail. The candidates are the touched
// ids, sorted ascending.
func (a *sparseAcc) scanCandidates(q int) {
	pl, cands := a.terms[q].pl, a.touched
	c := 0
	for b, sk := range pl.skips {
		if c == len(cands) {
			return
		}
		if cands[c] > sk.last {
			continue
		}
		pos, id := int(sk.off), sk.base
		for r := min(skipBlock, int(pl.encN)-b*skipBlock); r > 0 && c < len(cands) && cands[c] <= sk.last; r-- {
			var gap, tf uint64
			gap, tf, pos = readPair(pl.enc, pos)
			id += int32(gap)
			for c < len(cands) && cands[c] < id {
				c++
			}
			if c < len(cands) && cands[c] == id {
				a.record(id, int32(tf), q)
				c++
			}
		}
		for c < len(cands) && cands[c] <= sk.last {
			c++
		}
	}
	for _, p := range pl.raw {
		for c < len(cands) && cands[c] < p.ID {
			c++
		}
		if c == len(cands) {
			return
		}
		if cands[c] == p.ID {
			a.record(p.ID, p.TF, q)
			c++
		}
	}
}

// refold replaces every touched id's partial score with its exact score:
// the fold of its per-term weights in query order, as the reference
// oracle accumulates them.
func (a *sparseAcc) refold() {
	nq := len(a.terms)
	for _, id := range a.touched {
		s := int(a.slot[id]) * nq
		score := 0.0
		for q, tf := range a.tfs[s : s+nq] {
			if tf != 0 {
				score += tfWeight(tf) * a.terms[q].w
			}
		}
		a.scores[id] = score
	}
}

// kthScore returns the k-th best partial score among the touched ids
// (k ≤ len(touched)) through a size-k min-heap on a pooled buffer.
func (a *sparseAcc) kthScore(k int) float64 {
	h := a.heap[:0]
	for _, id := range a.touched {
		s := a.scores[id]
		switch {
		case len(h) < k:
			h = append(h, s)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p] <= h[i] {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		case s > h[0]:
			h[0] = s
			for i := 0; ; {
				m := i
				if l := 2*i + 1; l < len(h) && h[l] < h[m] {
					m = l
				}
				if r := 2*i + 2; r < len(h) && h[r] < h[m] {
					m = r
				}
				if m == i {
					break
				}
				h[m], h[i] = h[i], h[m]
				i = m
			}
		}
	}
	a.heap = h
	return h[0]
}
