package ir

import "sync"

// sparseAcc is an epoch-stamped sparse score accumulator: scores are
// recorded only for the ids that actually match a query term, so a query
// costs O(matched postings) instead of O(index). A slot is live when its
// stamp equals the current epoch; starting a new query is one counter
// increment, not an O(index) clear. Accumulators are recycled through
// accPool, so the steady state allocates nothing per query regardless of
// index size (the arrays grow monotonically to the largest index seen).
//
// The fields after epoch serve the pruned search kernel (kernel.go) and
// are recycled with the accumulator, so a pruned search allocates no
// scratch either. The sync.Pool drops idle accumulators at every GC; the
// scratch of a typical query (up to 8 terms, k up to 16) starts in arrays
// inside the struct, and touched/tfs start with room for a selective
// query, so a fresh accumulator costs no more allocations than the
// unpruned scorer's did.
type sparseAcc struct {
	stamp   []uint32
	scores  []float64
	touched []int32 // matched ids, in first-touch order (ascending once a search prunes)
	epoch   uint32

	slot   []int32     // id → its tfs row (first-touch index), valid while the id's stamp is live
	tfs    []int32     // tfs[slot·len(terms)+q]: the id's tf in term q (0 = absent)
	terms  []queryTerm // the query's scored terms, in query order
	order  []int       // term indexes by descending bound
	rem    []float64   // rem[j]: bound sum of order[j:]
	heap   []float64   // kthScore scratch
	pruned bool        // the last topK stopped admitting ids before its last term

	termBuf  [8]queryTerm
	orderBuf [8]int
	remBuf   [9]float64
	heapBuf  [16]float64
}

// newAcc returns an empty accumulator whose small scratch slices use its
// inline arrays.
func newAcc() any {
	a := new(sparseAcc)
	a.terms, a.order, a.rem, a.heap = a.termBuf[:0], a.orderBuf[:0], a.remBuf[:0], a.heapBuf[:0]
	return a
}

// accPool recycles accumulators across queries (and across indexes — an
// accumulator is index-agnostic, sized on demand). Each Get hands the
// caller exclusive ownership, so concurrent searches never share scratch
// state.
var accPool = sync.Pool{New: newAcc}

// getAcc returns an accumulator ready for one query over n ids.
func getAcc(n int) *sparseAcc {
	a := accPool.Get().(*sparseAcc)
	if len(a.stamp) < n {
		a.stamp = make([]uint32, n)
		a.scores = make([]float64, n)
		a.slot = make([]int32, n)
		// Fresh stamps are all zero; epoch 0 must never be live. begin()
		// below moves the epoch off zero before any add.
	}
	if a.touched == nil {
		a.touched = make([]int32, 0, 256)
		a.tfs = make([]int32, 0, 1024)
	}
	a.begin()
	return a
}

// putAcc returns an accumulator to the pool, dropping its references to
// the index's posting lists.
func putAcc(a *sparseAcc) {
	clear(a.terms)
	accPool.Put(a)
}

// begin starts a new query epoch. On the (astronomically rare) uint32
// wrap the stamps are cleared so a slot last touched 2^32 queries ago
// cannot alias as live.
func (a *sparseAcc) begin() {
	a.epoch++
	if a.epoch == 0 {
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.epoch = 1
	}
	a.touched = a.touched[:0]
	a.tfs = a.tfs[:0]
	a.terms = a.terms[:0]
}

// add accumulates weight w onto id, registering it on first touch.
func (a *sparseAcc) add(id int32, w float64) {
	if a.stamp[id] != a.epoch {
		a.stamp[id] = a.epoch
		a.scores[id] = 0
		a.touched = append(a.touched, id)
	}
	a.scores[id] += w
}

// rank selects the k best matched ids (score descending, id ascending —
// the same total order as the dense reference's selectTopK, and because
// the order is total the result is independent of touch order). k is
// clamped to the matched count so a "return everything" request cannot
// reserve O(k) memory up front.
func (a *sparseAcc) rank(k int) []int32 {
	if k > len(a.touched) {
		k = len(a.touched)
	}
	h := newTopK(k)
	for _, id := range a.touched {
		if s := a.scores[id]; s > 0 {
			h.offer(id, s)
		}
	}
	return h.ranked()
}
