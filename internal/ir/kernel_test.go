package ir

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// blockVocab gives each word of the block-scale corpora the share of
// sentences it appears in: frequent lists span many skip blocks, the
// rare ones stay a single block or a raw tail, and the mix makes the
// selective queries the kernel prunes.
var blockVocab = []struct {
	word  string
	share float64
}{
	{"weather", 0.9}, {"harbor", 0.5}, {"market", 0.35}, {"bridge", 0.15},
	{"storm", 0.05}, {"melon", 0.02},
}

// blockSentence builds one sentence over blockVocab with a skewed tf:
// mostly one occurrence, sometimes a handful, rarely 256 or more (past
// the kernel's tf-weight table).
func blockSentence(rng *rand.Rand) string {
	var words []string
	for _, v := range blockVocab {
		if rng.Float64() >= v.share {
			continue
		}
		reps := 1
		switch r := rng.Intn(100); {
		case r == 0:
			reps = 256 + rng.Intn(64)
		case r < 15:
			reps = 2 + rng.Intn(5)
		}
		for i := 0; i < reps; i++ {
			words = append(words, v.word)
		}
	}
	words = append(words, "river")
	return strings.Join(words, " ") + "."
}

// blockDocs generates n documents of one to three sentences. Every tenth
// document repeats an earlier one under a new URL, so equal scores occur
// and the ranking must break their ties by id.
func blockDocs(rng *rand.Rand, n, offset int) []Document {
	docs := make([]Document, 0, n)
	for d := 0; d < n; d++ {
		url := fmt.Sprintf("http://b.example/%d", offset+d)
		if d%10 == 9 {
			docs = append(docs, Document{URL: url, Text: docs[rng.Intn(d)].Text})
			continue
		}
		var b strings.Builder
		for s, nS := 0, 1+rng.Intn(3); s < nS; s++ {
			b.WriteString(blockSentence(rng))
			b.WriteString(" ")
		}
		docs = append(docs, Document{URL: url, Text: b.String()})
	}
	return docs
}

// hasBlockScaleList reports whether some list of the store spans at
// least three skip blocks and ends in a non-empty raw tail.
func hasBlockScaleList(store []postingList) bool {
	for i := range store {
		if len(store[i].skips) >= 3 && len(store[i].raw) > 0 {
			return true
		}
	}
	return false
}

// blockQuery draws a query over blockVocab, sometimes with a duplicate
// or an unknown term.
func blockQuery(rng *rand.Rand) []string {
	n := 1 + rng.Intn(4)
	terms := make([]string, 0, n+2)
	for _, i := range rng.Perm(len(blockVocab))[:n] {
		terms = append(terms, blockVocab[i].word)
	}
	if rng.Intn(4) == 0 {
		terms = append(terms, terms[rng.Intn(len(terms))])
	}
	if rng.Intn(4) == 0 {
		terms = append(terms, "zzzunknownterm")
	}
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	return terms
}

// prunedSearch reports whether the kernel stopped admitting passages for
// the query, i.e. whether it took the candidate-only path.
func prunedSearch(ix *Index, terms []string, k int) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	acc := getAcc(len(ix.passages))
	defer putAcc(acc)
	ix.addTermsLocked(acc, terms, ix.postings, len(ix.passages))
	acc.topK(k)
	return acc.pruned
}

// checkKernel ranks random queries through every kernel entry point —
// Search, SearchWeighted with the index's own idf, SearchDocuments —
// against the dense oracles, for k from 1 to past the match count, and
// returns how many passage searches pruned.
func checkKernel(t *testing.T, ix *Index, rng *rand.Rand, queries int) (pruned int) {
	t.Helper()
	for q := 0; q < queries; q++ {
		terms := blockQuery(rng)
		matches := len(ix.SearchReference(terms, ix.PassageCount()))
		for _, k := range []int{1, 1 + rng.Intn(10), 1 + rng.Intn(matches+1), matches + 1 + rng.Intn(3)} {
			want := ix.SearchReference(terms, k)
			if got := ix.Search(terms, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%v, %d) diverges from the oracle:\n got %s\nwant %s", terms, k, rankingString(got), rankingString(want))
			}
			nPass, df := ix.TermStats(terms)
			if got := ix.SearchWeighted(terms, GlobalIDF(nPass, df), k); !reflect.DeepEqual(got, want) {
				t.Fatalf("SearchWeighted(%v, %d) diverges from the oracle:\n got %s\nwant %s", terms, k, rankingString(got), rankingString(want))
			}
			if got, want := ix.SearchDocuments(terms, k), ix.SearchDocumentsReference(terms, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("SearchDocuments(%v, %d) diverges from the oracle:\n got %+v\nwant %+v", terms, k, got, want)
			}
			if prunedSearch(ix, terms, k) {
				pruned++
			}
		}
	}
	return pruned
}

// TestKernelMatchesOracleAtBlockScale is the pruned kernel's property
// test: over corpora whose lists span several skip blocks and end in a
// raw tail, with skewed tfs (some ≥ 256), duplicate and unknown query
// terms, tied scores and k from 1 to past the match count, every
// ranking equals the dense oracle's — on a freshly built index, on its
// Export→Import copy (all postings encoded, skip tables rebuilt by the
// import walk) and on that copy grown by further Adds.
func TestKernelMatchesOracleAtBlockScale(t *testing.T) {
	for _, geom := range [][2]int{{1, 1}, {2, 1}} {
		t.Run(fmt.Sprintf("window=%d,stride=%d", geom[0], geom[1]), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(11 + geom[0])))
			fresh := NewIndex(WithPassageSize(geom[0]), WithStride(geom[1]))
			if err := fresh.AddAll(blockDocs(rng, 300, 0)); err != nil {
				t.Fatal(err)
			}
			if !hasBlockScaleList(fresh.postings) || !hasBlockScaleList(fresh.docPostings) {
				t.Fatal("corpus has no list spanning 3 skip blocks with a raw tail")
			}
			imported := NewIndex()
			if err := imported.Import(fresh.Export()); err != nil {
				t.Fatal(err)
			}
			grown := NewIndex()
			if err := grown.Import(fresh.Export()); err != nil {
				t.Fatal(err)
			}
			if err := grown.AddAll(blockDocs(rng, 90, 300)); err != nil {
				t.Fatal(err)
			}
			if !hasBlockScaleList(grown.postings) {
				t.Fatal("grown index has no list spanning 3 skip blocks with a raw tail")
			}
			for name, ix := range map[string]*Index{"fresh": fresh, "imported": imported, "grown": grown} {
				if pruned := checkKernel(t, ix, rng, 60); pruned < 20 {
					t.Errorf("%s: only %d of 240 searches pruned; the property no longer exercises the candidate path", name, pruned)
				}
			}
		})
	}
}

// TestSkipTablesDerivedIdentically pins the derived posting fields: the
// skip table and maxTF that add/flush maintain incrementally equal the
// ones Import rebuilds from the wire form.
func TestSkipTablesDerivedIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := NewIndex(WithPassageSize(1), WithStride(1))
	if err := src.AddAll(blockDocs(rng, 300, 0)); err != nil {
		t.Fatal(err)
	}
	// Flush every tail so the eager lists are fully encoded, like the
	// imported ones.
	for _, store := range [][]postingList{src.postings, src.docPostings} {
		for i := range store {
			store[i].flush()
		}
	}
	dst := NewIndex()
	if err := dst.Import(src.Export()); err != nil {
		t.Fatal(err)
	}
	for i := range src.postings {
		for _, pair := range [][2]*postingList{{&src.postings[i], &dst.postings[i]}, {&src.docPostings[i], &dst.docPostings[i]}} {
			a, b := pair[0], pair[1]
			if a.maxTF != b.maxTF || !reflect.DeepEqual(a.skips, b.skips) || a.lastID != b.lastID {
				t.Fatalf("term %d: eager maxTF %d skips %v, imported maxTF %d skips %v", i, a.maxTF, a.skips, b.maxTF, b.skips)
			}
		}
	}
}

// TestScanCandidatesAtBlockBoundaries checks the candidate merge of the
// pruned path against the list itself: candidate sets made of every
// block's last id alone, every list id, and ids at and around every
// block's bounds, in the raw tail and past the list end each get exactly
// the tf the list holds for them (0 when absent).
func TestScanCandidatesAtBlockBoundaries(t *testing.T) {
	var pl postingList
	want := map[int32]int32{}
	var all []int32
	for i := int32(0); i < 3*skipBlock+encodeThreshold+5; i++ {
		id, tf := 3*i+i%2, 1+i%7
		pl.add(id, tf)
		want[id] = tf
		all = append(all, id)
	}
	if len(pl.skips) < 3 || len(pl.raw) == 0 {
		t.Fatalf("list shape: %d skip blocks, %d raw postings", len(pl.skips), len(pl.raw))
	}
	var lasts, around []int32
	for _, sk := range pl.skips {
		lasts = append(lasts, sk.last)
		around = append(around, sk.base, sk.base+1, sk.last-1, sk.last, sk.last+1)
	}
	for _, p := range pl.raw {
		around = append(around, p.ID)
	}
	around = append(around, all[len(all)-1]+1)

	for name, cands := range map[string][]int32{"block lasts": lasts, "every id": all, "around bounds": around} {
		cands = slices.Compact(slices.Sorted(slices.Values(cands)))
		cands = slices.DeleteFunc(cands, func(id int32) bool { return id < 0 })
		a := getAcc(int(cands[len(cands)-1]) + 1)
		a.addTerm(&pl, 1)
		for _, id := range cands {
			a.add(id, 1)
			a.slot[id] = int32(len(a.touched) - 1)
			a.tfs = append(a.tfs, 0)
		}
		a.scanCandidates(0)
		for _, id := range cands {
			if got := a.tfs[a.slot[id]]; got != want[id] {
				t.Errorf("%s: candidate %d recorded tf %d, list holds %d", name, id, got, want[id])
			}
		}
		putAcc(a)
	}
}

// TestTFWeightMatchesLog pins the tf-weight table to the expression the
// oracle evaluates, bit for bit, on both sides of the table boundary.
func TestTFWeightMatchesLog(t *testing.T) {
	for _, tf := range []int32{1, 2, 3, 254, 255, 256, 257, 1 << 20, 1<<31 - 1} {
		if got, want := tfWeight(tf), 1+math.Log(float64(tf)); got != want {
			t.Errorf("tfWeight(%d) = %v, want %v", tf, got, want)
		}
	}
}

// FuzzSearchImportedPostings pins the import contract of the pruned
// kernel: any passage posting list Import accepts — whatever its length,
// gaps and tfs — builds its skip table and maxTF in the validation walk,
// and searches over it neither panic nor diverge from the dense oracle.
// With wire set, data is the list's encoding verbatim (n its claimed
// count), so the fuzzer probes what Import accepts; otherwise data is
// read as (gap, tf) byte pairs and encoded, so nearly every input is a
// valid list spanning several skip blocks and reaches the kernel.
func FuzzSearchImportedPostings(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	base := NewIndex(WithPassageSize(1), WithStride(1))
	if err := base.AddAll(blockDocs(rng, 150, 0)); err != nil {
		f.Fatal(err)
	}
	snap := base.Export()
	for i, w := range snap.Postings {
		f.Add(w.Enc, uint32(w.N), true, uint8(i), uint8(5))
	}
	f.Add(CompressPostings([]Posting{{ID: 0, TF: 300}, {ID: 7, TF: 1}}).Enc, uint32(2), true, uint8(4), uint8(1))
	f.Add([]byte("\x00\x01\x03\x02\x00\xff\x07\x01\x01\x01\x00\x05"), uint32(0), false, uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, n uint32, wire bool, term, k uint8) {
		w := PostingList{N: int32(n), Enc: data}
		if !wire {
			var posts []Posting
			id := int32(-1)
			for i := 0; i+1 < len(data); i += 2 {
				id += 1 + int32(data[i]%4)
				tf := 1 + int32(data[i+1])
				if tf == 256 {
					tf = 1000 // past the tf-weight table
				}
				posts = append(posts, Posting{ID: id, TF: tf})
			}
			w = CompressPostings(posts)
		}
		s := *snap
		s.Postings = append([]PostingList(nil), snap.Postings...)
		victim := int(term) % len(s.Postings)
		s.Postings[victim] = w
		ix := NewIndex()
		if err := ix.Import(&s); err != nil {
			return
		}
		queries := [][]string{
			{snap.Terms[victim]},
			{snap.Terms[victim], "weather", "storm"},
			{"harbor", snap.Terms[victim], "melon", snap.Terms[victim]},
		}
		for _, terms := range queries {
			kk := 1 + int(k)%20
			if got, want := ix.Search(terms, kk), ix.SearchReference(terms, kk); !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%v, %d) diverges from the oracle:\n got %s\nwant %s", terms, kk, rankingString(got), rankingString(want))
			}
		}
	})
}
