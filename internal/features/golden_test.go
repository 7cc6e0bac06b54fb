package features

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/walker"
	"repro/internal/transform"
)

// refNgram is the original string-hashing n-gram implementation, kept here as
// the executable specification of the bucket layout: collect the pre-order
// Type() sequence, feed each window's names (0-separated) through hash/fnv's
// FNV-1a, bucket by Sum32 mod dims, normalize by window count. The memoized
// kind-table path in ngramFeatures must reproduce it bit for bit — trained
// models key on this layout.
func refNgram(prog *ast.Program, dims int) []float64 {
	var seq []string
	walker.Walk(prog, func(nd ast.Node, _ int) bool {
		seq = append(seq, nd.Type())
		return true
	})
	return refNgramNames(seq, dims)
}

// refNgramNames is refNgram over an already collected type-name sequence.
func refNgramNames(seq []string, dims int) []float64 {
	out := make([]float64, dims)
	total := 0
	for i := 0; i+NGramLen <= len(seq); i++ {
		out[refBucket(seq[i:i+NGramLen], dims)]++
		total++
	}
	if total > 0 {
		for i := range out {
			out[i] /= float64(total)
		}
	}
	return out
}

// refBucket is the reference bucket of one window of type names.
func refBucket(window []string, dims int) int {
	h := fnv.New32a()
	for _, name := range window {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	return int(h.Sum32()) % dims
}

// goldenFixtures builds a corpus that exercises every transformation
// technique plus untransformed bases, so the comparison covers the node-type
// mixes each technique produces.
func goldenFixtures(t *testing.T) []corpus.File {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	bases := corpus.RegularSet(len(transform.Techniques), rng)
	files := append([]corpus.File(nil), bases...)
	for i, tech := range transform.Techniques {
		tf, err := corpus.Apply(bases[i], rng, tech)
		if err != nil {
			t.Fatalf("apply %s: %v", tech, err)
		}
		files = append(files, tf)
	}
	return files
}

// TestNGramGoldenVectors is the tentpole's bit-identity guarantee: across
// fixtures spanning all ten techniques and several bucket space sizes, the
// zero-alloc path assigns every window to the same bucket as the reference
// implementation.
func TestNGramGoldenVectors(t *testing.T) {
	files := goldenFixtures(t)
	for _, dims := range []int{64, 1024} {
		e := NewExtractor(Options{NGramDims: dims})
		for _, f := range files {
			res, err := parser.ParseNoTokens(f.Source)
			if err != nil {
				t.Fatalf("%s: parse: %v", f.Name, err)
			}
			got := make([]float64, dims)
			e.ngramFeatures(res, got)
			want := refNgram(res.Program, dims)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s dims=%d: bucket %d = %v, reference %v",
						f.Name, dims, i, got[i], want[i])
				}
			}
		}
	}
}

// kindNames maps a synthetic kind stream to the type names the reference
// hashes.
func kindNames(kinds []uint16) []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = ast.KindName(ast.Kind(k))
	}
	return names
}

// packWindow is ngramFeatures' memo key for one window.
func packWindow(w []uint16) uint32 {
	var key uint32
	for _, k := range w {
		key = key<<8 | uint32(k)
	}
	return key
}

// collidingWindows finds two distinct windows that share a memo slot but
// not a bucket, so a memo that confused them would misplace a count.
func collidingWindows(t *testing.T, dims int) (a, b []uint16) {
	t.Helper()
	seen := make(map[uint32][]uint16)
	for x := uint16(1); x < uint16(ast.KindCount); x++ {
		for y := uint16(1); y < uint16(ast.KindCount); y++ {
			w := []uint16{1, 2, x, y}
			slot := ngramMemoSlot(packWindow(w))
			if prev, ok := seen[slot]; ok &&
				refBucket(kindNames(prev), dims) != refBucket(kindNames(w), dims) {
				return prev, w
			}
			seen[slot] = w
		}
	}
	t.Fatal("no two windows share a memo slot")
	return nil, nil
}

// TestNGramMemoCollisions drives ngramFeatures' window memo through its edge
// cases on synthetic kind streams and checks every bucket against the
// hash/fnv reference over the kinds' type names.
func TestNGramMemoCollisions(t *testing.T) {
	const dims = 1024

	// Two windows in one slot, alternated: every lookup of one finds the
	// other's entry and must evict it rather than reuse its bucket.
	a, b := collidingWindows(t, dims)
	var evicting []uint16
	for i := 0; i < 64; i++ {
		evicting = append(append(evicting, a...), b...)
	}

	// The lowest kind values on a fresh memo: an all-KindInvalid window packs
	// to key 0, the key an empty slot would read as if it held no marker.
	zero := kindNames([]uint16{0, 0, 0, 0})
	if refBucket(zero, dims) == 0 {
		t.Fatal("the all-zero window lands in bucket 0; an empty-slot hit would go unnoticed")
	}
	lowest := []uint16{0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 2, 0, 0}

	// More distinct windows than the memo has slots.
	rng := rand.New(rand.NewSource(41))
	many := make([]uint16, 4*ngramMemoSlots)
	for i := range many {
		many[i] = uint16(rng.Intn(int(ast.KindCount)))
	}
	distinct := make(map[uint32]bool)
	for i := 0; i+NGramLen <= len(many); i++ {
		distinct[packWindow(many[i:i+NGramLen])] = true
	}
	if len(distinct) <= ngramMemoSlots {
		t.Fatalf("stream has %d distinct windows, want more than %d", len(distinct), ngramMemoSlots)
	}

	streams := []struct {
		name  string
		kinds []uint16
	}{
		{"evicting", evicting},
		{"lowest", lowest},
		{"zero window", []uint16{0, 0, 0, 0}},
		{"many", many},
	}
	for _, s := range streams {
		for _, d := range []int{64, dims} {
			got := make([]float64, d)
			NewExtractor(Options{NGramDims: d}).ngramFeatures(&parser.Result{Kinds: s.kinds}, got)
			want := refNgramNames(kindNames(s.kinds), d)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s dims=%d: bucket %d = %v, reference %v", s.name, d, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExtractFullDeterministic locks the whole vector, not just the n-gram
// block: two independent extractors (pooled scratch and all) must produce
// bit-identical ExtractFull output for every fixture and layout.
func TestExtractFullDeterministic(t *testing.T) {
	files := goldenFixtures(t)
	for _, ruleFeatures := range []bool{false, true} {
		a := NewExtractor(Options{NGramDims: 256, RuleFeatures: ruleFeatures})
		b := NewExtractor(Options{NGramDims: 256, RuleFeatures: ruleFeatures})
		fa, fb := flow.NewSession(), flow.NewSession()
		for _, f := range files {
			res, err := parser.ParseNoTokens(f.Source)
			if err != nil {
				t.Fatalf("%s: parse: %v", f.Name, err)
			}
			va := extractParsed(a, fa, f.Source, res)
			vb := extractParsed(b, fb, f.Source, res)
			if len(va) != a.Dim() || len(vb) != len(va) {
				t.Fatalf("%s: vector length %d/%d, want %d", f.Name, len(va), len(vb), a.Dim())
			}
			for i := range va {
				if va[i] != vb[i] {
					t.Fatalf("%s (ruleFeatures=%v): dimension %d differs: %v vs %v",
						f.Name, ruleFeatures, i, va[i], vb[i])
				}
			}
		}
	}
}
