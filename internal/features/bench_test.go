package features

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/js/parser"
	"repro/internal/transform"
)

// benchExtract measures parse plus extraction of src the way a scan worker
// runs it: one parser session and one flow session across iterations.
func benchExtract(b *testing.B, src string) {
	e := NewExtractor(Options{})
	ps, fs := parser.NewSession(), flow.NewSession()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ps.ParseNoTokens(src)
		if err != nil {
			b.Fatal(err)
		}
		extractParsed(e, fs, src, res)
	}
}

func BenchmarkExtractRegular(b *testing.B) {
	src := corpus.GenerateRegular(rand.New(rand.NewSource(1)))
	for len(src) < 2048 {
		src += corpus.GenerateRegular(rand.New(rand.NewSource(int64(len(src)))))
	}
	benchExtract(b, src)
}

func BenchmarkExtractMinified(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	src := corpus.GenerateRegular(rng)
	min, err := transform.Transform(src, rng, transform.MinifySimple)
	if err != nil {
		b.Fatal(err)
	}
	benchExtract(b, min)
}
