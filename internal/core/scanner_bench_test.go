package core

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/transform"
)

// benchScanInputs builds a realistic batch: regular scripts plus one
// transformed variant each, so the scan sees both light and heavy parses.
func benchScanInputs(b *testing.B) []Input {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	bases := corpus.RegularSet(16, rng)
	inputs := make([]Input, 0, 2*len(bases))
	for i := range bases {
		inputs = append(inputs, Input{Path: bases[i].Name, Source: bases[i].Source})
		tf, err := corpus.Apply(bases[i], rng, transform.Techniques[i%len(transform.Techniques)])
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, Input{Path: tf.Name, Source: tf.Source})
	}
	return inputs
}

func benchDetectors(b *testing.B, featOpts features.Options) (*Detector, *Detector) {
	b.Helper()
	l1 := tinyDetectorB(Level1Labels, []float64{0.1, 0.9, 0.2}, featOpts)
	probs := make([]float64, len(transform.Techniques))
	for i := range probs {
		probs[i] = 0.9 - 0.05*float64(i)
	}
	return l1, tinyDetectorB(Level2Labels(), probs, featOpts)
}

func tinyDetectorB(labels []string, probs []float64, featOpts features.Options) *Detector {
	return &Detector{extractor: features.NewExtractor(featOpts), model: leafChain(labels, probs)}
}

func totalBytes(inputs []Input) int64 {
	var n int64
	for _, in := range inputs {
		n += int64(len(in.Source))
	}
	return n
}

// BenchmarkScanBatch measures the parse-once batch engine with Explain on:
// one parse and one flow graph per file feed the features, both detectors,
// and the indicator rules.
func BenchmarkScanBatch(b *testing.B) {
	inputs := benchScanInputs(b)
	l1, l2 := benchDetectors(b, features.Options{NGramDims: 1024})
	s, err := NewScanner(l1, l2, ScanOptions{Explain: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := s.ScanBatch(inputs)
		if stats.ParseFailures != 0 {
			b.Fatalf("parse failures: %d", stats.ParseFailures)
		}
	}
}

// benchDupInputs replicates the standard bench batch four times under
// distinct paths: 75% of the inputs repeat earlier content, like a crawl that
// finds the same bundles on many pages.
func benchDupInputs(b *testing.B) []Input {
	base := benchScanInputs(b)
	inputs := make([]Input, 0, 4*len(base))
	for copyNum := 0; copyNum < 4; copyNum++ {
		for _, in := range base {
			inputs = append(inputs, Input{
				Path:   string(rune('a'+copyNum)) + "/" + in.Path,
				Source: in.Source,
			})
		}
	}
	return inputs
}

// BenchmarkScanBatchDupes scans the duplicate-heavy batch without the dedup
// cache: every repeat pays the full pipeline.
func BenchmarkScanBatchDupes(b *testing.B) {
	inputs := benchDupInputs(b)
	l1, l2 := benchDetectors(b, features.Options{NGramDims: 1024})
	s, err := NewScanner(l1, l2, ScanOptions{Explain: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := s.ScanBatch(inputs)
		if stats.ParseFailures != 0 {
			b.Fatalf("parse failures: %d", stats.ParseFailures)
		}
	}
}

// BenchmarkScanBatchDupesDedup is the same batch with the content-hash cache
// on. A fresh scanner per iteration keeps the cold misses inside the measured
// region, so the number reflects one real batch (miss once, hit thrice), not
// an eternally warm cache.
func BenchmarkScanBatchDupesDedup(b *testing.B) {
	inputs := benchDupInputs(b)
	l1, l2 := benchDetectors(b, features.Options{NGramDims: 1024})
	// One worker never has a copy in flight while it looks up the next, so
	// every repeat is a hit: exactly three of each four copies. The timed
	// scans run at the default width, where concurrent misses on the same
	// content may both compute, so their count is not pinned.
	serial, err := NewScanner(l1, l2, ScanOptions{Workers: 1, Explain: true, Dedup: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, stats := serial.ScanBatch(inputs); stats.Deduped != len(inputs)*3/4 {
		b.Fatalf("Deduped = %d at one worker, want %d", stats.Deduped, len(inputs)*3/4)
	}
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewScanner(l1, l2, ScanOptions{Explain: true, Dedup: true})
		if err != nil {
			b.Fatal(err)
		}
		_, stats := s.ScanBatch(inputs)
		if stats.ParseFailures != 0 {
			b.Fatalf("parse failures: %d", stats.ParseFailures)
		}
	}
}

// benchMixedInputs builds the 80/20 easy/hard mix the triage cascade is
// designed for: 80% of the files are easy (hand-formatted regular scripts
// plus simply minified ones — the mass a crawl actually sees), 20% are hard
// (obfuscating transforms that must escalate to the full pipeline).
func benchMixedInputs(b *testing.B) []Input {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	bases := corpus.RegularSet(40, rng)
	hardTechs := []transform.Technique{
		transform.StringObfuscation, transform.ControlFlowFlattening,
		transform.DeadCodeInjection, transform.GlobalArray,
	}
	inputs := make([]Input, 0, len(bases))
	for i, base := range bases {
		switch {
		case i%5 == 0: // 20% hard: obfuscated
			tf, err := corpus.Apply(base, rng, hardTechs[i%len(hardTechs)])
			if err != nil {
				b.Fatal(err)
			}
			inputs = append(inputs, Input{Path: tf.Name, Source: tf.Source})
		case i%5 == 1: // 16% easy: minified
			tf, err := corpus.Apply(base, rng, transform.MinifySimple)
			if err != nil {
				b.Fatal(err)
			}
			inputs = append(inputs, Input{Path: tf.Name, Source: tf.Source})
		default: // 64% easy: regular
			inputs = append(inputs, Input{Path: base.Name, Source: base.Source})
		}
	}
	return inputs
}

// BenchmarkScanBatchMixed is the no-triage control for the 80/20 mix: every
// file, easy or hard, pays the full parse→flow→features→infer pipeline.
func BenchmarkScanBatchMixed(b *testing.B) {
	inputs := benchMixedInputs(b)
	l1, l2 := benchDetectors(b, features.Options{NGramDims: 1024})
	s, err := NewScanner(l1, l2, ScanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := s.ScanBatch(inputs)
		if stats.ParseFailures != 0 {
			b.Fatalf("parse failures: %d", stats.ParseFailures)
		}
	}
}

// BenchmarkScanBatchTriage is the same 80/20 mix with the stage-0 cascade
// on: high-confidence easy files route around the pipeline, hard files
// escalate. The headline number the tentpole claims — ≥2× over
// BenchmarkScanBatchMixed — comes from this pair; the false-bypass gate
// (TestTriageFalseBypassGate) is what makes the shortcut honest.
func BenchmarkScanBatchTriage(b *testing.B) {
	inputs := benchMixedInputs(b)
	l1, l2 := benchDetectors(b, features.Options{NGramDims: 1024})
	s, err := NewScanner(l1, l2, ScanOptions{Triage: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := s.ScanBatch(inputs)
		if stats.ParseFailures != 0 {
			b.Fatalf("parse failures: %d", stats.ParseFailures)
		}
		if stats.Bypassed < len(inputs)/2 {
			b.Fatalf("only %d/%d bypassed; the mix is not exercising the cascade", stats.Bypassed, len(inputs))
		}
	}
}
