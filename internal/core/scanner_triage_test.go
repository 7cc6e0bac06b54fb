package core

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/js/parser"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/triage"
)

// --- verdict codec -----------------------------------------------------------

func TestVerdictCodecRoundTrip(t *testing.T) {
	l2 := Level2FromProbs([]float64{0.1, 0.9, 0.2, 0.3, 0.05, 0.6, 0.7, 0.01, 0.4, 0.55})
	cases := []FileResult{
		{Bytes: 123, Level1: Level1Result{Regular: 0.97, Minified: 0.01, Obfuscated: 0.02}},
		{Bytes: 456, Level1: Level1Result{Minified: 0.8, Obfuscated: 0.6}, Level2: &l2},
		{Bytes: 7, Err: errors.New("parse: unexpected token")},
		{Bytes: 9000, Level1: Level1Result{Regular: 1}, Bypassed: true},
	}
	cases = append(cases, FileResult{Bytes: 1, Diagnostics: truncatedSnippetDiagnostics(t)})
	for i, in := range cases {
		raw, err := encodeVerdict(in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		out, err := decodeVerdict(raw)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// Errors survive as text, not as the identical value.
		if (in.Err == nil) != (out.Err == nil) {
			t.Fatalf("case %d: error presence changed", i)
		}
		if in.Err != nil && in.Err.Error() != out.Err.Error() {
			t.Fatalf("case %d: error text %q -> %q", i, in.Err, out.Err)
		}
		in.Err, out.Err = nil, nil
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("case %d: round trip changed the verdict:\n in  %+v\n out %+v", i, in, out)
		}
	}
}

// truncatedSnippetDiagnostics returns real diagnostics whose snippets are
// cut at the length cap inside non-ASCII text: a string-array diagnostic over
// 30 "é…é" elements, where the byte cap falls inside an "é".
func truncatedSnippetDiagnostics(t *testing.T) []analysis.Diagnostic {
	t.Helper()
	src := "var _arr = [" + strings.Repeat(`"é…é", `, 29) + `"é…é"];` +
		"\nfunction fetch(i) { return _arr[i - 2]; }\nfetch(2); fetch(3);\n"
	res, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Default().Run(&analysis.Context{Src: src, Result: res, Program: res.Program, Graph: flow.NewSession().Build(res.Program)})
	truncated := false
	for _, d := range diags {
		truncated = truncated || strings.HasSuffix(d.Snippet, "…")
	}
	if !truncated {
		t.Fatal("no diagnostic snippet was truncated; the case no longer exercises the cut")
	}
	return diags
}

func TestVerdictCodecRejectsMalformed(t *testing.T) {
	for _, raw := range []string{
		"",
		"not json",
		`{"v":99,"bytes":1,"level1":[1,0,0]}`,
		`{"v":1,"bytes":1,"level1":[1,0,0],"level2":[{"technique":"no-such-technique","probability":0.5}]}`,
	} {
		if _, err := decodeVerdict([]byte(raw)); err == nil {
			t.Errorf("decode(%q) succeeded, want error", raw)
		}
	}
}

// --- triage wiring -----------------------------------------------------------

// TestScanTriageBypass pins the mechanics of ScanOptions.Triage: easy regular
// files come back Bypassed with a full-confidence level 1 verdict and no
// level 2, the batch stats count them, and a scanner with triage disabled
// reports none.
func TestScanTriageBypass(t *testing.T) {
	tr := getTrained(t)
	scanner, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{Triage: true})
	if err != nil {
		t.Fatal(err)
	}

	files := corpus.RegularSet(40, rand.New(rand.NewSource(99)))
	inputs := make([]Input, len(files))
	for i, f := range files {
		inputs[i] = Input{Path: f.Name, Source: f.Source}
	}
	results, stats := scanner.ScanBatch(inputs)
	if stats.Bypassed == 0 {
		t.Fatal("no bypasses on a pure regular batch; triage is wired but inert")
	}
	bypassed := 0
	for _, r := range results {
		if !r.Bypassed {
			continue
		}
		bypassed++
		if r.Level1 != (Level1Result{Regular: 1}) && r.Level1 != (Level1Result{Minified: 1}) {
			t.Errorf("%s: bypassed with non-synthesized level 1 %+v", r.Path, r.Level1)
		}
		if r.Level2 != nil {
			t.Errorf("%s: bypassed result carries a level 2 ranking", r.Path)
		}
		if r.Err != nil {
			t.Errorf("%s: bypassed result carries an error: %v", r.Path, r.Err)
		}
	}
	if bypassed != stats.Bypassed {
		t.Fatalf("stats.Bypassed = %d, results say %d", stats.Bypassed, bypassed)
	}

	// Every bypass decision must match what the router says standalone.
	for i, f := range files {
		d, _ := triage.Route(f.Source, triage.Config{})
		if d.Bypassed() != results[i].Bypassed {
			t.Errorf("%s: router says %s, scanner says Bypassed=%v", f.Name, d, results[i].Bypassed)
		}
	}

	plain, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, plainStats := plain.ScanBatch(inputs)
	if plainStats.Bypassed != 0 {
		t.Fatalf("triage-off scanner reported %d bypasses", plainStats.Bypassed)
	}
}

// --- verdict store wiring ----------------------------------------------------

func verdictInputs(files []corpus.File) []Input {
	inputs := make([]Input, len(files))
	for i, f := range files {
		inputs[i] = Input{Path: f.Name, Source: f.Source}
	}
	return inputs
}

// sameVerdict compares the verdict content of two results, ignoring
// provenance flags (Deduped, FromStore).
func sameVerdict(t *testing.T, path string, a, b FileResult) {
	t.Helper()
	if (a.Err == nil) != (b.Err == nil) ||
		(a.Err != nil && a.Err.Error() != b.Err.Error()) {
		t.Errorf("%s: error changed: %v -> %v", path, a.Err, b.Err)
	}
	if a.Level1 != b.Level1 {
		t.Errorf("%s: level 1 changed: %+v -> %+v", path, a.Level1, b.Level1)
	}
	if !reflect.DeepEqual(a.Level2, b.Level2) {
		t.Errorf("%s: level 2 changed", path)
	}
	if a.Bypassed != b.Bypassed {
		t.Errorf("%s: bypassed flag changed: %v -> %v", path, a.Bypassed, b.Bypassed)
	}
}

// TestScanVerdictStoreWarm pins the store cascade end to end: a cold batch
// persists every verdict, a second scanner over the same store answers the
// repeat batch entirely from disk with verdicts identical to the cold run,
// and the hits survive a store close/reopen (the "restart").
func TestScanVerdictStoreWarm(t *testing.T) {
	tr := getTrained(t)
	dir := t.TempDir()

	rng := rand.New(rand.NewSource(181))
	files := corpus.RegularSet(12, rng)
	pool, err := corpus.TransformPool(files[:3], rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range transform.Techniques {
		files = append(files, pool[tech]...)
	}
	// Distinct contents only: a repeated content inside the cold batch would
	// (correctly) hit the verdict its first occurrence just persisted, and
	// this test wants a clean cold/warm split.
	seen := make(map[string]bool)
	uniq := files[:0]
	for _, f := range files {
		if !seen[f.Source] {
			seen[f.Source] = true
			uniq = append(uniq, f)
		}
	}
	files = uniq
	inputs := verdictInputs(files)

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{Triage: true, VerdictStore: st})
	if err != nil {
		t.Fatal(err)
	}
	coldResults, coldStats := cold.ScanBatch(inputs)
	if coldStats.StoreHits != 0 {
		t.Fatalf("cold scan reported %d store hits", coldStats.StoreHits)
	}
	if got, _ := cold.StoreStats(); got.Entries != len(inputs) {
		t.Fatalf("store holds %d entries after cold scan of %d files", got.Entries, len(inputs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: reopen the store, build a fresh scanner (empty dedup cache).
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{Triage: true, VerdictStore: st2})
	if err != nil {
		t.Fatal(err)
	}
	warmResults, warmStats := warm.ScanBatch(inputs)
	if warmStats.StoreHits != len(inputs) {
		t.Fatalf("warm scan: %d/%d store hits, want all", warmStats.StoreHits, len(inputs))
	}
	for i := range inputs {
		if !warmResults[i].FromStore {
			t.Errorf("%s: warm result not marked FromStore", inputs[i].Path)
		}
		sameVerdict(t, inputs[i].Path, coldResults[i], warmResults[i])
	}
	if warmStats.Bypassed != coldStats.Bypassed {
		t.Errorf("bypassed count changed across restart: %d -> %d", coldStats.Bypassed, warmStats.Bypassed)
	}
}

// TestScanStoreSaltIsolation pins the key salt: a scanner with a different
// cascade configuration sharing the same store directory must never see the
// other configuration's verdicts.
func TestScanStoreSaltIsolation(t *testing.T) {
	tr := getTrained(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	files := corpus.RegularSet(6, rand.New(rand.NewSource(5)))
	inputs := verdictInputs(files)

	a, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{VerdictStore: st})
	if err != nil {
		t.Fatal(err)
	}
	a.ScanBatch(inputs)

	b, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{VerdictStore: st, Triage: true})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := b.ScanBatch(inputs)
	if stats.StoreHits != 0 {
		t.Fatalf("scanner with different cascade config got %d hits from a foreign store", stats.StoreHits)
	}

	// Same configuration hits everything the first scanner persisted.
	c, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{VerdictStore: st})
	if err != nil {
		t.Fatal(err)
	}
	_, stats = c.ScanBatch(inputs)
	if stats.StoreHits != len(inputs) {
		t.Fatalf("identical config got %d/%d hits", stats.StoreHits, len(inputs))
	}
}

// TestStoreKeyDerivation pins the store key to SHA-256 over the content hash
// followed by the salt: a store written under one derivation misses under
// any other, so changing it would silently cold-start every existing store.
func TestStoreKeyDerivation(t *testing.T) {
	var s Scanner
	for i := range s.storeSalt {
		s.storeSalt[i] = byte(i * 7)
	}
	k := hashSource("x = 1;")
	h := sha256.New()
	h.Write(k[:])
	h.Write(s.storeSalt[:])
	var want store.Key
	h.Sum(want[:0])
	if got := s.storeKey(k); got != want {
		t.Fatalf("storeKey = %x, want %x", got, want)
	}
}

// TestScanStoreCorruptValueRescans pins the decode-failure path: a stored
// value the codec cannot parse is a miss, and the scan overwrites it with a
// fresh verdict instead of serving garbage.
func TestScanStoreCorruptValueRescans(t *testing.T) {
	tr := getTrained(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	files := corpus.RegularSet(1, rand.New(rand.NewSource(17)))
	inputs := verdictInputs(files)

	s, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{VerdictStore: st})
	if err != nil {
		t.Fatal(err)
	}
	key := s.storeKey(hashSource(inputs[0].Source))
	if err := st.Put(key, []byte(`{"v":99}`)); err != nil {
		t.Fatal(err)
	}

	results, stats := s.ScanBatch(inputs)
	if stats.StoreHits != 0 {
		t.Fatal("undecodable stored value was served as a hit")
	}
	if results[0].Err != nil {
		t.Fatalf("scan failed: %v", results[0].Err)
	}
	raw, ok := st.Get(key)
	if !ok {
		t.Fatal("fresh verdict was not persisted over the corrupt one")
	}
	if _, err := decodeVerdict(raw); err != nil {
		t.Fatalf("overwritten value still undecodable: %v", err)
	}
}
