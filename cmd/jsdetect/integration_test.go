package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/transform"
)

// writeTinyModels writes constant-output level1/level2 model files for the
// default feature options (dims 1024). The canned level 1 verdict flags
// everything as minified, so the level 2 ranking always appears; the
// integration tests only assert batch behavior (order, isolation, exit
// codes), never classification quality.
func writeTinyModels(t *testing.T, dir string) {
	t.Helper()
	featOpts := features.Options{}
	fp := ml.Fingerprint{
		NGramDims:    uint32(featOpts.Dims()),
		NGramLen:     features.NGramLen,
		RuleFeatures: featOpts.RuleFeatures,
	}
	l2labels := make([]string, len(transform.Techniques))
	l2probs := make([]float64, len(transform.Techniques))
	for i, tech := range transform.Techniques {
		l2labels[i] = tech.String()
		l2probs[i] = 0.9 - 0.05*float64(i)
	}
	for name, m := range map[string]ml.MultiTask{
		"level1.model": constChain(core.Level1Labels, []float64{0.1, 0.9, 0.2}),
		"level2.model": constChain(l2labels, l2probs),
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := ml.WriteModel(f, m, fp); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// constChain builds a chain of single-leaf forests with fixed outputs.
func constChain(labels []string, probs []float64) ml.MultiTask {
	forests := make([]*ml.Forest, len(labels))
	for i := range forests {
		forests[i] = &ml.Forest{Trees: []*ml.Tree{
			{Nodes: []ml.TreeNode{{Feature: 0, Left: -1, Right: -1, Prob: probs[i]}}},
		}}
	}
	return &ml.Chain{Names: append([]string(nil), labels...), Forests: forests}
}

// writeMixedDir lays out the batch-scan fixture: good JS, broken JS, and an
// HTML page (ignored unless -html).
func writeMixedDir(t *testing.T) (models, dir string) {
	t.Helper()
	models = t.TempDir()
	writeTinyModels(t, models)
	dir = t.TempDir()
	files := map[string]string{
		"a.js":      "var a = 1; function f(x) { return x + a; } f(2);",
		"broken.js": "function ( {{{ not javascript",
		"c.js":      "for (var i = 0; i < 10; i++) { console.log(i); }",
		"page.html": "<html><script>var q = 42; q + 1;</script></html>",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return models, dir
}

// TestBatchScanMixedDirectory is the CLI acceptance test: a mixed directory
// scanned with -workers 4 yields deterministic, input-ordered output, the
// broken file is reported per-file, and the exit code stays zero (a parse
// failure is not an I/O failure).
func TestBatchScanMixedDirectory(t *testing.T) {
	models, dir := writeMixedDir(t)
	args := []string{"-models", models, "-json", "-workers", "4", dir}

	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}

	var paths []string
	var brokenErr string
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var rep report
		if err := dec.Decode(&rep); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Base(rep.Path))
		switch filepath.Base(rep.Path) {
		case "broken.js":
			brokenErr = rep.Error
		default:
			if rep.Error != "" {
				t.Errorf("%s: unexpected error %q", rep.Path, rep.Error)
			}
			if !rep.Transformed || len(rep.Techniques) == 0 {
				t.Errorf("%s: canned verdict missing: %+v", rep.Path, rep)
			}
		}
	}
	// WalkDir order is lexical, HTML excluded without -html.
	want := []string{"a.js", "broken.js", "c.js"}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Fatalf("output order = %v, want %v", paths, want)
	}
	if brokenErr == "" || !strings.Contains(brokenErr, "parse") {
		t.Fatalf("broken.js must report its parse error, got %q", brokenErr)
	}
	if !strings.Contains(stderr.String(), "broken.js") {
		t.Fatalf("stderr must name the broken file: %s", stderr.String())
	}

	// Determinism: a second identical run produces byte-identical output.
	var stdout2, stderr2 bytes.Buffer
	if code := run(args, &stdout2, &stderr2); code != 0 {
		t.Fatalf("second run exit = %d", code)
	}
	// stdout was consumed by the decoder; rerun the first scan fresh.
	var stdout1 bytes.Buffer
	run(args, &stdout1, &bytes.Buffer{})
	if !bytes.Equal(stdout1.Bytes(), stdout2.Bytes()) {
		t.Fatal("batch scan output is not deterministic across runs")
	}
}

// TestBatchScanHTMLDirectory covers the satellite fix: -html dir/ must
// collect .html/.htm files instead of finding nothing.
func TestBatchScanHTMLDirectory(t *testing.T) {
	models, dir := writeMixedDir(t)
	if err := os.WriteFile(filepath.Join(dir, "empty.htm"), []byte("<html><p>nope</p></html>"), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-models", models, "-html", "-json", "-workers", "4", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	var reps []report
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var rep report
		if err := dec.Decode(&rep); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if len(reps) != 2 {
		t.Fatalf("-html dir scan found %d inputs, want empty.htm and page.html: %+v", len(reps), reps)
	}
	if filepath.Base(reps[0].Path) != "empty.htm" || filepath.Base(reps[1].Path) != "page.html" {
		t.Fatalf("paths = %s, %s", reps[0].Path, reps[1].Path)
	}
	if reps[0].Transformed || reps[0].HTMLScripts != 0 {
		t.Fatalf("scriptless page must produce an empty report: %+v", reps[0])
	}
	if reps[1].HTMLScripts != 1 || !reps[1].Transformed {
		t.Fatalf("page.html must classify its inline script: %+v", reps[1])
	}
}

// TestExitCodes pins the exit-code contract: flag errors are 2, I/O and
// model-loading failures are 1, per-file parse failures are 0.
func TestExitCodes(t *testing.T) {
	models, dir := writeMixedDir(t)
	var sink bytes.Buffer

	if code := run([]string{"-definitely-not-a-flag"}, &sink, &sink); code != 2 {
		t.Fatalf("bad flag: exit = %d, want 2", code)
	}
	if code := run([]string{"-models", t.TempDir(), filepath.Join(dir, "a.js")}, &sink, &sink); code != 1 {
		t.Fatalf("missing models: exit = %d, want 1", code)
	}
	if code := run([]string{"-models", models, filepath.Join(dir, "no_such.js")}, &sink, &sink); code != 1 {
		t.Fatalf("unreadable input: exit = %d, want 1", code)
	}
	if code := run([]string{"-models", models, filepath.Join(dir, "broken.js")}, &sink, &sink); code != 0 {
		t.Fatalf("parse failure alone: exit = %d, want 0", code)
	}

	// An unreadable file still lets the rest of the batch scan.
	var stdout, stderr bytes.Buffer
	code := run([]string{"-models", models, filepath.Join(dir, "no_such.js"), filepath.Join(dir, "a.js")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("mixed I/O failure: exit = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "a.js") {
		t.Fatal("healthy file must still be classified after an I/O failure")
	}
}

// TestLoadRejectsWrongDimsAndSwap covers the model/CLI correctness fixes at
// the command level.
func TestLoadRejectsWrongDimsAndSwap(t *testing.T) {
	models, dir := writeMixedDir(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-models", models, "-dims", "512", filepath.Join(dir, "a.js")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("dims mismatch: exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "n-gram dims") {
		t.Fatalf("stderr must name the dims mismatch: %s", stderr.String())
	}

	// Swap the two model files: loading must fail with a descriptive error
	// instead of panicking in level1FromProbs.
	swapped := t.TempDir()
	for src, dst := range map[string]string{"level1.model": "level2.model", "level2.model": "level1.model"} {
		data, err := os.ReadFile(filepath.Join(models, src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(swapped, dst), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-models", swapped, filepath.Join(dir, "a.js")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("swapped models: exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "swapped") {
		t.Fatalf("stderr must hint at the swap: %s", stderr.String())
	}
}

// TestDedupFlag scans a directory where one file's bytes repeat under
// several names: every copy must report the same verdict under its own path,
// and -stats must surface the dedup count.
func TestDedupFlag(t *testing.T) {
	models := t.TempDir()
	writeTinyModels(t, models)
	dir := t.TempDir()
	const src = "var dup = 7; function g(x) { return x * dup; } g(3);"
	for _, name := range []string{"a.js", "b.js", "c.js", "d.js"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-models", models, "-dedup", "-stats", "-json", "-workers", "1", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "3 deduped") {
		t.Fatalf("-stats must report the dedup count: %s", stderr.String())
	}
	var reps []report
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var rep report
		if err := dec.Decode(&rep); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if len(reps) != 4 {
		t.Fatalf("got %d reports, want 4", len(reps))
	}
	for i, rep := range reps {
		if filepath.Base(rep.Path) != []string{"a.js", "b.js", "c.js", "d.js"}[i] {
			t.Errorf("report %d has path %q, want its own file", i, rep.Path)
		}
		if rep.Transformed != reps[0].Transformed || rep.Minified != reps[0].Minified {
			t.Errorf("report %d verdict diverges from the first copy", i)
		}
	}
}

// TestStatsFlag checks the -stats summary reaches stderr with the verdict
// and failure counts.
func TestStatsFlag(t *testing.T) {
	models, dir := writeMixedDir(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-models", models, "-stats", "-workers", "2", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	out := stderr.String()
	if !strings.Contains(out, "scanned 3 files") || !strings.Contains(out, "1 parse failures") {
		t.Fatalf("stats line missing or wrong: %s", out)
	}
}
