package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

const capturedBench = `pkg: repro/internal/core
cpu: Test CPU
BenchmarkScanBatch-4 	 2 	 500000000 ns/op	 1000 B/op	 10 allocs/op
BenchmarkParseFlow-4 	 50 	 10000000 ns/op	 500 B/op	 5 allocs/op
PASS
`

func writeInput(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFromInputWritesBaseline(t *testing.T) {
	input := writeInput(t, capturedBench)
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-input", input, "-out", out, "-note", "unit test"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f benchfmt.File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != benchfmt.Schema || f.CreatedUnix == 0 || f.GoVersion == "" {
		t.Fatalf("baseline metadata incomplete: %+v", f)
	}
	if f.CPU != "Test CPU" || f.Note != "unit test" {
		t.Fatalf("provenance lost: %+v", f)
	}
	if len(f.Results) != 2 {
		t.Fatalf("results = %+v, want 2", f.Results)
	}
	r, ok := f.Lookup("repro/internal/core.BenchmarkScanBatch")
	if !ok || r.NsPerOp != 500000000 {
		t.Fatalf("Lookup = %+v, %v", r, ok)
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	input := writeInput(t, capturedBench)
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-input", input, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exit = %d: %s", code, stderr.String())
	}
	// A +10% drift stays under the 15% gate.
	drifted := strings.ReplaceAll(capturedBench, "500000000", "550000000")
	stdout.Reset()
	code := run([]string{"compare", "-baseline", out, "-input", writeInput(t, drifted)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("compare exit = %d, stdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "ok: no benchmark regressions") {
		t.Fatalf("missing ok line:\n%s", stdout.String())
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	input := writeInput(t, capturedBench)
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-input", input, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exit = %d: %s", code, stderr.String())
	}
	// +40% on ScanBatch must trip the default 15% gate with exit 2.
	regressed := strings.ReplaceAll(capturedBench, "500000000", "700000000")
	stdout.Reset()
	code := run([]string{"compare", "-baseline", out, "-input", writeInput(t, regressed)}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("compare exit = %d, want 2, stdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSED") || !strings.Contains(stdout.String(), "FAIL") {
		t.Fatalf("regression not reported:\n%s", stdout.String())
	}
	// A looser gate lets the same drift through.
	stdout.Reset()
	code = run([]string{"compare", "-baseline", out, "-tolerance", "0.5", "-input", writeInput(t, regressed)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("compare -tolerance 0.5 exit = %d, stdout:\n%s", code, stdout.String())
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	input := writeInput(t, capturedBench)
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-input", input, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exit = %d: %s", code, stderr.String())
	}
	// Timing unchanged, allocs/op +100% on ScanBatch: the memory gate alone
	// must flag the run.
	regressed := strings.ReplaceAll(capturedBench, " 10 allocs/op", " 20 allocs/op")
	stdout.Reset()
	code := run([]string{"compare", "-baseline", out, "-input", writeInput(t, regressed)}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("compare exit = %d, want 2, stdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSED (allocs/op)") {
		t.Fatalf("alloc regression not attributed to its column:\n%s", stdout.String())
	}
	// -alloc-tolerance -1 disables memory gating; timing is clean, so the
	// same drift passes.
	stdout.Reset()
	code = run([]string{"compare", "-baseline", out, "-alloc-tolerance", "-1", "-input", writeInput(t, regressed)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("compare -alloc-tolerance -1 exit = %d, stdout:\n%s", code, stdout.String())
	}
}

func TestDiffSubcommand(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	newer := filepath.Join(dir, "new.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-input", writeInput(t, capturedBench), "-out", old}, &stdout, &stderr); code != 0 {
		t.Fatal(stderr.String())
	}
	faster := strings.ReplaceAll(capturedBench, "500000000", "300000000")
	if code := run([]string{"run", "-input", writeInput(t, faster), "-out", newer}, &stdout, &stderr); code != 0 {
		t.Fatal(stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"diff", old, newer}, &stdout, &stderr); code != 0 {
		t.Fatalf("diff exit = %d:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "improved") {
		t.Fatalf("improvement not reported:\n%s", stdout.String())
	}
}

func TestErrorPaths(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	if code := run([]string{"run", "-input", "x"}, &stdout, &stderr); code != 2 {
		t.Errorf("run without -out: exit %d, want 2", code)
	}
	if code := run([]string{"run", "-input", "/no/such/file", "-out", filepath.Join(t.TempDir(), "o.json")}, &stdout, &stderr); code != 1 {
		t.Errorf("run with missing input: exit %d, want 1", code)
	}
	if code := run([]string{"compare", "-input", "x"}, &stdout, &stderr); code != 2 {
		t.Errorf("compare without -baseline: exit %d, want 2", code)
	}
	if code := run([]string{"diff", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("diff with one file: exit %d, want 2", code)
	}
	// Empty parse output is an error, not an empty baseline.
	empty := writeInput(t, "PASS\nok 	 pkg 	 0.1s\n")
	if code := run([]string{"run", "-input", empty, "-out", filepath.Join(t.TempDir(), "o.json")}, &stdout, &stderr); code != 1 {
		t.Errorf("run with no parsed results: exit %d, want 1", code)
	}
	// Baseline with the wrong schema is rejected.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"compare", "-baseline", bad, "-input", writeInput(t, capturedBench)}, &stdout, &stderr); code != 1 {
		t.Errorf("bad schema: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "schema") {
		t.Errorf("schema error not attributed: %s", stderr.String())
	}
	if code := run([]string{"help"}, &stdout, &stderr); code != 0 {
		t.Errorf("help: exit %d, want 0", code)
	}
}

func TestABSubcommand(t *testing.T) {
	const base = "pkg: p\nBenchmarkX-2 \t 10 \t 1000 ns/op \t 400 cpu-ns/op \t 64 B/op \t 2 allocs/op\n"
	const head = "pkg: p\nBenchmarkX-2 \t 10 \t 800 ns/op \t 300 cpu-ns/op \t 32 B/op \t 1 allocs/op\n"
	args := []string{"ab", writeInput(t, base), writeInput(t, head), writeInput(t, base), writeInput(t, head)}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"p.BenchmarkX", "ns/op", "0.800", "cpu-ns/op", "0.750", "allocs/op", "0.500", "2/2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if code := run([]string{"ab", writeInput(t, base)}, &stdout, &stderr); code != 2 {
		t.Errorf("odd file count: exit = %d, want 2", code)
	}
	if code := run([]string{"ab", writeInput(t, "PASS\n"), writeInput(t, "PASS\n")}, &stdout, &stderr); code != 1 {
		t.Errorf("no shared benchmark: exit = %d, want 1", code)
	}
}
