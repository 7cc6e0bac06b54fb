package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	if r := f.Results[1]; r.Name != "repro/internal/core.BenchmarkScanBatch" || r.NsPerOp != 500000000 {
		t.Fatalf("ScanBatch result = %+v", r)
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
	// Empty parse output is an error, not an empty baseline.
	empty := writeInput(t, "PASS\nok 	 pkg 	 0.1s\n")
	if code := run([]string{"run", "-input", empty, "-out", filepath.Join(t.TempDir(), "o.json")}, &stdout, &stderr); code != 1 {
		t.Errorf("run with no parsed results: exit %d, want 1", code)
	}
	if code := run([]string{"help"}, &stdout, &stderr); code != 0 {
		t.Errorf("help: exit %d, want 0", code)
	}
}

func TestABSubcommand(t *testing.T) {
	const base = "pkg: p\nBenchmarkX-2 \t 10 \t 1000 ns/op \t 64 B/op \t 2 allocs/op\n"
	const head = "pkg: p\nBenchmarkX-2 \t 10 \t 800 ns/op \t 32 B/op \t 1 allocs/op\n"
	args := []string{"ab", writeInput(t, base), writeInput(t, head), writeInput(t, base), writeInput(t, head)}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"p.BenchmarkX", "ns/op", "0.800", "allocs/op", "0.500", "2/2", "verdict"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if code := run([]string{"ab", writeInput(t, "PASS\n"), writeInput(t, "PASS\n")}, &stdout, &stderr); code != 1 {
		t.Errorf("no shared benchmark: exit = %d, want 1", code)
	}
}

// abLine renders one benchmark result line with the given ns/op, B/op and
// allocs/op.
func abLine(name string, ns, bytes, allocs int) string {
	return fmt.Sprintf("%s-2 \t 10 \t %d ns/op \t %d B/op \t %d allocs/op\n", name, ns, bytes, allocs)
}

// abBase is the base side of every gate test: one benchmark at 1000 ns/op,
// 1000 B/op and 4 allocs/op.
const abBase = "pkg: p\n" + "BenchmarkX-2 \t 10 \t 1000 ns/op \t 1000 B/op \t 4 allocs/op\n"

// runAB runs the ab gate over three pairs of base and head, with flags
// before the files, and returns its exit code and stdout.
func runAB(t *testing.T, base, head string, flags ...string) (int, string) {
	t.Helper()
	args := append([]string{"ab"}, flags...)
	for range 3 {
		args = append(args, writeInput(t, base), writeInput(t, head))
	}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

// TestCompareWithinTolerance: a head 10% slower in every pair stays under
// the default 15% bound.
func TestCompareWithinTolerance(t *testing.T) {
	head := "pkg: p\n" + abLine("BenchmarkX", 1100, 1000, 4)
	code, out := runAB(t, abBase, head)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s", code, out)
	}
	if !strings.Contains(out, "ok: every median") {
		t.Fatalf("missing ok line:\n%s", out)
	}
}

// TestCompareFlagsRegression: a head 15% slower across pairs fails a 10%
// bound with exit 2, naming the benchmark and the metric, and a looser
// tolerance lets the same runs through.
func TestCompareFlagsRegression(t *testing.T) {
	head := "pkg: p\n" + abLine("BenchmarkX", 1150, 1000, 4)
	code, out := runAB(t, abBase, head, "-tolerance", "0.10")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stdout:\n%s", code, out)
	}
	if want := "FAIL: p.BenchmarkX ns/op median h/b 1.150 > 1.100"; !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
	if code, out := runAB(t, abBase, head, "-tolerance", "0.20"); code != 0 {
		t.Fatalf("-tolerance 0.20: exit = %d, want 0; stdout:\n%s", code, out)
	}
}

// TestCompareFlagsAllocRegression: with timing flat, B/op +11% or
// allocs/op +100% fails the fixed memory bound on its own column, and no
// -tolerance loosens it.
func TestCompareFlagsAllocRegression(t *testing.T) {
	cases := []struct{ name, head, says string }{
		{"B/op +11%", abLine("BenchmarkX", 1000, 1110, 4),
			"FAIL: p.BenchmarkX B/op median h/b 1.110 > 1.100"},
		{"allocs/op +100%", abLine("BenchmarkX", 1000, 1000, 8),
			"FAIL: p.BenchmarkX allocs/op median h/b 2.000 > 1.100"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, tol := range []string{"0.15", "5"} {
				code, out := runAB(t, abBase, "pkg: p\n"+c.head, "-tolerance", tol)
				if code != 2 {
					t.Fatalf("-tolerance %s: exit = %d, want 2; stdout:\n%s", tol, code, out)
				}
				if !strings.Contains(out, c.says) {
					t.Errorf("-tolerance %s: output lacks %q:\n%s", tol, c.says, out)
				}
				if strings.Contains(out, "ns/op median h/b") {
					t.Errorf("-tolerance %s: flat timing reported as failing:\n%s", tol, out)
				}
			}
		})
	}
}

// TestABGateExitCodes covers the gate's other exits: 0 on identical runs
// and when a benchmark ran on one side only, 2 on an odd file count.
func TestABGateExitCodes(t *testing.T) {
	if code, out := runAB(t, abBase, abBase); code != 0 || !strings.Contains(out, "ok: every median") {
		t.Errorf("identical runs: exit = %d, want 0; stdout:\n%s", code, out)
	}
	code, out := runAB(t, abBase, abBase+abLine("BenchmarkNew", 5000, 5000, 4))
	if code != 0 {
		t.Errorf("one side only: exit = %d, want 0; stdout:\n%s", code, out)
	}
	if want := "not gated, ran on one side: p.BenchmarkNew (head only)"; !strings.Contains(out, want) {
		t.Errorf("one side only: output lacks %q:\n%s", want, out)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"ab", writeInput(t, abBase)}, &stdout, &stderr); code != 2 {
		t.Errorf("odd file count: exit = %d, want 2", code)
	}
}
