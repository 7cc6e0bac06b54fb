package benchfmt

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Example CPU @ 2.00GHz
BenchmarkScanBatch-8         	       2	 500000000 ns/op	1000000 B/op	    5000 allocs/op	      32.0 files/sec
BenchmarkScanBatch-8         	       2	 520000000 ns/op	1010000 B/op	    5000 allocs/op	      30.0 files/sec
BenchmarkParseFlow-8         	     100	  12000000 ns/op	  400000 B/op	    2000 allocs/op
PASS
ok  	repro/internal/core	3.456s
pkg: repro/internal/js/parser
BenchmarkParse-8             	     300	   4000000 ns/op	  100000 B/op	     900 allocs/op
PASS
`

func TestParseOutput(t *testing.T) {
	results, cpu, err := ParseOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Example CPU @ 2.00GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results %+v, want 3", len(results), results)
	}
	// Sorted by name; package qualification applied.
	wantNames := []string{
		"repro/internal/core.BenchmarkParseFlow",
		"repro/internal/core.BenchmarkScanBatch",
		"repro/internal/js/parser.BenchmarkParse",
	}
	for i, r := range results {
		if r.Name != wantNames[i] {
			t.Errorf("result %d = %q, want %q", i, r.Name, wantNames[i])
		}
	}
	scan := results[1]
	if scan.Runs != 2 {
		t.Errorf("Runs = %d, want 2", scan.Runs)
	}
	if scan.NsPerOp != 500000000 { // min of the two runs
		t.Errorf("NsPerOp = %v, want min run 500000000", scan.NsPerOp)
	}
	if scan.BytesPerOp != 1000000 || scan.AllocsPerOp != 5000 {
		t.Errorf("mem = %v B/op %v allocs/op", scan.BytesPerOp, scan.AllocsPerOp)
	}
	if got := scan.Metrics["files/sec"]; got != 31.0 { // mean of 32 and 30
		t.Errorf("files/sec = %v, want 31", got)
	}
	if results[0].Metrics != nil {
		t.Errorf("ParseFlow has spurious metrics: %v", results[0].Metrics)
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	repro/internal/core	3.456s",
		"goos: linux",
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"BenchmarkNoPairs-8 100",
		"--- FAIL: TestSomething",
		"",
	} {
		if m, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted noise: %+v", line, m)
		}
	}
}

func TestParseLineKeepsUnsuffixedName(t *testing.T) {
	m, ok := parseLine("BenchmarkSerial 	 10 	 100 ns/op")
	if !ok || m.name != "BenchmarkSerial" {
		t.Fatalf("m = %+v ok = %v", m, ok)
	}
	// A trailing -word that is not a GOMAXPROCS count stays in the name.
	m, ok = parseLine("BenchmarkScan/sub-case-8 	 10 	 100 ns/op")
	if !ok || m.name != "BenchmarkScan/sub-case" {
		t.Fatalf("m = %+v ok = %v", m, ok)
	}
}

func TestFileRoundTripAndLookup(t *testing.T) {
	results, _, err := ParseOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	f := File{Schema: Schema, GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", Results: results}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || len(back.Results) != len(results) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i, r := range back.Results {
		if r.Name != results[i].Name || r.NsPerOp != results[i].NsPerOp || r.Runs != results[i].Runs {
			t.Fatalf("result %d = %+v, want %+v", i, r, results[i])
		}
	}
}

// TestParseLineEdges covers the malformed shapes parseLine must reject and
// the odd ones it must keep.
func TestParseLineEdges(t *testing.T) {
	rejected := []string{
		"",
		"BenchmarkX-8",                     // too few fields
		"BenchmarkX-8 notanumber 5 ns/op",  // bad iteration count
		"BenchmarkX-8 10 notanumber ns/op", // bad value
		"NotABenchmark 10 5 ns/op",         // wrong prefix
		"BenchmarkX-8 10 tail",             // no value/unit pairs
	}
	for _, line := range rejected {
		if m, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted: %+v", line, m)
		}
	}
	// A trailing field without a unit partner is ignored, not fatal.
	m, ok := parseLine("BenchmarkX-8 10 5 ns/op dangling")
	if !ok || m.vals["ns/op"] != 5 {
		t.Errorf("parseLine with dangling field = %+v, %v", m, ok)
	}
	// Unsuffixed names survive; the -N suffix must be numeric to be dropped.
	m, ok = parseLine("BenchmarkX-abc 10 5 ns/op")
	if !ok || m.name != "BenchmarkX-abc" {
		t.Errorf("non-numeric suffix: got %+v, %v", m, ok)
	}
}
