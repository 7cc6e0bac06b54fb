// Command benchreg runs the repo's benchmark suite and gates it against a
// checked-in baseline.
//
//	benchreg run -out BENCH_4.json [-bench .] [-count 3] [-note "..."] ./pkg...
//	benchreg run -input bench.txt -out BENCH_4.json
//	benchreg compare -baseline BENCH_4.json [-tolerance 0.15] [-alloc-tolerance 0.10] -input bench.txt
//	benchreg compare -baseline BENCH_4.json [-bench .] ./pkg...
//	benchreg diff old.json new.json [-tolerance 0.15] [-alloc-tolerance 0.10]
//	benchreg ab base1.txt head1.txt [base2.txt head2.txt ...]
//
// run executes `go test -run '^$' -bench <pat> -benchmem` over the named
// packages (or parses a pre-captured output file with -input), aggregates
// repeated runs, and writes a schema'd baseline JSON. compare produces a
// fresh measurement the same way and diffs it against the baseline with a
// relative tolerance on ns/op plus a separate, tighter tolerance on the
// allocs/op and B/op columns (allocation counts are near-deterministic, so
// memory regressions are gated harder than timing; -alloc-tolerance -1
// turns memory gating off); any benchmark beyond either tolerance exits
// with status 2 so scripts/bench.sh and scripts/check.sh can fail the gate.
// diff compares two baseline files directly. ab reads the raw `go test
// -bench` outputs of paired runs, one base and one head run per pair, and
// reports per benchmark the median per-pair head/base ratio of ns/op,
// cpu-ns/op, B/op and allocs/op, the count of pairs the head won and the
// base runs' relative IQR (scripts/bench.sh -ab produces the runs); it
// gates nothing.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "diff":
		return cmdDiff(args[1:], stdout, stderr)
	case "ab":
		return cmdAB(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "benchreg: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  benchreg run -out FILE [-bench PAT] [-count N] [-note S] [-input TXT] [pkg...]
  benchreg compare -baseline FILE [-tolerance F] [-alloc-tolerance F] [-bench PAT] [-count N] [-input TXT] [pkg...]
  benchreg diff OLD.json NEW.json [-tolerance F] [-alloc-tolerance F]
  benchreg ab BASE1.txt HEAD1.txt [BASE2.txt HEAD2.txt ...]
`)
}

// measureFlags are the knobs shared by run and compare for producing a
// fresh set of results.
type measureFlags struct {
	bench string
	count int
	input string
}

func addMeasureFlags(fs *flag.FlagSet, m *measureFlags) {
	fs.StringVar(&m.bench, "bench", ".", "benchmark pattern passed to go test -bench")
	fs.IntVar(&m.count, "count", 1, "benchmark repetitions (go test -count)")
	fs.StringVar(&m.input, "input", "", "parse pre-captured `go test -bench` output from this file instead of running go test")
}

// measure produces benchmark results either by parsing a captured output
// file or by shelling out to go test over the given packages.
func measure(m measureFlags, pkgs []string, stderr io.Writer) ([]benchfmt.Result, string, error) {
	if m.input != "" {
		f, err := os.Open(m.input)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		return benchfmt.ParseOutput(f)
	}
	if len(pkgs) == 0 {
		return nil, "", fmt.Errorf("no packages given and no -input file")
	}
	args := []string{"test", "-run", "^$", "-bench", m.bench, "-benchmem",
		fmt.Sprintf("-count=%d", m.count)}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	// go test interleaves benchmark lines and failures on stdout; tee the
	// raw stream to stderr so a long run shows progress.
	cmd.Stdout = io.MultiWriter(&out, stderr)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("go test -bench: %w", err)
	}
	return benchfmt.ParseOutput(&out)
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreg run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m    measureFlags
		out  = fs.String("out", "", "baseline JSON file to write (required)")
		note = fs.String("note", "", "free-form provenance recorded in the baseline")
	)
	addMeasureFlags(fs, &m)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "benchreg run: -out is required")
		return 2
	}
	results, cpu, err := measure(m, fs.Args(), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchreg run: %v\n", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchreg run: no benchmark results parsed")
		return 1
	}
	file := benchfmt.File{
		Schema:      benchfmt.Schema,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPU:         cpu,
		Note:        *note,
		Results:     results,
	}
	if err := writeBaseline(*out, &file); err != nil {
		fmt.Fprintf(stderr, "benchreg run: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %d benchmarks\n", *out, len(results))
	return 0
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreg compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m         measureFlags
		baseline  = fs.String("baseline", "", "baseline JSON file to compare against (required)")
		tolerance = fs.Float64("tolerance", 0.15, "relative ns/op tolerance before a benchmark counts as regressed")
		allocTol  = fs.Float64("alloc-tolerance", 0.10, "relative allocs/op and B/op tolerance (-1 disables memory gating)")
	)
	addMeasureFlags(fs, &m)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" {
		fmt.Fprintln(stderr, "benchreg compare: -baseline is required")
		return 2
	}
	base, err := readBaseline(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchreg compare: %v\n", err)
		return 1
	}
	current, _, err := measure(m, fs.Args(), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchreg compare: %v\n", err)
		return 1
	}
	return report(base.Results, current, *tolerance, *allocTol, stdout)
}

func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreg diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tolerance := fs.Float64("tolerance", 0.15, "relative ns/op tolerance before a benchmark counts as regressed")
	allocTol := fs.Float64("alloc-tolerance", 0.10, "relative allocs/op and B/op tolerance (-1 disables memory gating)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "benchreg diff: want exactly two baseline files")
		return 2
	}
	old, err := readBaseline(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchreg diff: %v\n", err)
		return 1
	}
	new, err := readBaseline(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchreg diff: %v\n", err)
		return 1
	}
	return report(old.Results, new.Results, *tolerance, *allocTol, stdout)
}

func cmdAB(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || len(args)%2 != 0 {
		fmt.Fprintln(stderr, "benchreg ab: want base and head output files in pairs")
		return 2
	}
	var base, head [][]benchfmt.Result
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchreg ab: %v\n", err)
			return 1
		}
		results, _, err := benchfmt.ParseOutput(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "benchreg ab: %s: %v\n", path, err)
			return 1
		}
		if i%2 == 0 {
			base = append(base, results)
		} else {
			head = append(head, results)
		}
	}
	stats := benchfmt.Pairs(base, head)
	if len(stats) == 0 {
		fmt.Fprintln(stderr, "benchreg ab: no benchmark ran on both sides")
		return 1
	}
	benchfmt.WritePairs(stdout, stats)
	return 0
}

// report renders the diff and maps it to an exit code: 0 clean, 2 regressed.
func report(baseline, current []benchfmt.Result, tolerance, allocTolerance float64, stdout io.Writer) int {
	deltas := benchfmt.Compare(baseline, current, tolerance, allocTolerance)
	benchfmt.WriteDiff(stdout, deltas, tolerance, allocTolerance)
	if benchfmt.AnyRegressed(deltas) {
		fmt.Fprintln(stdout, "FAIL: benchmark regression beyond tolerance")
		return 2
	}
	fmt.Fprintln(stdout, "ok: no benchmark regressions beyond tolerance")
	return 0
}

func readBaseline(path string) (*benchfmt.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchfmt.File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != benchfmt.Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, benchfmt.Schema)
	}
	return &f, nil
}

func writeBaseline(path string, f *benchfmt.File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
