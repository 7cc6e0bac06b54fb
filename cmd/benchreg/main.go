// Command benchreg records the repo's benchmark suite and gates paired
// runs of it.
//
//	benchreg run -out BENCH_4.json [-bench .] [-count 3] [-note "..."] ./pkg...
//	benchreg run -input bench.txt -out BENCH_4.json
//	benchreg ab [-tolerance 0.15] base1.txt head1.txt [base2.txt head2.txt ...]
//
// run executes `go test -run '^$' -bench <pat> -benchmem` over the named
// packages (or parses a pre-captured output file with -input), aggregates
// repeated runs, and writes a schema'd baseline JSON: the BENCH_<n>.json
// record of what the suite cost on the host that ran it. Absolute numbers
// drift with a shared host's load between minutes, so nothing is gated
// against that record.
//
// ab is the gate. It reads the raw `go test -bench` outputs of paired runs,
// one base and one head run per pair (scripts/bench.sh -ab produces them),
// and reports per benchmark the median per-pair head/base ratio of ns/op,
// B/op and allocs/op, the count of pairs the head won, the base runs'
// relative IQR and a verdict. It exits with status 2 when a median exceeds
// 1+tolerance on ns/op or benchfmt.MemBound on B/op or allocs/op. A
// benchmark that ran on one side only is listed but not gated.
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
  benchreg ab [-tolerance F] BASE1.txt HEAD1.txt [BASE2.txt HEAD2.txt ...]
`)
}

// measure produces benchmark results either by parsing a captured output
// file or by shelling out to go test over the given packages.
func measure(bench string, count int, input string, pkgs []string, stderr io.Writer) ([]benchfmt.Result, string, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		return benchfmt.ParseOutput(f)
	}
	if len(pkgs) == 0 {
		return nil, "", fmt.Errorf("no packages given and no -input file")
	}
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		fmt.Sprintf("-count=%d", count)}
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
		out   = fs.String("out", "", "baseline JSON file to write (required)")
		note  = fs.String("note", "", "free-form provenance recorded in the baseline")
		bench = fs.String("bench", ".", "benchmark pattern passed to go test -bench")
		count = fs.Int("count", 1, "benchmark repetitions (go test -count)")
		input = fs.String("input", "", "parse pre-captured `go test -bench` output from this file instead of running go test")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "benchreg run: -out is required")
		return 2
	}
	results, cpu, err := measure(*bench, *count, *input, fs.Args(), stderr)
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

func cmdAB(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreg ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tolerance := fs.Float64("tolerance", 0.15, "largest relative ns/op slowdown of the median pair that passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 || len(files)%2 != 0 {
		fmt.Fprintln(stderr, "benchreg ab: want base and head output files in pairs")
		return 2
	}
	var base, head [][]benchfmt.Result
	for i, path := range files {
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
	benchfmt.WritePairs(stdout, stats, *tolerance)
	for _, name := range benchfmt.Unpaired(base, head) {
		fmt.Fprintf(stdout, "not gated, ran on one side: %s\n", name)
	}
	failed := 0
	for _, s := range stats {
		if s.Fails(*tolerance) {
			fmt.Fprintf(stdout, "FAIL: %s %s median h/b %.3f > %.3f\n", s.Name, s.Metric, s.Median, s.Bound(*tolerance))
			failed++
		}
	}
	if failed > 0 {
		return 2
	}
	fmt.Fprintln(stdout, "ok: every median h/b within its bound")
	return 0
}

func writeBaseline(path string, f *benchfmt.File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
