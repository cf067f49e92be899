// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so CI can archive benchmark results as a
// machine-readable artifact (BENCH_NIGHTLY.json) and diff them across runs.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson > BENCH_NIGHTLY.json
//
// Benchmarks are keyed by package and name (the -N CPU suffix stripped)
// and sorted, so the output is diff-friendly: reordering or interleaving in
// the bench run does not change the document, and same-named benchmarks of
// two packages are both kept. Each result records the package of the
// latest `pkg:` header line before it.
//
// The -require flag takes a comma-separated list of benchmark names that
// must appear in the input; any missing name is a fatal error. CI passes
// the tier-1 benchmark set here, so a renamed or silently dropped
// benchmark fails the nightly job instead of shrinking the artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line. Metrics carries any custom units reported
// via b.ReportMetric (the experiment benchmarks report figure headline
// numbers this way, e.g. "amd-swnt-ws-%").
type Result struct {
	Pkg         string             `json:"pkg,omitempty"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the exported JSON shape. Pkg names the package when every
// benchmark comes from one; a multi-package run leaves it empty and each
// Result carries its own.
type Document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// parseBenchLine parses one "BenchmarkName[-N] iters v1 unit1 v2 unit2 …"
// line: the iteration count followed by (value, unit) pairs, as the testing
// package prints them (ns/op, then any b.ReportMetric units in sorted
// order, then -benchmem's B/op and allocs/op).
func parseBenchLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
		return Result{}, false, nil
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -N GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil // e.g. "--- BENCH:" context lines
	}
	res := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("benchjson: bad value in %q: %w", line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, true, nil
}

// benchKey identifies a benchmark across a multi-package run.
type benchKey struct{ pkg, name string }

// parse reads go-test bench output and builds the document. Later results
// for the same package and benchmark name overwrite earlier ones (re-runs
// supersede).
func parse(r io.Reader) (Document, error) {
	doc := Document{Benchmarks: []Result{}}
	byKey := map[benchKey]Result{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		res, ok, err := parseBenchLine(line)
		if err != nil {
			return doc, err
		}
		if ok {
			res.Pkg = pkg
			byKey[benchKey{pkg, res.Name}] = res
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	pkgs := map[string]bool{}
	for k, res := range byKey {
		pkgs[k.pkg] = true
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		a, b := doc.Benchmarks[i], doc.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
	if len(pkgs) == 1 {
		doc.Pkg = doc.Benchmarks[0].Pkg
	}
	return doc, nil
}

// missing returns the names from the comma-separated require list that are
// absent from the parsed document, in list order.
func missing(doc Document, require string) []string {
	present := make(map[string]bool, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		present[b.Name] = true
	}
	var out []string
	for _, n := range strings.Split(require, ",") {
		if n = strings.TrimSpace(n); n != "" && !present[n] {
			out = append(out, n)
		}
	}
	return out
}

func main() {
	require := flag.String("require", "",
		"comma-separated benchmark names that must appear in the input; any missing name is a fatal error")
	flag.Parse()
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Validate after emitting: the artifact is still written for forensics,
	// the job still fails.
	if miss := missing(doc, *require); len(miss) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: required benchmark(s) missing from input: %s\n",
			strings.Join(miss, ", "))
		os.Exit(1)
	}
}
