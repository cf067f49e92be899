package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: prefetchlab
cpu: Test CPU @ 2.00GHz
BenchmarkFig8DetailMix-8   	       2	 512345678 ns/op	 1234567 B/op	    4321 allocs/op
BenchmarkTable1Coverage-8  	       1	1987654321 ns/op
BenchmarkFig4Speedup-8     	       1	 800000000 ns/op	        12.50 amd-swnt-ws-%	         9.75 amd-hw-ws-%	  777216 B/op	    2048 allocs/op
PASS
ok  	prefetchlab	3.210s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "prefetchlab" {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %+v", doc.Benchmarks)
	}
	// Sorted by name: Fig4 before Fig8 before Table1.
	b0, b1, b2 := doc.Benchmarks[0], doc.Benchmarks[1], doc.Benchmarks[2]
	if b0.Name != "BenchmarkFig4Speedup" || b1.Name != "BenchmarkFig8DetailMix" || b2.Name != "BenchmarkTable1Coverage" {
		t.Errorf("order = %q, %q, %q", b0.Name, b1.Name, b2.Name)
	}
	if b1.Iterations != 2 || b1.NsPerOp != 512345678 || b1.BytesPerOp != 1234567 || b1.AllocsPerOp != 4321 {
		t.Errorf("fig8 = %+v", b1)
	}
	if b2.BytesPerOp != 0 || b2.AllocsPerOp != 0 {
		t.Errorf("table1 should have no memstats: %+v", b2)
	}
	// Custom units from b.ReportMetric land in Metrics; memstats still parse.
	if b0.Metrics["amd-swnt-ws-%"] != 12.50 || b0.Metrics["amd-hw-ws-%"] != 9.75 {
		t.Errorf("fig4 metrics = %+v", b0.Metrics)
	}
	if b0.BytesPerOp != 777216 || b0.AllocsPerOp != 2048 {
		t.Errorf("fig4 memstats = %+v", b0)
	}
}

func TestParseRerunsSupersede(t *testing.T) {
	in := "BenchmarkX-4 1 100 ns/op\nBenchmarkX-4 1 200 ns/op\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].NsPerOp != 200 {
		t.Errorf("benchmarks = %+v", doc.Benchmarks)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	doc, err := parse(strings.NewReader("random text\n--- PASS: TestFoo\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("benchmarks = %+v", doc.Benchmarks)
	}
	if doc.Benchmarks == nil {
		t.Error("benchmarks must marshal as [], not null")
	}
}

func TestMissingRequiredBenchmarks(t *testing.T) {
	doc, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// All present: no complaints, whitespace and empty items tolerated.
	if m := missing(doc, " BenchmarkFig8DetailMix , BenchmarkTable1Coverage ,"); m != nil {
		t.Errorf("missing = %v, want none", m)
	}
	// A dropped benchmark is reported by name, in list order.
	m := missing(doc, "BenchmarkTable1Coverage,BenchmarkGone,BenchmarkAlsoGone")
	if len(m) != 2 || m[0] != "BenchmarkGone" || m[1] != "BenchmarkAlsoGone" {
		t.Errorf("missing = %v, want [BenchmarkGone BenchmarkAlsoGone]", m)
	}
	// No require list means no check.
	if m := missing(doc, ""); m != nil {
		t.Errorf("missing with empty list = %v", m)
	}
}

func TestParseMultiplePackages(t *testing.T) {
	// The same benchmark name in two packages: both kept, each tagged with
	// the package of the pkg: line above it, sorted by package then name.
	in := `goos: linux
pkg: prefetchlab
BenchmarkAnalyticMix-2 10 300 ns/op
BenchmarkShared-2 1 100 ns/op
PASS
ok  	prefetchlab	1.0s
pkg: prefetchlab/internal/analytic
BenchmarkShared-2 1 200 ns/op
BenchmarkPredict/mix-2 100 40 ns/op
PASS
ok  	prefetchlab/internal/analytic	1.0s
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		pkg, name string
		ns        float64
	}
	want := []row{
		{"prefetchlab", "BenchmarkAnalyticMix", 300},
		{"prefetchlab", "BenchmarkShared", 100},
		{"prefetchlab/internal/analytic", "BenchmarkPredict/mix", 40},
		{"prefetchlab/internal/analytic", "BenchmarkShared", 200},
	}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %+v", doc.Benchmarks)
	}
	for i, w := range want {
		if b := doc.Benchmarks[i]; b.Pkg != w.pkg || b.Name != w.name || b.NsPerOp != w.ns {
			t.Errorf("benchmark %d = %+v, want %+v", i, b, w)
		}
	}
	if doc.Pkg != "" {
		t.Errorf("document pkg = %q, want empty for a multi-package run", doc.Pkg)
	}
	if m := missing(doc, "BenchmarkShared,BenchmarkPredict/mix"); m != nil {
		t.Errorf("missing = %v, want none", m)
	}
}
