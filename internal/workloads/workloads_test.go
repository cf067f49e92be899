package workloads

import (
	"slices"
	"testing"

	"prefetchlab/internal/isa"
	"prefetchlab/internal/ref"
)

// tiny is a fast input for structural tests.
var tiny = Input{ID: 0, Scale: 0.05}

// build constructs a benchmark program the test knows is valid.
func build(t *testing.T, spec Spec, in Input) *isa.Program {
	t.Helper()
	p, err := spec.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildPar constructs one thread of a parallel workload.
func buildPar(t *testing.T, spec ParallelSpec, in Input, n, tid int) *isa.Program {
	t.Helper()
	p, err := spec.Build(in, n, tid)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllBenchmarksBuildAndRun(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := build(t, spec, tiny)
			c, err := isa.Compile(p)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var refs int64
			n := isa.Trace(c, isa.SinkFunc(func(r ref.Ref) { refs++ }))
			if n == 0 || refs != n {
				t.Fatalf("trace produced %d refs (reported %d)", refs, n)
			}
			if c.NumDemandPCs == 0 {
				t.Fatal("no demand memory instructions")
			}
			if spec.Desc == "" {
				t.Error("missing description")
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("got %d benchmarks, want 12", len(names))
	}
	want := map[string]bool{
		"gcc": true, "libquantum": true, "lbm": true, "mcf": true,
		"omnetpp": true, "soplex": true, "astar": true, "xalan": true,
		"leslie3d": true, "GemsFDTD": true, "milc": true, "cigar": true,
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected benchmark %q", n)
		}
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName should fail for unknown benchmarks")
	}
}

func TestDeterministicTraces(t *testing.T) {
	spec, _ := ByName("mcf")
	trace := func() []ref.Ref {
		c, err := isa.Compile(build(t, spec, tiny))
		if err != nil {
			t.Fatal(err)
		}
		var out []ref.Ref
		isa.Trace(c, isa.SinkFunc(func(r ref.Ref) { out = append(out, r) }))
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInputVariationChangesBehaviour(t *testing.T) {
	spec, _ := ByName("libquantum")
	c0, err := isa.Compile(build(t, spec, Input{ID: 0, Scale: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := isa.Compile(build(t, spec, Input{ID: 3, Scale: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	// Same static structure (same PCs) so input-0 plans apply to input 3…
	if c0.NumPCs() != c1.NumPCs() {
		t.Fatalf("input changes static shape: %d vs %d PCs", c0.NumPCs(), c1.NumPCs())
	}
	// …but different dynamic behaviour.
	n0 := isa.Trace(c0, isa.SinkFunc(func(ref.Ref) {}))
	n1 := isa.Trace(c1, isa.SinkFunc(func(ref.Ref) {}))
	if n0 == n1 {
		t.Error("different input sets should differ in reference counts")
	}
}

func TestScalePreservesStructure(t *testing.T) {
	spec, _ := ByName("lbm")
	cSmall, err := isa.Compile(build(t, spec, Input{ID: 0, Scale: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	cBig, err := isa.Compile(build(t, spec, Input{ID: 0, Scale: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if cSmall.NumPCs() != cBig.NumPCs() {
		t.Fatal("scale must not change the static program shape")
	}
}

func TestParallelWorkloads(t *testing.T) {
	specs := Parallel()
	if len(specs) != 4 {
		t.Fatalf("got %d parallel workloads, want 4", len(specs))
	}
	high := 0
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if spec.HighBandwidth {
				high++
			}
			// Thread partitions must be disjoint and cover the same PCs.
			c0, err := isa.Compile(buildPar(t, spec, tiny, 4, 0))
			if err != nil {
				t.Fatal(err)
			}
			c3, err := isa.Compile(buildPar(t, spec, tiny, 4, 3))
			if err != nil {
				t.Fatal(err)
			}
			if c0.NumPCs() != c3.NumPCs() {
				t.Fatal("threads differ in static shape")
			}
			n0 := isa.Trace(c0, isa.SinkFunc(func(ref.Ref) {}))
			if n0 == 0 {
				t.Fatal("thread 0 produced no references")
			}
		})
	}
	if _, ok := ParallelByName("swim"); !ok {
		t.Error("swim missing")
	}
	if _, ok := ParallelByName("nope"); ok {
		t.Error("unknown parallel workload found")
	}
}

func TestChunk(t *testing.T) {
	var total int64
	for tid := 0; tid < 4; tid++ {
		start, count := chunk(103, 4, tid)
		if tid > 0 {
			prevStart, prevCount := chunk(103, 4, tid-1)
			if start != prevStart+prevCount {
				t.Fatalf("chunks not contiguous at tid %d", tid)
			}
		}
		total += count
	}
	if total != 103 {
		t.Fatalf("chunks cover %d of 103", total)
	}
}

func TestInputHelpers(t *testing.T) {
	in := Input{ID: 2, Scale: 0.5}
	if in.scale() != 0.5 {
		t.Error("scale")
	}
	if (Input{}).scale() != 1 {
		t.Error("zero scale should default to 1")
	}
	if in.iters(100) != 50 {
		t.Errorf("iters = %d", in.iters(100))
	}
	if in.itersMin(2, 2) != 2 {
		t.Errorf("itersMin floor broken")
	}
	if got := in.scaleBytes(1000, 64); got%64 != 0 || got == 0 {
		t.Errorf("scaleBytes = %d", got)
	}
	if (Input{ID: 0}).seed("x") == (Input{ID: 1}).seed("x") {
		t.Error("seeds must differ across inputs")
	}
	if !in.ScaleEq(Input{ID: 9, Scale: 0.5}) {
		t.Error("ScaleEq")
	}
}

func TestStoringProgramsRunIndependently(t *testing.T) {
	// Each run works on its own clone of the program image. Two runs
	// interleaved access by access must each produce the stream of a solo
	// run of a freshly built copy, and leave the image's words as built.
	// libquantum, lbm and the parallel kernels store every iteration (into
	// unbacked arenas, so a store must not disturb the stream); gcc chases
	// a backed region. The read-back of stores into backed regions is
	// pinned by isa's TestVMStoresStayPrivate.
	type prog struct {
		name  string
		build func(t *testing.T) *isa.Program
	}
	var progs []prog
	for _, name := range []string{"libquantum", "lbm", "gcc"} {
		spec, _ := ByName(name)
		progs = append(progs, prog{name, func(t *testing.T) *isa.Program { return build(t, spec, tiny) }})
	}
	for _, spec := range Parallel() {
		progs = append(progs, prog{spec.Name, func(t *testing.T) *isa.Program { return buildPar(t, spec, tiny, 2, 1) }})
	}
	compile := func(t *testing.T, p *isa.Program) *isa.Compiled {
		c, err := isa.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, pg := range progs {
		t.Run(pg.name, func(t *testing.T) {
			c := compile(t, pg.build(t))
			image := words(c.Prog.Mem)
			var want streamSum
			isa.Trace(compile(t, pg.build(t)), isa.SinkFunc(want.add))

			vms := [2]*isa.VM{isa.NewVM(c), isa.NewVM(c)}
			var got [2]streamSum
			for live := true; live; {
				live = false
				for i, vm := range vms {
					if vm.Done() {
						continue
					}
					if ev := vm.NextEvent(); !ev.Done {
						got[i].add(ev.Ref)
						vm.Complete(3)
						live = true
					}
				}
			}
			for i := range got {
				if got[i] != want {
					t.Errorf("interleaved run %d diverges from a solo run of a fresh build", i)
				}
			}
			if !slices.Equal(words(c.Prog.Mem), image) {
				t.Error("runs changed the program image")
			}
		})
	}
}

// streamSum fingerprints a reference stream: its length and an FNV-style
// hash of every reference in order.
type streamSum struct {
	n int
	h uint64
}

func (s *streamSum) add(r ref.Ref) {
	s.n++
	s.h = (s.h ^ r.Addr ^ uint64(r.PC)<<40 ^ uint64(r.Kind)<<60) * 1099511628211
}

// words flattens every backed word of a memory image in address order.
func words(m *isa.Memory) []int64 {
	var out []int64
	for _, r := range m.Regions() {
		for i := uint64(0); i < r.Words(); i++ {
			out = append(out, r.Word(i))
		}
	}
	return out
}
