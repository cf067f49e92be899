package isa

import (
	"slices"
	"sync"
	"testing"

	"prefetchlab/internal/ref"
)

func TestClonesAreIndependent(t *testing.T) {
	m := NewMemory()
	r, err := m.AddRegion("a", 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	r.SetWord(0, 5)
	a, b := m.Clone(), m.Clone()
	a.Write(1024, 6)
	if got := [3]int64{m.Read(1024), a.Read(1024), b.Read(1024)}; got != [3]int64{5, 6, 5} {
		t.Errorf("after a clone's store: image/a/b read %v, want [5 6 5]", got)
	}
	m.Write(1024, 7)
	if got := [3]int64{m.Read(1024), a.Read(1024), b.Read(1024)}; got != [3]int64{7, 6, 5} {
		t.Errorf("after the image's store: image/a/b read %v, want [7 6 5]", got)
	}
	// A clone of a clone starts from the clone's words, not the image's.
	c := a.Clone()
	a.Write(1032, 8)
	c.Write(1040, 9)
	if got := [4]int64{a.Read(1032), a.Read(1040), c.Read(1032), c.Read(1040)}; got != [4]int64{8, 0, 0, 9} {
		t.Errorf("clone of a clone: a/c read %v, want [8 0 0 9]", got)
	}
	if b.Read(1032) != 0 || b.Read(1040) != 0 || m.Read(1032) != 0 {
		t.Error("stores of a and c reached b or the image")
	}
}

func TestVMStoresStayPrivate(t *testing.T) {
	// A ring 0 → 1 → 2 → 3 → 0 that the program rewires to 0 ↔ 2 with two
	// stores before chasing it: the chase reads back the program's own
	// stores.
	b := NewBuilder("rewire")
	reg := b.Backed("ring", 4*64)
	node := func(i uint64) int64 { return int64(reg.Base + i*64) }
	for i := uint64(0); i < 4; i++ {
		reg.SetWord(i*8, node((i+1)%4))
	}
	p, v := b.Reg(), b.Reg()
	b.MovI(p, node(0))
	b.MovI(v, node(2))
	b.Store(v, p, 0)
	b.MovI(p, node(2))
	b.MovI(v, node(0))
	b.Store(v, p, 0)
	b.MovI(p, node(0))
	b.Loop(4, func() { b.Load(p, p, 0) })
	c, err := Compile(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	chase := func(vm *VM) []uint64 {
		var out []uint64
		for {
			ev := vm.NextEvent()
			if ev.Done {
				return out
			}
			if ev.Ref.Kind == ref.Load {
				out = append(out, (ev.Ref.Addr-reg.Base)/64)
			}
			vm.Complete(0)
		}
	}
	want := []uint64{0, 2, 0, 2}
	first, sibling := NewVM(c), NewVM(c)
	if got := chase(first); !slices.Equal(got, want) {
		t.Fatalf("chase visited %v, want %v (stores not read back)", got, want)
	}
	if got := sibling.mem.Read(reg.Base); got != node(1) {
		t.Errorf("sibling VM sees %#x at node 0, want the image's %#x", got, node(1))
	}
	img := c.Prog.Mem.FindRegion(reg.Base)
	for i := uint64(0); i < 4; i++ {
		if got := img.Word(i * 8); got != node((i+1)%4) {
			t.Errorf("program image word %d = %#x after a run, want %#x", i*8, got, node((i+1)%4))
		}
	}
	if got := chase(sibling); !slices.Equal(got, want) {
		t.Errorf("sibling chase visited %v, want %v", got, want)
	}
	first.Reset()
	if got := first.mem.Read(reg.Base); got != node(1) {
		t.Errorf("Reset image has %#x at node 0, want %#x", got, node(1))
	}
	if got := chase(first); !slices.Equal(got, want) {
		t.Errorf("chase after Reset visited %v, want %v", got, want)
	}
}

func TestConcurrentClonesAreIndependent(t *testing.T) {
	// Parallel runs clone one program image at once; each clone's stores
	// stay its own.
	m := NewMemory()
	if _, err := m.AddRegion("a", 1024, 64); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := int64(1); g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Clone()
			for i := int64(0); i < 100; i++ {
				c.Write(1024, g*1000+i)
				if got := c.Read(1024); got != g*1000+i {
					t.Errorf("clone %d read %d after storing %d", g, got, g*1000+i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Read(1024); got != 0 {
		t.Errorf("image word = %d after clones stored, want 0", got)
	}
}
