package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mk(t *testing.T, size int64, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", Size: size, Assoc: assoc})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Size: 0, Assoc: 2},
		{Size: 64, Assoc: 0},
		{Size: 100, Assoc: 1},        // not a multiple of 64
		{Size: 3 * 64 * 4, Assoc: 4}, // 3 sets: not a power of two
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
	if _, err := New(Config{Size: 64 << 10, Assoc: 2}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestHitMiss(t *testing.T) {
	c := mk(t, 4*64, 2) // 2 sets × 2 ways
	if _, ok := c.Lookup(5, 0); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5, 0, FillOpts{Src: FillDemand, Used: true})
	if _, ok := c.Lookup(5, 1); !ok {
		t.Fatal("miss after insert")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUVictim(t *testing.T) {
	c := mk(t, 4*64, 2) // sets selected by line&1
	// Fill set 0 with lines 0 and 2, touch 0, then insert 4: victim must be 2.
	c.Insert(0, 0, FillOpts{})
	c.Insert(2, 0, FillOpts{})
	c.Lookup(0, 1) // refresh 0
	victim, evicted := c.Insert(4, 2, FillOpts{})
	if !evicted || victim.Tag != 2 {
		t.Fatalf("victim = %+v (evicted=%v), want tag 2", victim, evicted)
	}
	if !c.Probe(0) || !c.Probe(4) || c.Probe(2) {
		t.Fatal("wrong lines resident after eviction")
	}
}

func TestInFlightLatency(t *testing.T) {
	c := mk(t, 64*64, 4)
	c.Insert(7, 100, FillOpts{ReadyAt: 150, Src: FillSW})
	wait, ok := c.Lookup(7, 120)
	if !ok || wait != 30 {
		t.Fatalf("in-flight wait = %d (ok=%v), want 30", wait, ok)
	}
	wait, ok = c.Lookup(7, 200)
	if !ok || wait != 0 {
		t.Fatalf("post-arrival wait = %d (ok=%v), want 0", wait, ok)
	}
	if c.Stats().LateHits != 1 {
		t.Fatalf("LateHits = %d, want 1", c.Stats().LateHits)
	}
}

func TestUselessPrefetchAccounting(t *testing.T) {
	c := mk(t, 2*64, 2) // one set, 2 ways
	c.Insert(0, 0, FillOpts{Src: FillSW})
	c.Insert(2, 0, FillOpts{Src: FillHW})
	// Use line 0 before eviction; line 2 stays untouched.
	c.Lookup(0, 1)
	c.Insert(4, 2, FillOpts{Src: FillDemand, Used: true}) // evicts 2 (LRU)
	c.Insert(6, 3, FillOpts{Src: FillDemand, Used: true}) // evicts 0
	st := c.Stats()
	if st.UselessHW != 1 {
		t.Errorf("UselessHW = %d, want 1", st.UselessHW)
	}
	if st.UselessSW != 0 {
		t.Errorf("UselessSW = %d, want 0 (line was demand-hit)", st.UselessSW)
	}
}

func TestDirtyWritebackCount(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(0, 0, FillOpts{Dirty: true})
	c.Insert(2, 0, FillOpts{})
	v1, _ := c.Insert(4, 1, FillOpts{}) // evicts 0 (dirty)
	if !v1.Dirty {
		t.Error("expected dirty victim")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestTouchMarksDirty(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(0, 0, FillOpts{})
	c.Touch(0, true)
	v, _ := c.Insert(2, 1, FillOpts{})
	_ = v
	c.Insert(4, 2, FillOpts{})
	if c.Stats().Writebacks != 1 {
		t.Errorf("Touch did not mark dirty: %+v", c.Stats())
	}
}

func TestInsertRefreshExisting(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(0, 0, FillOpts{ReadyAt: 50})
	if v, evicted := c.Insert(0, 10, FillOpts{ReadyAt: 20}); evicted {
		t.Fatalf("re-insert evicted %+v", v)
	}
	wait, ok := c.Lookup(0, 15)
	if !ok || wait != 5 {
		t.Fatalf("refresh did not keep earlier ReadyAt: wait=%d ok=%v", wait, ok)
	}
	if c.Stats().Fills != 1 {
		t.Errorf("Fills = %d, want 1 (refresh is not a fill)", c.Stats().Fills)
	}
}

func TestNTFlagSurvivesEviction(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(0, 0, FillOpts{NT: true, Src: FillSW})
	c.Insert(2, 1, FillOpts{})
	v, evicted := c.Insert(4, 2, FillOpts{})
	if !evicted || !v.NT || v.Tag != 0 {
		t.Fatalf("NT victim = %+v (evicted=%v)", v, evicted)
	}
}

// TestCacheNeverExceedsCapacity is a property test: after any access
// sequence, each set holds at most Assoc distinct valid lines and every
// probe result is consistent with the most recent inserts.
func TestCacheNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		ops := int(opsRaw)%200 + 1
		r := rand.New(rand.NewSource(seed))
		c, err := New(Config{Name: "q", Size: 16 * 64, Assoc: 4})
		if err != nil {
			return false
		}
		resident := make(map[uint64]bool)
		for i := 0; i < ops; i++ {
			line := uint64(r.Intn(64))
			if r.Intn(2) == 0 {
				if _, ok := c.Lookup(line, int64(i)); ok && !resident[line] {
					return false // hit on a line we never inserted
				}
			}
			if !c.Probe(line) {
				victim, evicted := c.Insert(line, int64(i), FillOpts{})
				if evicted {
					delete(resident, victim.Tag)
				}
				resident[line] = true
			}
		}
		// Every resident line must probe true.
		for line := range resident {
			if !c.Probe(line) {
				return false
			}
		}
		return len(resident) <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(0, 0, FillOpts{})
	c.Lookup(0, 1)
	c.Reset()
	if c.Probe(0) {
		t.Error("line survived reset")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats survived reset: %+v", st)
	}
}

func TestFIFOEvictsOldestFill(t *testing.T) {
	c, err := New(Config{Name: "fifo", Size: 2 * 64, Assoc: 2, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	c.Insert(0, 0, FillOpts{})
	c.Insert(2, 1, FillOpts{})
	c.Lookup(0, 2) // recency must NOT save line 0 under FIFO
	victim, evicted := c.Insert(4, 3, FillOpts{})
	if !evicted || victim.Tag != 0 {
		t.Fatalf("FIFO victim = %+v, want tag 0", victim)
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	run := func() []uint64 {
		c, err := New(Config{Name: "r", Size: 4 * 64, Assoc: 4, Policy: Random})
		if err != nil {
			t.Fatal(err)
		}
		var evictions []uint64
		for i := uint64(0); i < 64; i += 4 {
			if v, ev := c.Insert(i, int64(i), FillOpts{}); ev {
				evictions = append(evictions, v.Tag)
			}
		}
		return evictions
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no evictions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random replacement not reproducible")
		}
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Error("policy names")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy name")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Hits: 97, Misses: 3, LateHits: 2, Fills: 3, Evictions: 1,
		Writebacks: 1, UselessSW: 1}
	want := "100 acc, 3.0% miss (2 late), 3 fills, 1 evict (1 wb), useless pf sw 1 / hw 0"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if s.Accesses() != 100 {
		t.Errorf("Accesses = %d", s.Accesses())
	}
	if s.MissRatio() != 0.03 {
		t.Errorf("MissRatio = %g", s.MissRatio())
	}
	var idle Stats
	if idle.MissRatio() != 0 {
		t.Errorf("idle MissRatio = %g, want 0", idle.MissRatio())
	}
}

// aosLine and aosCache are the array-of-structs layout the package used
// before its tags, stamps and flags were split into per-level arrays. They
// are kept here, unchanged but for their names and Touch's result, as the
// oracle the differential tests below drive in lockstep with Cache.
type aosLine struct {
	Tag      uint64
	Valid    bool
	Dirty    bool
	NT       bool
	Src      FillSrc
	Used     bool
	ReadyAt  int64
	lastUse  int64
	filledAt int64
}

type aosCache struct {
	cfg     Config
	assoc   int
	setMask uint64
	lines   []aosLine
	useCtr  int64
	rng     uint64
	stats   Stats
}

func newAOS(cfg Config) *aosCache {
	lines := cfg.Size / 64
	return &aosCache{
		cfg:     cfg,
		assoc:   cfg.Assoc,
		setMask: uint64(lines/int64(cfg.Assoc) - 1),
		lines:   make([]aosLine, lines),
		rng:     0x9e3779b97f4a7c15,
	}
}

func (c *aosCache) setOf(line uint64) []aosLine {
	s := int(line&c.setMask) * c.assoc
	return c.lines[s : s+c.assoc]
}

func (c *aosCache) Lookup(line uint64, now int64) (wait int64, ok bool) {
	set := c.setOf(line)
	for i := range set {
		l := &set[i]
		if l.Valid && l.Tag == line {
			c.useCtr++
			l.lastUse = c.useCtr
			l.Used = true
			c.stats.Hits++
			if l.ReadyAt > now {
				c.stats.LateHits++
				return l.ReadyAt - now, true
			}
			return 0, true
		}
	}
	c.stats.Misses++
	return 0, false
}

func (c *aosCache) Probe(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		if set[i].Valid && set[i].Tag == line {
			return true
		}
	}
	return false
}

func (c *aosCache) Touch(line uint64, dirty bool) bool {
	set := c.setOf(line)
	for i := range set {
		if set[i].Valid && set[i].Tag == line {
			if dirty {
				set[i].Dirty = true
			}
			return true
		}
	}
	return false
}

func (c *aosCache) Insert(line uint64, now int64, opts FillOpts) (victim aosLine, evicted bool) {
	set := c.setOf(line)
	victimIdx := -1
	for i := range set {
		l := &set[i]
		if l.Valid && l.Tag == line {
			if opts.Dirty {
				l.Dirty = true
			}
			if opts.ReadyAt < l.ReadyAt {
				l.ReadyAt = opts.ReadyAt
			}
			c.useCtr++
			l.lastUse = c.useCtr
			return aosLine{}, false
		}
		if !l.Valid {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		victimIdx = c.victim(set)
	}
	l := &set[victimIdx]
	if l.Valid {
		victim = *l
		evicted = true
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.Writebacks++
		}
		if victim.Src != FillDemand && !victim.Used {
			if victim.Src == FillSW {
				c.stats.UselessSW++
			} else {
				c.stats.UselessHW++
			}
		}
	}
	c.useCtr++
	*l = aosLine{
		Tag:      line,
		Valid:    true,
		Dirty:    opts.Dirty,
		NT:       opts.NT,
		Src:      opts.Src,
		Used:     opts.Used,
		ReadyAt:  opts.ReadyAt,
		lastUse:  c.useCtr,
		filledAt: c.useCtr,
	}
	c.stats.Fills++
	return victim, evicted
}

func (c *aosCache) victim(set []aosLine) int {
	switch c.cfg.Policy {
	case Random:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return int(c.rng % uint64(len(set)))
	case FIFO:
		min := int64(1<<63 - 1)
		idx := 0
		for i := range set {
			if set[i].filledAt < min {
				min = set[i].filledAt
				idx = i
			}
		}
		return idx
	default:
		min := int64(1<<63 - 1)
		idx := 0
		for i := range set {
			if set[i].lastUse < min {
				min = set[i].lastUse
				idx = i
			}
		}
		return idx
	}
}

func (c *aosCache) Reset() {
	for i := range c.lines {
		c.lines[i] = aosLine{}
	}
	c.useCtr = 0
	c.rng = 0x9e3779b97f4a7c15
	c.stats = Stats{}
}

// opBytes is how many bytes of a differential program one operation reads.
const opBytes = 7

// diffSets is the set count of every differential geometry: few sets, so
// each set sees many fills and evictions.
const diffSets = 4

// runCacheDiff decodes prog into operations and drives them through a Cache
// and the AoS oracle of the same geometry, failing on the first return
// value that differs and on any difference in the final statistics. Each
// operation reads opBytes bytes: the operation and its flags, a line (two
// bytes, indexing a pool of twice the cache's lines, optionally moved up by
// the private-lines core tag; one flag reuses the previous line instead),
// the access time (two bytes) and the fill delay of an Insert.
func runCacheDiff(t *testing.T, policy Policy, assoc int, prog []byte) {
	t.Helper()
	cfg := Config{Name: "diff", Size: int64(diffSets * assoc * 64), Assoc: assoc, Policy: policy}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newAOS(cfg)
	pool := uint64(2 * diffSets * assoc)
	var line uint64
	for n := 0; len(prog) >= opBytes; n, prog = n+1, prog[opBytes:] {
		op, flags := prog[0]%16, prog[1]
		if flags&0x40 == 0 { // else reuse the last line, e.g. a miss then its Insert
			line = (uint64(prog[2])<<8 | uint64(prog[3])) % pool
			if flags&0x80 != 0 {
				line |= 1 << 48
			}
		}
		now := int64(prog[4])<<8 | int64(prog[5])
		switch {
		case op < 6:
			w, ok := c.Lookup(line, now)
			ow, ook := o.Lookup(line, now)
			if w != ow || ok != ook {
				t.Fatalf("op %d Lookup(%d, %d) = %d, %v; oracle %d, %v", n, line, now, w, ok, ow, ook)
			}
		case op < 8:
			if got, want := c.Probe(line), o.Probe(line); got != want {
				t.Fatalf("op %d Probe(%d) = %v; oracle %v", n, line, got, want)
			}
		case op < 10:
			dirty := flags&1 != 0
			if got, want := c.Touch(line, dirty), o.Touch(line, dirty); got != want {
				t.Fatalf("op %d Touch(%d, %v) = %v; oracle %v", n, line, dirty, got, want)
			}
		case op < 15:
			opts := FillOpts{
				Dirty:   flags&1 != 0,
				NT:      flags&2 != 0,
				Src:     FillSrc(flags >> 2 % 3),
				Used:    flags&0x10 != 0,
				ReadyAt: now + int64(prog[6]) - 64,
			}
			v, ev := c.Insert(line, now, opts)
			ov, oev := o.Insert(line, now, opts)
			want := Line{Tag: ov.Tag, Valid: ov.Valid, Dirty: ov.Dirty, NT: ov.NT,
				Src: ov.Src, Used: ov.Used, ReadyAt: ov.ReadyAt}
			if v != want || ev != oev {
				t.Fatalf("op %d Insert(%d, %d, %+v) = %+v, %v; oracle %+v, %v", n, line, now, opts, v, ev, want, oev)
			}
		default:
			if flags == 0 { // a rare Reset, so sets fill up between them
				c.Reset()
				o.Reset()
			}
		}
	}
	if st, ost := c.Stats(), o.stats; st != ost {
		t.Fatalf("Stats() = %+v; oracle %+v", st, ost)
	}
}

// diffAssocs are the associativities the differential tests cover: direct
// mapped, AMD's 2-way L1, Intel's 8-way L1/L2, 16-way L2/LLC and AMD's
// 48-way LLC.
var diffAssocs = []int{1, 2, 8, 16, 48}

// TestCacheMatchesAOSOracle drives seeded operation streams through Cache
// and the AoS oracle for every policy and associativity.
func TestCacheMatchesAOSOracle(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO, Random} {
		for _, assoc := range diffAssocs {
			for seed := int64(1); seed <= 3; seed++ {
				prog := make([]byte, 20000*opBytes)
				rand.New(rand.NewSource(seed)).Read(prog)
				runCacheDiff(t, policy, assoc, prog)
			}
		}
	}
}

// FuzzCacheOps runs the differential harness on fuzzed operation streams.
func FuzzCacheOps(f *testing.F) {
	for i, policy := range []Policy{LRU, FIFO, Random} {
		for j := range diffAssocs {
			prog := make([]byte, 500*opBytes)
			rand.New(rand.NewSource(int64(10*i + j))).Read(prog)
			f.Add(uint8(policy), uint8(j), prog)
		}
	}
	f.Fuzz(func(t *testing.T, policy, assoc uint8, prog []byte) {
		runCacheDiff(t, Policy(policy%3), diffAssocs[int(assoc)%len(diffAssocs)], prog)
	})
}
