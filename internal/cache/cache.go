// Package cache implements one level of a set-associative, write-back
// cache (LRU replacement by default; FIFO and Random are available for
// model-fidelity ablations) with the timing refinements the reproduction
// needs:
//
//   - in-flight fills: a line installed by a prefetch carries the time its
//     data actually arrives, so a demand access that comes too early pays
//     the remaining latency (partial prefetch hiding);
//   - non-temporal lines: lines filled by PREFETCHNTA are flagged so the
//     hierarchy can drop them instead of installing them into L2/LLC on
//     eviction;
//   - prefetch usefulness: lines remember whether a prefetch brought them in
//     and whether a demand access touched them before eviction, which is how
//     useless-prefetch traffic is accounted.
//
// The line size is fixed at 64 B (ref.LineSize); all addresses handled here
// are line addresses.
package cache

import "fmt"

// FillSrc records what caused a line to be filled.
type FillSrc uint8

const (
	// FillDemand is a fill triggered by a demand miss.
	FillDemand FillSrc = iota
	// FillSW is a fill triggered by a software prefetch.
	FillSW
	// FillHW is a fill triggered by a hardware prefetch engine.
	FillHW
)

// String implements fmt.Stringer.
func (s FillSrc) String() string {
	switch s {
	case FillDemand:
		return "demand"
	case FillSW:
		return "sw"
	case FillHW:
		return "hw"
	default:
		return fmt.Sprintf("FillSrc(%d)", uint8(s))
	}
}

// Policy selects the replacement policy of a cache level.
type Policy uint8

const (
	// LRU evicts the least-recently-used way (the default; what StatStack
	// models).
	LRU Policy = iota
	// FIFO evicts the oldest-filled way regardless of use.
	FIFO
	// Random evicts a pseudo-random way (deterministic xorshift so runs
	// stay reproducible).
	Random
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Config describes one cache level.
type Config struct {
	Name   string
	Size   int64 // total bytes; must be a multiple of Assoc*64
	Assoc  int
	Policy Policy // replacement policy (default LRU)
}

// Line is one cache line's state, as Insert reports an evicted line.
type Line struct {
	Tag     uint64 // line address
	Valid   bool
	Dirty   bool
	NT      bool    // non-temporal: bypass lower levels on eviction
	Src     FillSrc // what filled the line
	Used    bool    // touched by a demand access since fill
	ReadyAt int64   // cycle at which the fill data arrives
}

// Stats counts events at this level.
type Stats struct {
	Hits       int64 // demand hits (including hits on in-flight lines)
	Misses     int64 // demand misses
	LateHits   int64 // demand hits that waited on an in-flight fill
	Fills      int64
	Evictions  int64
	Writebacks int64 // dirty evictions
	// UselessPrefetches counts evictions of never-used prefetched lines,
	// split by prefetch source.
	UselessSW int64
	UselessHW int64
}

// Accesses returns the number of demand accesses (hits + misses).
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// MissRatio returns demand misses per demand access (0 when idle).
func (s Stats) MissRatio() float64 {
	if acc := s.Accesses(); acc > 0 {
		return float64(s.Misses) / float64(acc)
	}
	return 0
}

// String renders the level's counters as one readable line, e.g. for
// examples and summary tables:
//
//	12034 acc, 3.1% miss (12 late), 370 fills, 298 evict (14 wb), useless pf sw 3 / hw 0
func (s Stats) String() string {
	return fmt.Sprintf("%d acc, %.1f%% miss (%d late), %d fills, %d evict (%d wb), useless pf sw %d / hw %d",
		s.Accesses(), s.MissRatio()*100, s.LateHits, s.Fills, s.Evictions, s.Writebacks,
		s.UselessSW, s.UselessHW)
}

// invalidTag marks an empty way. Line addresses are byte addresses shifted
// right by ref.LineBits, so no line address can take this value.
const invalidTag = ^uint64(0)

// Per-line flag bits. The fill source takes the five bits above them.
const (
	flagDirty uint8 = 1 << iota
	flagNT
	flagUsed
	srcShift = iota
)

// Cache is a single set-associative level. Its state is a structure of
// arrays indexed by set*Assoc+way: a set's tags form one contiguous row, so
// the tag compare of a lookup and the stamp scan of a victim choice each
// read only a few host cache lines, and the ready time and flags are read
// only for the way that hit or the way being evicted. A Cache is not safe
// for concurrent use: even Probe records the line it missed on.
type Cache struct {
	cfg     Config
	sets    int
	assoc   int
	setMask uint64
	lru     bool     // refresh stamp on every use (all but FIFO) or only at fill
	tags    []uint64 // line address per way, invalidTag when empty
	stamp   []int64  // LRU: last use; FIFO: fill order (both from useCtr)
	readyAt []int64  // cycle at which the fill data arrives
	flags   []uint8  // flagDirty|flagNT|flagUsed | Src<<srcShift
	absent  uint64   // a line known not to be resident (invalidTag if none)
	useCtr  int64
	rng     uint64 // xorshift state for Random replacement
	stats   Stats
}

// New builds a cache from cfg. Size/(Assoc*64) must be a power of two.
func New(cfg Config) (*Cache, error) {
	if cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cache %q: bad associativity %d", cfg.Name, cfg.Assoc)
	}
	lines := cfg.Size / 64
	if lines <= 0 || cfg.Size%64 != 0 {
		return nil, fmt.Errorf("cache %q: bad size %d", cfg.Name, cfg.Size)
	}
	sets := lines / int64(cfg.Assoc)
	if sets <= 0 || lines%int64(cfg.Assoc) != 0 {
		return nil, fmt.Errorf("cache %q: size %d not divisible by assoc %d ways", cfg.Name, cfg.Size, cfg.Assoc)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %q: set count %d not a power of two", cfg.Name, sets)
	}
	c := &Cache{
		cfg:     cfg,
		sets:    int(sets),
		assoc:   cfg.Assoc,
		setMask: uint64(sets - 1),
		lru:     cfg.Policy != FIFO,
		tags:    make([]uint64, lines),
		stamp:   make([]int64, lines),
		readyAt: make([]int64, lines),
		flags:   make([]uint8, lines),
	}
	c.Reset()
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Stats returns a copy of the level statistics.
func (c *Cache) Stats() Stats { return c.stats }

// find returns the index of the way holding line, or -1 if it is absent.
// A miss is remembered in c.absent.
func (c *Cache) find(line uint64) int {
	s := int(line&c.setMask) * c.assoc
	for i, t := range c.tags[s : s+c.assoc] {
		if t == line {
			return s + i
		}
	}
	c.absent = line
	return -1
}

// Lookup performs a demand access to a line address at time now. On a hit it
// refreshes LRU state, marks the line used, and returns any residual
// in-flight latency (0 if the fill already completed). On a miss it returns
// ok=false and records a miss.
func (c *Cache) Lookup(line uint64, now int64) (wait int64, ok bool) {
	w := c.find(line)
	if w < 0 {
		c.stats.Misses++
		return 0, false
	}
	c.useCtr++
	if c.lru {
		c.stamp[w] = c.useCtr
	}
	c.flags[w] |= flagUsed
	c.stats.Hits++
	if r := c.readyAt[w]; r > now {
		c.stats.LateHits++
		return r - now, true
	}
	return 0, true
}

// Probe reports whether the line is present without touching LRU, usage or
// statistics. Hardware prefetchers use it to filter redundant prefetches.
func (c *Cache) Probe(line uint64) bool { return c.find(line) >= 0 }

// Touch marks an existing line dirty (store hit) and reports whether the
// line was present. It changes nothing if the line is absent.
func (c *Cache) Touch(line uint64, dirty bool) bool {
	w := c.find(line)
	if w < 0 {
		return false
	}
	if dirty {
		c.flags[w] |= flagDirty
	}
	return true
}

// FillOpts qualifies an Insert.
type FillOpts struct {
	Dirty   bool
	NT      bool
	Src     FillSrc
	ReadyAt int64 // when the data arrives (≤ now means already here)
	Used    bool  // filled by the demand access itself
}

// Insert installs a line, evicting the LRU victim if the set is full. The
// evicted line (if any) is returned so the hierarchy can write it back or
// install it one level down. Inserting a line that is already present
// refreshes its metadata instead of duplicating it.
func (c *Cache) Insert(line uint64, now int64, opts FillOpts) (victim Line, evicted bool) {
	// When the last scan missed on this line, only an Insert of it could
	// have brought it in since, so the set need not be scanned again: the
	// hierarchy inserts right after a Lookup, Probe or Touch miss.
	if line != c.absent {
		if w := c.find(line); w >= 0 {
			// Refresh in place (e.g. prefetch to an already-present line).
			if opts.Dirty {
				c.flags[w] |= flagDirty
			}
			if opts.ReadyAt < c.readyAt[w] {
				c.readyAt[w] = opts.ReadyAt
			}
			c.useCtr++
			if c.lru {
				c.stamp[w] = c.useCtr
			}
			return Line{}, false
		}
	}
	s := int(line&c.setMask) * c.assoc
	tags := c.tags[s : s+c.assoc]
	var w int
	if tags[0] == invalidTag {
		// A fill takes the set's last empty way and only Reset empties a
		// way, so the empty ways are always a prefix of the set: fill the
		// last way of that prefix.
		i := 1
		for i < len(tags) && tags[i] == invalidTag {
			i++
		}
		w = s + i - 1
	} else {
		w = s + c.victim(s)
		f := c.flags[w]
		victim = Line{
			Tag:     c.tags[w],
			Valid:   true,
			Dirty:   f&flagDirty != 0,
			NT:      f&flagNT != 0,
			Src:     FillSrc(f >> srcShift),
			Used:    f&flagUsed != 0,
			ReadyAt: c.readyAt[w],
		}
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
	c.absent = invalidTag
	c.useCtr++
	f := uint8(opts.Src) << srcShift
	if opts.Dirty {
		f |= flagDirty
	}
	if opts.NT {
		f |= flagNT
	}
	if opts.Used {
		f |= flagUsed
	}
	c.tags[w] = line
	c.stamp[w] = c.useCtr
	c.readyAt[w] = opts.ReadyAt
	c.flags[w] = f
	c.stats.Fills++
	return victim, evicted
}

// victim picks the way to evict from the full set starting at index s
// according to the policy.
func (c *Cache) victim(s int) int {
	if c.cfg.Policy == Random {
		// xorshift64*: deterministic and fast.
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return int(c.rng % uint64(c.assoc))
	}
	// LRU and FIFO both evict the smallest stamp; ties go to the lowest way.
	min := int64(1<<63 - 1)
	idx := 0
	for i, st := range c.stamp[s : s+c.assoc] {
		if st < min {
			min = st
			idx = i
		}
	}
	return idx
}

// Reset invalidates all lines and zeroes statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.stamp)
	clear(c.readyAt)
	clear(c.flags)
	c.absent = invalidTag
	c.useCtr = 0
	c.rng = 0x9e3779b97f4a7c15
	c.stats = Stats{}
}
