// Package cache models set-associative write-back caches with LRU
// replacement, in-flight fill tracking (so a prefetched line that has not
// yet arrived still charges partial latency), explicit line flushes
// (clflush/clflushopt), and a simple stream prefetcher.
//
// The storage layout is optimized for the simulator's hot path: instead of
// an array of per-line structs, the cache keeps parallel arrays so that the
// set walk — the single hottest loop in the whole simulation — scans a
// compact one-byte signature vector (a hash of each way's tag, with 0
// reserved for invalid ways) and touches the full 8-byte tag only to verify
// a signature match. A large modeled L3 keeps its whole signature vector
// host-cache resident where the tag vector would not be, so a set probe
// that misses costs one host cache line instead of several; false signature
// matches (~ways/255 per probe) are filtered by the exact tag compare, so
// outcomes never depend on the hash. The full tag and the in-flight arrival
// time live in one 16-byte record so a hit verifies and reads one metadata
// line, while the LRU keys stay in their own packed vector.
//
// Victim choice: a fill takes the first invalid way, which the signature
// walk records as it goes, so a set kept partly empty by flushes never
// looks at the LRU state. Only a full set picks the least recently used
// way, and it does so without a data-dependent branch: each valid way's
// LRU key is its last-touch clock shifted left by wayBits with the way's
// own index in the low bits. The clocks are unique, so the smallest key is
// the least recently used way and its low bits name it — one min reduction
// over the set, selecting exactly the way a strict-minimum, earliest-index
// scan over the clocks would.
//
// Probe and InsertSlot split a fill into its walk and its install, so a
// caller that must look before it fills (the core's prefetcher probes L3
// and L2, then issues the memory request, then fills both) walks each set
// once; Insert is the walk and the same install in one call.
//
// A per-set MRU way hint resolves the common repeat-hit in one probe,
// and a cache-global last-hit fast path (TouchLast) lets the CPU layer skip
// the walk entirely for consecutive accesses to the same line. Every fast
// path performs bit-identical bookkeeping to the plain walk: hit/miss
// outcomes, LRU clocks, statistics and in-flight arrival accounting are
// unchanged, so simulated virtual time is unaffected (the determinism gate
// the equivalence tests pin down).
//
// No-allocation contract: after New, the steady-state operations — Lookup,
// TouchLast, Insert, Probe, InsertSlot, Flush, Contains and the
// prefetcher's Observe — never allocate. `make bench-alloc` gates this with
// testing.AllocsPerRun.
package cache

import (
	"fmt"
	"math/bits"

	"github.com/quartz-emu/quartz/internal/sim"
)

// Config describes one cache level.
type Config struct {
	// Name labels the level for diagnostics (e.g. "L1d", "L3").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineSize is the line size in bytes.
	LineSize int
	// LookupLat is the latency contribution of probing this level.
	LookupLat sim.Time
}

// Validate reports whether the configuration describes a buildable cache.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache %q: size/ways/linesize must be positive (got %d/%d/%d)",
			c.Name, c.SizeBytes, c.Ways, c.LineSize)
	}
	lines := c.SizeBytes / c.LineSize
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	return nil
}

// Stats aggregates cache activity.
type Stats struct {
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64
	Flushes        int64
}

// Eviction describes a line displaced by an insert.
type Eviction struct {
	Addr  uintptr // line-aligned address
	Dirty bool
}

// wayMeta pairs the per-way fill arrival time with the stored tag (tag+1,
// meaningful only while the way's signature is nonzero). A hit verifies the
// tag and reads the arrival from one 16-byte record — a single metadata
// line — and an eviction reconstructs the victim's address from the same
// line the insert is about to overwrite. The LRU keys stay in their own
// packed vector so the full-set min reduction streams 8-byte values.
type wayMeta struct {
	arrival sim.Time
	tag     uintptr
}

// Cache is one set-associative write-back cache level.
//
// Line state is held in parallel arrays indexed by set*ways+way. meta holds
// each way's tag as tag+1 so that zero means "invalid way"; sigs holds a
// one-byte hash of that value (0 = invalid way), the vector the set walk
// actually scans. A way is valid iff its signature is nonzero. A valid
// way's lastUse is its LRU key, useClk<<wayBits | way (see the package
// comment); an invalid way's is never read.
type Cache struct {
	cfg     Config
	sigs    []uint8   // signature of meta[i].tag per way; 0 = invalid
	meta    []wayMeta // per way; fill arrival + tag
	lastUse []uint64  // per way; LRU key of the last touch
	dirty   []bool    // per way
	mru     []int32   // per set; way of the most recent hit/insert

	numSets   int
	ways      int
	wayBits   uint   // bits.Len(ways-1): the way field of an LRU key
	wayMask   uint64 // 1<<wayBits - 1
	setMask   int    // numSets-1 when numSets is a power of two, else 0
	lineShift uint   // log2(LineSize) when it is a power of two
	linePow2  bool

	// lastIdx/lastTag remember the most recently hit (or inserted) line for
	// the TouchLast fast path; lastIdx is -1 when no such line is valid.
	lastIdx int
	lastTag uintptr

	useClk uint64
	stats  Stats
}

// sigOf hashes a stored tag value (tag+1, never zero) to its one-byte walk
// signature. Zero is reserved for invalid ways, so a valid signature is
// remapped away from it; any deterministic mixing works — a false match
// only costs one exact tag compare.
func sigOf(want uintptr) uint8 {
	s := uint8(want ^ want>>13 ^ want>>27)
	if s == 0 {
		return 0xa5
	}
	return s
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineSize
	numSets := lines / cfg.Ways
	mask := 0
	if numSets&(numSets-1) == 0 {
		mask = numSets - 1
	}
	c := &Cache{
		cfg:     cfg,
		sigs:    make([]uint8, lines),
		meta:    make([]wayMeta, lines),
		lastUse: make([]uint64, lines),
		dirty:   make([]bool, lines),
		mru:     make([]int32, numSets),
		numSets: numSets,
		ways:    cfg.Ways,
		wayBits: uint(bits.Len(uint(cfg.Ways - 1))),
		setMask: mask,
		lastIdx: -1,
	}
	c.wayMask = 1<<c.wayBits - 1
	if cfg.LineSize&(cfg.LineSize-1) == 0 {
		c.lineShift = uint(bits.TrailingZeros(uint(cfg.LineSize)))
		c.linePow2 = true
	}
	return c, nil
}

// Config reports the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LookupLat reports the level's probe latency without copying the whole
// configuration (the hot-path accessor for the CPU walk).
func (c *Cache) LookupLat() sim.Time { return c.cfg.LookupLat }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) lineAddr(addr uintptr) uintptr {
	return addr &^ uintptr(c.cfg.LineSize-1)
}

// tagOf maps an address to its line tag (addr / LineSize; a shift when the
// line size is a power of two — unsigned division and shift agree exactly).
func (c *Cache) tagOf(addr uintptr) uintptr {
	if c.linePow2 {
		return addr >> c.lineShift
	}
	return addr / uintptr(c.cfg.LineSize)
}

// setOf maps a tag to its set index.
func (c *Cache) setOf(tag uintptr) int {
	if c.setMask != 0 {
		return int(tag) & c.setMask
	}
	return int(tag % uintptr(c.numSets))
}

// hitAt performs the bookkeeping of a hit on the way at index idx and
// returns the residual in-flight wait. It is the single shared hit path, so
// the MRU probe, the walk and TouchLast are bit-identical by construction.
func (c *Cache) hitAt(idx int, tag uintptr, now sim.Time, markDirty bool) (wait sim.Time) {
	c.useClk++
	// A valid way's key already holds its way index in the low bits.
	c.lastUse[idx] = c.useClk<<c.wayBits | c.lastUse[idx]&c.wayMask
	if markDirty {
		c.dirty[idx] = true
	}
	c.stats.Hits++
	c.lastIdx = idx
	c.lastTag = tag
	if a := c.meta[idx].arrival; a > now {
		return a - now
	}
	return 0
}

// Lookup probes the cache at virtual time now. On a hit it updates LRU state
// and returns any residual wait for an in-flight fill (zero once the line
// has fully arrived). markDirty additionally dirties the line (a store hit).
func (c *Cache) Lookup(addr uintptr, now sim.Time, markDirty bool) (hit bool, wait sim.Time) {
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	base := set * c.ways
	want := tag + 1
	sig := sigOf(want)
	// MRU probe: the way that hit last time in this set.
	if m := base + int(c.mru[set]); c.sigs[m] == sig && c.meta[m].tag == want {
		wait = c.hitAt(m, tag, now, markDirty)
		return true, wait
	}
	for i, s := range c.sigs[base : base+c.ways] {
		if s == sig && c.meta[base+i].tag == want {
			idx := base + i
			c.mru[set] = int32(i)
			wait = c.hitAt(idx, tag, now, markDirty)
			return true, wait
		}
	}
	c.stats.Misses++
	return false, 0
}

// TouchLast re-hits the cache's most recently hit or filled line when addr
// still maps to it, performing bookkeeping identical to Lookup, and reports
// ok=false (with no side effects) otherwise. It lets the CPU's per-core
// last-line filter skip the set walk for consecutive same-line accesses.
func (c *Cache) TouchLast(addr uintptr, now sim.Time, markDirty bool) (wait sim.Time, ok bool) {
	tag := c.tagOf(addr)
	idx := c.lastIdx
	if idx < 0 || c.meta[idx].tag != tag+1 {
		return 0, false
	}
	return c.hitAt(idx, tag, now, markDirty), true
}

// Slot is the outcome of a Probe: the probed line's tag and set, and the
// way the line occupies (when present) or the first invalid way of its set
// (-1 when the set is full). It is a plain value, returned and passed in
// registers.
type Slot struct {
	idx int // line index (set*ways+way), or -1
	set int
	tag uintptr
}

// Probe walks the set of the line holding addr once, without touching LRU
// or statistics, and reports whether the line is present. The returned Slot
// lets InsertSlot fill the line without walking the set again.
func (c *Cache) Probe(addr uintptr) (s Slot, present bool) {
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	base := set * c.ways
	want := tag + 1
	sig := sigOf(want)
	s = Slot{idx: -1, set: set, tag: tag}
	if m := base + int(c.mru[set]); c.sigs[m] == sig && c.meta[m].tag == want {
		s.idx = m
		return s, true
	}
	for i, g := range c.sigs[base : base+c.ways] {
		if g == sig && c.meta[base+i].tag == want {
			s.idx = base + i
			return s, true
		}
		if g == 0 && s.idx < 0 {
			s.idx = base + i
		}
	}
	return s, false
}

// Contains reports whether the line holding addr is present, without
// touching LRU or statistics.
func (c *Cache) Contains(addr uintptr) bool {
	_, ok := c.Probe(addr)
	return ok
}

// Insert fills the line holding addr, evicting the LRU victim if the set is
// full. arrival is when the fill data lands (demand fills arrive "now";
// prefetches arrive later). The displaced line, if any, is returned so the
// caller can issue a writeback. A line already present is refreshed
// instead: its LRU key is bumped, dirty is or-ed in and its arrival moves
// earlier if this fill lands sooner.
func (c *Cache) Insert(addr uintptr, dirty bool, arrival sim.Time) (ev Eviction, evicted bool) {
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	base := set * c.ways
	want := tag + 1
	sig := sigOf(want)
	// One pass over the signature vector finds the line (already present)
	// or records the first invalid way, the victim when there is one.
	free := -1
	for i, s := range c.sigs[base : base+c.ways] {
		if s == sig && c.meta[base+i].tag == want {
			// Already present (e.g. racing prefetch): refresh.
			idx := base + i
			c.useClk++
			c.lastUse[idx] = c.useClk<<c.wayBits | uint64(i)
			c.dirty[idx] = c.dirty[idx] || dirty
			if arrival < c.meta[idx].arrival {
				c.meta[idx].arrival = arrival
			}
			c.mru[set] = int32(i)
			c.lastIdx = idx
			c.lastTag = tag
			return Eviction{}, false
		}
		if s == 0 && free == -1 {
			free = base + i
		}
	}
	if free < 0 {
		return c.InsertSlot(Slot{idx: -1, set: set, tag: tag}, dirty, arrival)
	}
	// Free way: the fast path of a set kept partly empty by flushes.
	c.place(free, free-base, set, tag, sig, dirty, arrival)
	return Eviction{}, false
}

// InsertSlot fills the line a Probe reported absent into s, evicting the
// set's LRU way when the probe found no invalid way, and returns the
// displaced line as Insert does. s must come from a Probe of this cache
// with no other operation on the cache in between.
func (c *Cache) InsertSlot(s Slot, dirty bool, arrival sim.Time) (ev Eviction, evicted bool) {
	base := s.set * c.ways
	victim := s.idx
	if victim < 0 {
		// Full set: the smallest key is the LRU way's, and its low bits
		// name the way (the clocks are unique).
		victim = base + int(minKey(c.lastUse[base:base+c.ways])&c.wayMask)
		c.stats.Evictions++
		if c.dirty[victim] {
			c.stats.DirtyEvictions++
		}
		ev = Eviction{Addr: (c.meta[victim].tag - 1) * uintptr(c.cfg.LineSize), Dirty: c.dirty[victim]}
		evicted = true
	}
	c.place(victim, victim-base, s.set, s.tag, sigOf(s.tag+1), dirty, arrival)
	return ev, evicted
}

// place installs the line with tag (and its signature sig) into way of
// set, line index idx, and makes it the set's MRU way and the cache's last
// line.
func (c *Cache) place(idx, way, set int, tag uintptr, sig uint8, dirty bool, arrival sim.Time) {
	c.useClk++
	c.sigs[idx] = sig
	c.dirty[idx] = dirty
	c.lastUse[idx] = c.useClk<<c.wayBits | uint64(way)
	c.meta[idx] = wayMeta{arrival: arrival, tag: tag + 1}
	c.mru[set] = int32(way)
	c.lastIdx = idx
	c.lastTag = tag
}

// minKey returns the smallest LRU key of a full set. It stays out of line:
// inlined, its result would feed the victim's load addresses, and the
// compiler then keeps a compare-and-branch per way instead of a conditional
// move — the data-dependent branch the packed keys exist to remove.
//
//go:noinline
func minKey(lu []uint64) uint64 {
	m := lu[0]
	for _, k := range lu[1:] {
		m = min(m, k)
	}
	return m
}

// Flush invalidates the line holding addr, reporting whether it was present
// and whether it was dirty (and therefore needs a writeback). This models
// clflush/clflushopt.
func (c *Cache) Flush(addr uintptr) (present, dirty bool) {
	tag := c.tagOf(addr)
	base := c.setOf(tag) * c.ways
	want := tag + 1
	sig := sigOf(want)
	for i, s := range c.sigs[base : base+c.ways] {
		if s == sig && c.meta[base+i].tag == want {
			idx := base + i
			c.stats.Flushes++
			present, dirty = true, c.dirty[idx]
			c.sigs[idx] = 0
			c.dirty[idx] = false
			c.lastUse[idx] = 0
			c.meta[idx] = wayMeta{}
			if c.lastIdx == idx {
				c.lastIdx = -1
			}
			return present, dirty
		}
	}
	return false, false
}

// InvalidateAll drops every line, returning the dirty line addresses so the
// caller can model writeback traffic. It is used to model cache invalidation
// between experiment trials.
func (c *Cache) InvalidateAll() []uintptr {
	var dirtyAddrs []uintptr
	for i, s := range c.sigs {
		if s != 0 && c.dirty[i] {
			dirtyAddrs = append(dirtyAddrs, (c.meta[i].tag-1)*uintptr(c.cfg.LineSize))
		}
		c.sigs[i] = 0
		c.dirty[i] = false
		c.lastUse[i] = 0
		c.meta[i] = wayMeta{}
	}
	for i := range c.mru {
		c.mru[i] = 0
	}
	c.lastIdx = -1
	return dirtyAddrs
}
