// Package cache models set-associative write-back caches with LRU
// replacement, in-flight fill tracking (so a prefetched line that has not
// yet arrived still charges partial latency), explicit line flushes
// (clflush/clflushopt), and a simple stream prefetcher.
//
// The storage layout is optimized for the simulator's hot path, where a
// modeled L3 is far larger than the host's caches: all the state a set
// walk, a hit, a fill or a flush reads and writes, but for the tags and
// arrival times, lives in one block of uint64 words per set, so a 20-way
// set is exactly one 64-byte host cache line. For a cache of W ways
// (W ≤ 64) and n = ⌈W/8⌉, a block holds, in order,
//
//   - a dirty mask, bit w for way w;
//   - the count V of valid ways;
//   - n LRU rank words, one byte per way (way w in byte w%8 of word w/8);
//   - n signature words, one byte per way: a one-byte hash of the way's
//     tag, with 0 reserved for an invalid way;
//   - zero padding up to a power-of-two stride.
//
// Each region is read and written only as whole words, so a load never
// waits on a narrower store to the same word. The set walk compares eight
// signatures per word (an exact zero-byte test on word ^ sig·0x0101…) and
// touches a way's full tag only to verify a signature match, so false
// matches (~W/255 per probe) cost one exact tag compare and outcomes never
// depend on the hash. The full tag and the in-flight arrival time live in
// a separate 16-byte record per way, read on a match or an eviction.
//
// Ranks are ascending: among the V valid ways, rank 0 is the least
// recently used and V−1 the most recently used; an invalid way has rank 0.
// A fill into a free way gives it rank V and counts it, and a hit on the
// MRU way changes nothing. Any other hit lowers every rank above the way's
// own (one add and one subtract per rank word, eight lanes at once) and
// gives it V−1; a flush does the same lowering, zeroes the way's rank and
// uncounts it. A full set evicts its rank-0 way, found by the same
// zero-byte test, lowers every other rank and reuses the way as the MRU
// way. The ranks order the valid ways exactly as a per-way last-touch
// clock would, so the victim is the way a strict-minimum, earliest-index
// scan over such clocks picks.
//
// A fill takes the first invalid way, so a set kept partly empty by
// flushes never looks at the other ways' ranks. Probe and InsertSlot split
// a fill into its walk and its install, so a caller that must look before
// it fills (the core's prefetcher probes L3 and L2, then issues the memory
// request, then fills both) walks each set once; Insert is the walk and
// the same install in one call.
//
// A cache-global last-hit fast path (TouchLast) lets the CPU layer skip
// the walk entirely for consecutive accesses to the same line. It performs
// bit-identical bookkeeping to the walk: hit/miss outcomes, LRU order,
// statistics and in-flight arrival accounting are unchanged, so simulated
// virtual time is unaffected (the determinism gate the equivalence tests
// pin down).
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

// maxWays is the largest associativity a Cache supports: a set's dirty
// mask is one 64-bit word.
const maxWays = 64

// Config describes one cache level.
type Config struct {
	// Name labels the level for diagnostics (e.g. "L1d", "L3").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity, at most 64.
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
	if c.Ways > maxWays {
		return fmt.Errorf("cache %q: %d ways exceeds the maximum of %d", c.Name, c.Ways, maxWays)
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
// tag and reads the arrival from one 16-byte record, and an eviction
// reconstructs the victim's address from the same record the insert is
// about to overwrite.
type wayMeta struct {
	arrival sim.Time
	tag     uintptr
}

// Word offsets within a set block: the dirty mask, the valid count and the
// first rank word; the signature words follow the rank words (see the
// package comment).
const (
	dirtyWord = 0
	countWord = 1
	rankWord0 = 2

	lanes = 0x0101010101010101 // one in every byte lane
	low7  = 0x7f7f7f7f7f7f7f7f
	highs = 0x8080808080808080
)

// Cache is one set-associative write-back cache level.
//
// blocks holds one block per set, 1<<blockShift words from set<<blockShift:
// dirty mask, valid count V, ascending LRU ranks (0 = LRU, V−1 = MRU) and
// signatures, as the package comment lays out. meta holds one record per
// way, indexed by set*ways+way, with the way's tag as tag+1 so that a
// cleared record matches no line. A way is valid iff its signature is
// nonzero.
type Cache struct {
	cfg        Config
	blocks     []uint64  // per set: dirty mask, valid count, ranks, signatures
	meta       []wayMeta // per way; fill arrival + tag
	numSets    int
	ways       int
	nWords     int  // ⌈ways/8⌉: rank words, and signature words, per block
	sigWord0   int  // offset of a block's first signature word
	blockShift uint // log2 of a block's stride in words
	setMask    int  // numSets-1 when numSets is a power of two, else 0
	lineShift  uint // log2(LineSize) when it is a power of two
	linePow2   bool

	// lastIdx/lastSet remember the most recently hit (or inserted) line
	// for the TouchLast fast path; lastIdx is -1 when no such line is
	// valid. That line is always its set's MRU way.
	lastIdx int
	lastSet int

	stats Stats
}

// sigOf hashes a stored tag value (tag+1, never zero) to its one-byte walk
// signature and returns it in every byte lane. Zero is reserved for
// invalid ways, so a valid signature is remapped away from it; any
// deterministic mixing works — a false match only costs one exact tag
// compare.
func sigOf(want uintptr) uint64 {
	s := uint8(want ^ want>>13 ^ want>>27)
	if s == 0 {
		s = 0xa5
	}
	return uint64(s) * lanes
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
	nWords := (cfg.Ways + 7) / 8
	shift := uint(bits.Len(uint(rankWord0 + 2*nWords - 1)))
	c := &Cache{
		cfg:        cfg,
		blocks:     make([]uint64, numSets<<shift),
		meta:       make([]wayMeta, lines),
		numSets:    numSets,
		ways:       cfg.Ways,
		nWords:     nWords,
		sigWord0:   rankWord0 + nWords,
		blockShift: shift,
		setMask:    mask,
		lastIdx:    -1,
	}
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

// blockOff returns the offset in blocks of set's block.
func (c *Cache) blockOff(set int) int { return set << (c.blockShift & 63) }

// zeroBytes sets the high bit of exactly the byte lanes of x that are zero
// (no false positives, so any set bit names a zero lane).
func zeroBytes(x uint64) uint64 {
	return ^((x&low7 + low7) | x | low7)
}

// firstZero returns the lowest zero byte lane of the words from w0, which
// the caller knows is one of a set's ways: padding lanes follow the ways.
func (c *Cache) firstZero(w0 int) int {
	for k := 0; ; k++ {
		if m := zeroBytes(c.blocks[w0+k]); m != 0 {
			return k<<3 | bits.TrailingZeros64(m)>>3
		}
	}
}

// lane and setLane read and write byte lane i of the words from w0.
func (c *Cache) lane(w0, i int) uint64 { return c.blocks[w0+i>>3] >> (uint(i) & 7 << 3) & 0xff }

func (c *Cache) setLane(w0, i int, v uint64) {
	p := &c.blocks[w0+i>>3]
	sh := uint(i) & 7 << 3
	*p = *p&^(0xff<<sh) | v<<sh
}

// lower decrements every rank above r in the block at off. Ranks and r are
// below 64, so a lane holding rank b reaches 128 after adding 127−r exactly
// when b > r, with no carry into the next lane.
func (c *Cache) lower(off int, r uint64) {
	add := (0x7f - r) * lanes
	rk := c.blocks[off+rankWord0 : off+rankWord0+c.nWords]
	for k, w := range rk {
		rk[k] = w - (w+add)&highs>>7
	}
}

// toTop gives way, valid in the block at off with rank r, the MRU rank.
// Its callers skip it when r already is the MRU rank, V-1.
func (c *Cache) toTop(off, way int, r uint64) {
	c.lower(off, r)
	c.setLane(off+rankWord0, way, c.blocks[off+countWord]-1)
}

// find returns the way of the set at block offset off holding the tag
// value want, or -1. Invalid ways and padding hold signature 0, which
// never equals a valid signature. Its callers pass the set's first line
// index and want's signature in every byte lane, which keeps the walk
// small enough to inline into them.
func (c *Cache) find(off, base int, want uintptr, pat uint64) int {
	for k := 0; k < c.nWords; k++ {
		for m := zeroBytes(c.blocks[off+c.sigWord0+k] ^ pat); m != 0; m &= m - 1 {
			way := k<<3 | bits.TrailingZeros64(m)>>3
			if c.meta[base+way].tag == want {
				return way
			}
		}
	}
	return -1
}

// Lookup probes the cache at virtual time now. On a hit it updates LRU state
// and returns any residual wait for an in-flight fill (zero once the line
// has fully arrived). markDirty additionally dirties the line (a store hit).
func (c *Cache) Lookup(addr uintptr, now sim.Time, markDirty bool) (hit bool, wait sim.Time) {
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	off := c.blockOff(set)
	way := c.find(off, set*c.ways, tag+1, sigOf(tag+1))
	if way < 0 {
		c.stats.Misses++
		return false, 0
	}
	if r := c.lane(off+rankWord0, way); r+1 != c.blocks[off+countWord] {
		c.toTop(off, way, r)
	}
	if markDirty {
		c.blocks[off+dirtyWord] |= 1 << (uint(way) & 63)
	}
	idx := set*c.ways + way
	c.lastIdx, c.lastSet = idx, set
	c.stats.Hits++
	if a := c.meta[idx].arrival; a > now {
		return true, a - now
	}
	return true, 0
}

// TouchLast re-hits the cache's most recently hit or filled line when addr
// still maps to it, performing bookkeeping identical to Lookup, and reports
// ok=false (with no side effects) otherwise. It lets the CPU's per-core
// last-line filter skip the set walk for consecutive same-line accesses.
// The last line is its set's MRU way, so a re-hit leaves the ranks as they
// are.
func (c *Cache) TouchLast(addr uintptr, now sim.Time, markDirty bool) (wait sim.Time, ok bool) {
	idx := c.lastIdx
	if idx < 0 || c.meta[idx].tag != c.tagOf(addr)+1 {
		return 0, false
	}
	if markDirty {
		set := c.lastSet
		c.blocks[c.blockOff(set)+dirtyWord] |= 1 << (uint(idx-set*c.ways) & 63)
	}
	c.stats.Hits++
	if a := c.meta[idx].arrival; a > now {
		return a - now, true
	}
	return 0, true
}

// Slot is the outcome of a Probe: the probed line's tag and set, and the
// way the line occupies (when present) or the first invalid way of its set
// (-1 when the set is full). It is a plain value, returned and passed in
// registers.
type Slot struct {
	way int // or -1
	set int
	tag uintptr
}

// Probe walks the set of the line holding addr once, without touching LRU
// or statistics, and reports whether the line is present. The returned Slot
// lets InsertSlot fill the line without walking the set again.
func (c *Cache) Probe(addr uintptr) (s Slot, present bool) {
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	off := c.blockOff(set)
	if way := c.find(off, set*c.ways, tag+1, sigOf(tag+1)); way >= 0 {
		return Slot{way: way, set: set, tag: tag}, true
	}
	return Slot{way: c.freeWay(off), set: set, tag: tag}, false
}

// freeWay returns the first invalid way of the set whose block is at off,
// or -1 when the set is full.
func (c *Cache) freeWay(off int) int {
	if c.blocks[off+countWord] == uint64(c.ways) {
		return -1
	}
	return c.firstZero(off + c.sigWord0)
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
// instead: it becomes the set's MRU way, dirty is or-ed in and its arrival
// moves earlier if this fill lands sooner.
func (c *Cache) Insert(addr uintptr, dirty bool, arrival sim.Time) (ev Eviction, evicted bool) {
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	off := c.blockOff(set)
	pat := sigOf(tag + 1)
	if way := c.find(off, set*c.ways, tag+1, pat); way >= 0 {
		// Already present (e.g. racing prefetch): refresh.
		if r := c.lane(off+rankWord0, way); r+1 != c.blocks[off+countWord] {
			c.toTop(off, way, r)
		}
		if dirty {
			c.blocks[off+dirtyWord] |= 1 << (uint(way) & 63)
		}
		idx := set*c.ways + way
		c.lastIdx, c.lastSet = idx, set
		c.meta[idx].arrival = min(c.meta[idx].arrival, arrival)
		return Eviction{}, false
	}
	way := c.freeWay(off)
	if way < 0 {
		return c.InsertSlot(Slot{way: -1, set: set, tag: tag}, dirty, arrival)
	}
	// Free way: the fast path of a set kept partly empty by flushes, with
	// no out-of-line call.
	c.claim(off, way)
	c.install(off, set, way, tag, pat, dirty, arrival)
	return Eviction{}, false
}

// InsertSlot fills the line a Probe reported absent into s, evicting the
// set's LRU way when the probe found no invalid way, and returns the
// displaced line as Insert does. s must come from a Probe of this cache
// with no other operation on the cache in between.
func (c *Cache) InsertSlot(s Slot, dirty bool, arrival sim.Time) (ev Eviction, evicted bool) {
	off := c.blockOff(s.set)
	way := s.way
	if way >= 0 {
		c.claim(off, way)
	} else {
		// Full set: the rank-0 way is the LRU way. Its ranks are a
		// permutation of 0..ways-1, so that is the first zero rank lane.
		way = c.firstZero(off + rankWord0)
		bit := uint64(1) << (uint(way) & 63)
		victimDirty := c.blocks[off+dirtyWord]&bit != 0
		c.stats.Evictions++
		if victimDirty {
			c.stats.DirtyEvictions++
		}
		ev = Eviction{Addr: (c.meta[s.set*c.ways+way].tag - 1) * uintptr(c.cfg.LineSize), Dirty: victimDirty}
		evicted = true
		c.toTop(off, way, 0)
		// Clear the way's signature and dirty bit for install.
		c.setLane(off+c.sigWord0, way, 0)
		c.blocks[off+dirtyWord] &^= bit
	}
	c.install(off, s.set, way, s.tag, sigOf(s.tag+1), dirty, arrival)
	return ev, evicted
}

// claim gives the free way of the block at off the MRU rank, V, and counts
// it.
func (c *Cache) claim(off, way int) {
	v := c.blocks[off+countWord]
	c.setLane(off+rankWord0, way, v)
	c.blocks[off+countWord] = v + 1
}

// install puts the line with tag (signature pattern pat) into way of set,
// whose block is at off, and makes it the cache's last line. The caller
// has ranked the way, and its signature lane and dirty bit read zero.
func (c *Cache) install(off, set, way int, tag uintptr, pat uint64, dirty bool, arrival sim.Time) {
	c.blocks[off+c.sigWord0+way>>3] |= pat & 0xff << (uint(way) & 7 << 3)
	if dirty {
		c.blocks[off+dirtyWord] |= 1 << (uint(way) & 63)
	}
	idx := set*c.ways + way
	c.meta[idx] = wayMeta{arrival: arrival, tag: tag + 1}
	c.lastIdx, c.lastSet = idx, set
}

// Flush invalidates the line holding addr, reporting whether it was present
// and whether it was dirty (and therefore needs a writeback). This models
// clflush/clflushopt.
func (c *Cache) Flush(addr uintptr) (present, dirty bool) {
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	off := c.blockOff(set)
	way := c.find(off, set*c.ways, tag+1, sigOf(tag+1))
	if way < 0 {
		return false, false
	}
	c.stats.Flushes++
	bit := uint64(1) << (uint(way) & 63)
	dirty = c.blocks[off+dirtyWord]&bit != 0
	c.blocks[off+dirtyWord] &^= bit
	v := c.blocks[off+countWord]
	if r := c.lane(off+rankWord0, way); r+1 != v {
		c.lower(off, r)
	}
	c.setLane(off+rankWord0, way, 0)
	c.blocks[off+countWord] = v - 1
	c.setLane(off+c.sigWord0, way, 0)
	idx := set*c.ways + way
	c.meta[idx] = wayMeta{}
	if c.lastIdx == idx {
		c.lastIdx = -1
	}
	return true, dirty
}

// InvalidateAll drops every line, returning the dirty line addresses so the
// caller can model writeback traffic. It is used to model cache invalidation
// between experiment trials.
func (c *Cache) InvalidateAll() []uintptr {
	var dirtyAddrs []uintptr
	for set := 0; set < c.numSets; set++ {
		mask := c.blocks[c.blockOff(set)+dirtyWord]
		for ; mask != 0; mask &= mask - 1 {
			way := bits.TrailingZeros64(mask)
			dirtyAddrs = append(dirtyAddrs, (c.meta[set*c.ways+way].tag-1)*uintptr(c.cfg.LineSize))
		}
	}
	clear(c.blocks)
	clear(c.meta)
	c.lastIdx = -1
	return dirtyAddrs
}
