package cache

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

// refCache is the pre-optimization reference model: an array of per-line
// records walked linearly, with no MRU hint, no tag+1 encoding and no
// last-hit fast path. The optimized Cache must be observably
// indistinguishable from it — same hit/miss outcomes, waits, victims and
// statistics on any operation sequence — which is the determinism gate for
// the hot-path layout work.
type refCache struct {
	cfg     Config
	lines   []refLine
	numSets int
	useClk  uint64
	stats   Stats
}

type refLine struct {
	valid   bool
	tag     uintptr
	dirty   bool
	lastUse uint64
	arrival sim.Time
}

func newRefCache(cfg Config) *refCache {
	lines := cfg.SizeBytes / cfg.LineSize
	return &refCache{cfg: cfg, lines: make([]refLine, lines), numSets: lines / cfg.Ways}
}

func (c *refCache) set(addr uintptr) []refLine {
	tag := addr / uintptr(c.cfg.LineSize)
	base := int(tag%uintptr(c.numSets)) * c.cfg.Ways
	return c.lines[base : base+c.cfg.Ways]
}

func (c *refCache) Lookup(addr uintptr, now sim.Time, markDirty bool) (bool, sim.Time) {
	tag := addr / uintptr(c.cfg.LineSize)
	for i := range c.set(addr) {
		ln := &c.set(addr)[i]
		if ln.valid && ln.tag == tag {
			c.useClk++
			ln.lastUse = c.useClk
			if markDirty {
				ln.dirty = true
			}
			c.stats.Hits++
			if ln.arrival > now {
				return true, ln.arrival - now
			}
			return true, 0
		}
	}
	c.stats.Misses++
	return false, 0
}

func (c *refCache) Insert(addr uintptr, dirty bool, arrival sim.Time) (Eviction, bool) {
	tag := addr / uintptr(c.cfg.LineSize)
	set := c.set(addr)
	victim := -1
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			c.useClk++
			ln.lastUse = c.useClk
			ln.dirty = ln.dirty || dirty
			if arrival < ln.arrival {
				ln.arrival = arrival
			}
			return Eviction{}, false
		}
		if victim == -1 && !ln.valid {
			victim = i
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
	}
	var ev Eviction
	var evicted bool
	if set[victim].valid {
		c.stats.Evictions++
		if set[victim].dirty {
			c.stats.DirtyEvictions++
		}
		ev = Eviction{Addr: set[victim].tag * uintptr(c.cfg.LineSize), Dirty: set[victim].dirty}
		evicted = true
	}
	c.useClk++
	set[victim] = refLine{valid: true, tag: tag, dirty: dirty, lastUse: c.useClk, arrival: arrival}
	return ev, evicted
}

func (c *refCache) Flush(addr uintptr) (present, dirty bool) {
	tag := addr / uintptr(c.cfg.LineSize)
	for i := range c.set(addr) {
		ln := &c.set(addr)[i]
		if ln.valid && ln.tag == tag {
			c.stats.Flushes++
			present, dirty = true, ln.dirty
			*ln = refLine{}
			return present, dirty
		}
	}
	return false, false
}

func (c *refCache) Contains(addr uintptr) bool {
	tag := addr / uintptr(c.cfg.LineSize)
	for _, ln := range c.set(addr) {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// TestOptimizedMatchesReferenceTrace drives the optimized cache and the
// reference model with identical pseudo-random operation traces (the mix a
// core generates: mostly lookups with insert-on-miss, occasional store hits,
// prefetch-style future arrivals and flushes) and requires every per-op
// result and the final statistics to agree exactly. Each primary cache has
// an outer level twice its size and associativity, driven as a core drives
// L2 and L3: demand misses look the line up there too, and a prefetch-style
// op probes the outer level, then the primary, then fills both slots with
// InsertSlot (the reference checks it as Contains followed by Insert). The
// trace alternates flush-heavy phases, which keep sets partly empty so
// fills take the first invalid way, with light ones that fill every set
// and evict the LRU way; the test requires both kinds of fill.
func TestOptimizedMatchesReferenceTrace(t *testing.T) {
	for _, cfg := range []Config{
		smallConfig(),
		{Name: "np2-sets", SizeBytes: 4096 * 3 / 2, Ways: 4, LineSize: 64, LookupLat: sim.Nanosecond},
		{Name: "np2-line", SizeBytes: 48 * 96, Ways: 4, LineSize: 48, LookupLat: sim.Nanosecond},
		{Name: "direct-mapped", SizeBytes: 64 * 64, Ways: 1, LineSize: 64, LookupLat: sim.Nanosecond},
		{Name: "16-way", SizeBytes: 16 * 32 * 64, Ways: 16, LineSize: 64, LookupLat: sim.Nanosecond},
		{Name: "20-way", SizeBytes: 20 * 16 * 64, Ways: 20, LineSize: 64, LookupLat: sim.Nanosecond},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			outerCfg := Config{Name: cfg.Name + "-outer", SizeBytes: 2 * cfg.SizeBytes,
				Ways: 2 * cfg.Ways, LineSize: cfg.LineSize, LookupLat: sim.Nanosecond}
			opt, outer := mustCache(t, cfg), mustCache(t, outerCfg)
			ref, refOuter := newRefCache(cfg), newRefCache(outerCfg)
			x := uint64(0x9e3779b97f4a7c15)
			rnd := func(n uint64) uint64 {
				x = x*6364136223846793005 + 1442695040888963407
				return (x >> 33) % n
			}
			// The address pool spans about twice the outer level's lines
			// (at least 128 lines) so sets conflict and evict heavily.
			pool := max(uint64(256), uint64(8*cfg.SizeBytes/cfg.LineSize))
			insert := func(op int, c *Cache, r *refCache, addr uintptr, dirty bool, arrival sim.Time) {
				t.Helper()
				e1, v1 := c.Insert(addr, dirty, arrival)
				e2, v2 := r.Insert(addr, dirty, arrival)
				if e1 != e2 || v1 != v2 {
					t.Fatalf("op %d: %s Insert(%#x) = (%+v,%v), ref (%+v,%v)", op, c.cfg.Name, addr, e1, v1, e2, v2)
				}
			}
			insertSlot := func(op int, c *Cache, r *refCache, s Slot, addr uintptr, arrival sim.Time) {
				t.Helper()
				e1, v1 := c.InsertSlot(s, false, arrival)
				e2, v2 := r.Insert(addr, false, arrival)
				if e1 != e2 || v1 != v2 {
					t.Fatalf("op %d: %s InsertSlot(%#x) = (%+v,%v), ref (%+v,%v)", op, c.cfg.Name, addr, e1, v1, e2, v2)
				}
			}
			probe := func(op int, c *Cache, r *refCache, addr uintptr) (Slot, bool) {
				t.Helper()
				s, in := c.Probe(addr)
				if want := r.Contains(addr); in != want {
					t.Fatalf("op %d: %s Probe(%#x) present = %v, ref %v", op, c.cfg.Name, addr, in, want)
				}
				return s, in
			}
			var freeFills, fullFills int
			for op := 0; op < 60_000; op++ {
				addr := uintptr(rnd(pool)) * uintptr(cfg.LineSize) / 2
				now := sim.Time(rnd(1000)) * sim.Nanosecond
				flushEvery := uint64(10)
				if op/3000%2 == 1 { // flush-heavy phase
					flushEvery = 2
				}
				switch {
				case rnd(flushEvery) == 0: // flush both levels
					p1, d1 := opt.Flush(addr)
					p2, d2 := ref.Flush(addr)
					if p1 != p2 || d1 != d2 {
						t.Fatalf("op %d: Flush(%#x) = (%v,%v), ref (%v,%v)", op, addr, p1, d1, p2, d2)
					}
					p1, d1 = outer.Flush(addr)
					p2, d2 = refOuter.Flush(addr)
					if p1 != p2 || d1 != d2 {
						t.Fatalf("op %d: outer Flush(%#x) = (%v,%v), ref (%v,%v)", op, addr, p1, d1, p2, d2)
					}
				case rnd(8) == 0: // prefetch-style insert with future arrival
					insert(op, opt, ref, addr, false, now+100*sim.Nanosecond)
				case rnd(6) == 0: // prefetch fill: probe outer, probe primary, fill both
					so, in := probe(op, outer, refOuter, addr)
					if in {
						break
					}
					sp, in := probe(op, opt, ref, addr)
					if in {
						break
					}
					for _, s := range []Slot{so, sp} {
						if s.idx < 0 {
							fullFills++
						} else {
							freeFills++
						}
					}
					insertSlot(op, outer, refOuter, so, addr, now+100*sim.Nanosecond)
					insertSlot(op, opt, ref, sp, addr, now+100*sim.Nanosecond)
				default: // demand access, insert on miss
					markDirty := rnd(4) == 0
					h1, w1 := opt.Lookup(addr, now, markDirty)
					h2, w2 := ref.Lookup(addr, now, markDirty)
					if h1 != h2 || w1 != w2 {
						t.Fatalf("op %d: Lookup(%#x) = (%v,%v), ref (%v,%v)", op, addr, h1, w1, h2, w2)
					}
					if h1 {
						break
					}
					h1, w1 = outer.Lookup(addr, now, false)
					h2, w2 = refOuter.Lookup(addr, now, false)
					if h1 != h2 || w1 != w2 {
						t.Fatalf("op %d: outer Lookup(%#x) = (%v,%v), ref (%v,%v)", op, addr, h1, w1, h2, w2)
					}
					if !h1 {
						insert(op, outer, refOuter, addr, false, now)
					}
					insert(op, opt, ref, addr, markDirty, now)
				}
			}
			if opt.Stats() != ref.stats {
				t.Errorf("final stats diverged: opt %+v, ref %+v", opt.Stats(), ref.stats)
			}
			if outer.Stats() != refOuter.stats {
				t.Errorf("final outer stats diverged: opt %+v, ref %+v", outer.Stats(), refOuter.stats)
			}
			if freeFills < 100 || fullFills < 100 {
				t.Errorf("InsertSlot fills: %d into a free way, %d into a full set; want at least 100 of each", freeFills, fullFills)
			}
		})
	}
}

// TestTouchLastEquivalentToLookup drives two optimized caches with the same
// trace; one takes the TouchLast fast path whenever it applies (falling back
// to Lookup as the CPU layer does), the other always walks. Outcomes and
// statistics must be identical — TouchLast is bookkeeping-equivalent to a
// Lookup hit and side-effect-free on failure.
func TestTouchLastEquivalentToLookup(t *testing.T) {
	cfg := smallConfig()
	fast := mustCache(t, cfg)
	walk := mustCache(t, cfg)
	x := uint64(42)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for op := 0; op < 50_000; op++ {
		// Heavy same-line repetition so TouchLast actually exercises.
		addr := uintptr(rnd(32)) * 8
		if rnd(8) == 0 {
			addr += uintptr(rnd(64)) * uintptr(cfg.LineSize)
		}
		now := sim.Time(op) * sim.Nanosecond
		markDirty := rnd(4) == 0

		hw, ww := walk.Lookup(addr, now, markDirty)
		var hf bool
		var wf sim.Time
		if wait, ok := fast.TouchLast(addr, now, markDirty); ok {
			hf, wf = true, wait
		} else {
			hf, wf = fast.Lookup(addr, now, markDirty)
		}
		if hf != hw || wf != ww {
			t.Fatalf("op %d: fast (%v,%v) vs walk (%v,%v) at %#x", op, hf, wf, hw, ww, addr)
		}
		if !hw {
			fast.Insert(addr, markDirty, now)
			walk.Insert(addr, markDirty, now)
		}
	}
	if fast.Stats() != walk.Stats() {
		t.Errorf("stats diverged: fast %+v, walk %+v", fast.Stats(), walk.Stats())
	}
}
