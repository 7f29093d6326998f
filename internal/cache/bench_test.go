package cache

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(Config{Name: "bench", SizeBytes: 32 << 10, Ways: 8, LineSize: 64, LookupLat: sim.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkCacheLookupHit measures the repeat-hit walk — the single hottest
// loop in the simulator — on hits to each set's MRU way, which leave the
// LRU ranks as they are.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := benchCache(b)
	for a := uintptr(0); a < 64; a++ {
		c.Insert(a*64, false, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uintptr(i%64)*64, 0, false)
	}
}

// BenchmarkCacheLookupMiss measures the full-set scan on a guaranteed miss.
func BenchmarkCacheLookupMiss(b *testing.B) {
	c := benchCache(b)
	for a := uintptr(0); a < 512; a++ {
		c.Insert(a*64, false, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uintptr(1<<30)+uintptr(i)*64, 0, false)
	}
}

// BenchmarkCacheTouchLast measures the last-line fast path.
func BenchmarkCacheTouchLast(b *testing.B) {
	c := benchCache(b)
	c.Insert(0x1000, false, 0)
	c.Lookup(0x1000, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TouchLast(0x1000, 0, false)
	}
}

// BenchmarkCacheInsertEvict measures steady-state insert with eviction (the
// streaming-workload fill path).
func BenchmarkCacheInsertEvict(b *testing.B) {
	c := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uintptr(i)*64, false, 0)
	}
}

// BenchmarkPrefetcherObserveRandom measures the stream-table scan under a
// pattern with no streams — the allocation path a pointer chase takes on
// every load.
func BenchmarkPrefetcherObserveRandom(b *testing.B) {
	p := NewPrefetcher(4)
	x := uint32(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*1664525 + 1013904223
		p.Observe(uintptr(x) * 7919)
	}
}

// BenchmarkCacheInsertEvictRandom measures steady-state insert with eviction
// into a 2 MiB 16-way cache (a modeled L3) under random lines: every set is
// full and the LRU way differs from fill to fill, so the victim choice
// cannot ride a predicted branch the way the sequential stream above does.
func BenchmarkCacheInsertEvictRandom(b *testing.B) {
	c, err := New(Config{Name: "bench-l3", SizeBytes: 2 << 20, Ways: 16, LineSize: 64, LookupLat: sim.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	x := uint64(1)
	next := func() uintptr {
		x = x*6364136223846793005 + 1442695040888963407
		return uintptr(x>>38) * 64 // 2^26 distinct lines, 128x the cache
	}
	for i := 0; i < 4*(2<<20)/64; i++ { // fill every set before timing
		c.Insert(next(), false, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(next(), false, 0)
	}
}

// ivyLevels builds the Ivy Bridge hierarchy a core walks: 32 KiB 8-way L1,
// 256 KiB 8-way L2 and a 25 MiB 20-way L3. The L3's line state (about
// 10 MiB) does not fit the host's caches, so these benchmarks see how many
// host cache lines a simulated set costs.
func ivyLevels(b *testing.B) [3]*Cache {
	b.Helper()
	var lv [3]*Cache
	for i, cfg := range []Config{
		{Name: "L1d", SizeBytes: 32 << 10, Ways: 8, LineSize: 64},
		{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineSize: 64},
		{Name: "L3", SizeBytes: 25 << 20, Ways: 20, LineSize: 64},
	} {
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lv[i] = c
	}
	return lv
}

// BenchmarkCacheMissFillL3 measures a demand load that misses all three
// levels and fills them, LRU victim included — a pointer chase's path. The
// lines are distinct (an odd multiplier permutes 2^32 line numbers), so
// every timed access misses everywhere once the sets are full.
func BenchmarkCacheMissFillL3(b *testing.B) {
	lv := ivyLevels(b)
	line := uint32(0)
	access := func() {
		line++
		addr := uintptr(line*0x9e3779b1) * 64
		for _, c := range lv {
			if hit, _ := c.Lookup(addr, 0, false); hit {
				return
			}
		}
		for i := len(lv) - 1; i >= 0; i-- {
			lv[i].Insert(addr, false, 0)
		}
	}
	for i := 0; i < 2*(25<<20)/64; i++ { // fill every L3 set before timing
		access()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access()
	}
}

// BenchmarkCacheStoreFlushLine measures a store miss that fills all three
// levels, followed by a clflushopt of the line from each — a log writer's
// path. The lines are sequential and each leaves its sets on the flush, so
// every fill lands in a near-empty set.
func BenchmarkCacheStoreFlushLine(b *testing.B) {
	lv := ivyLevels(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uintptr(i) * 64
		if hit, _ := lv[0].Lookup(addr, 0, true); !hit {
			lv[1].Lookup(addr, 0, false)
			lv[2].Lookup(addr, 0, false)
			lv[2].Insert(addr, false, 0)
			lv[1].Insert(addr, false, 0)
			lv[0].Insert(addr, true, 0)
		}
		for _, c := range lv {
			c.Flush(addr)
		}
	}
}
