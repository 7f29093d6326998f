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
// loop in the simulator (the MRU probe's best case).
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
