package cache

import "testing"

// TestPrefetcherObserveNoAllocs gates the access-path contract: once built,
// Observe never allocates — proposed lines come from the construction-time
// scratch buffer. Covers the streaming case (every Observe proposes lines)
// and the pointer-chase case (every Observe allocates a new stream slot).
func TestPrefetcherObserveNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	t.Run("stream", func(t *testing.T) {
		p := NewPrefetcher(4)
		line := uintptr(100)
		for i := 0; i < 64; i++ { // arm the stream past the confidence gate
			p.Observe(line)
			line++
		}
		if allocs := testing.AllocsPerRun(200, func() {
			p.Observe(line)
			line++
		}); allocs != 0 {
			t.Errorf("streaming Observe: %v allocs/op, want 0", allocs)
		}
	})
	t.Run("chase", func(t *testing.T) {
		p := NewPrefetcher(4)
		rng := uintptr(12345)
		if allocs := testing.AllocsPerRun(500, func() {
			rng = rng*6364136223846793005 + 1442695040888963407
			p.Observe(rng >> 16)
		}); allocs != 0 {
			t.Errorf("pointer-chase Observe: %v allocs/op, want 0", allocs)
		}
	})
}

// BenchmarkPrefetcherObserve is the streaming hot loop for bench-quick; the
// 0 allocs/op report is asserted by TestPrefetcherObserveNoAllocs.
func BenchmarkPrefetcherObserve(b *testing.B) {
	p := NewPrefetcher(4)
	b.ReportAllocs()
	line := uintptr(1)
	for i := 0; i < b.N; i++ {
		p.Observe(line)
		line++
	}
}

// TestProbeInsertSlotNoAllocs gates the one-walk fill: Probe returns its
// Slot by value and InsertSlot takes it back, so neither allocates, on the
// free-way path or the full-set path.
func TestProbeInsertSlotNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	c, err := New(Config{Name: "alloc-l3", SizeBytes: 64 << 10, Ways: 16, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	line := uintptr(0)
	fill := func() {
		if s, in := c.Probe(line * 64); !in {
			c.InsertSlot(s, false, 0)
		}
		line++
	}
	if allocs := testing.AllocsPerRun(500, fill); allocs != 0 { // sets still filling
		t.Errorf("free-way fill: %v allocs/op, want 0", allocs)
	}
	for i := 0; i < 4*1024; i++ {
		fill()
	}
	if allocs := testing.AllocsPerRun(500, fill); allocs != 0 {
		t.Errorf("full-set fill: %v allocs/op, want 0", allocs)
	}
}
