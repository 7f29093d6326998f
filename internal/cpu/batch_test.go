package cpu

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

// countersEqual compares the Table 1 counter state of two cores.
func countersEqual(t *testing.T, a, b *perf.Counters) {
	t.Helper()
	if a.TrueStallCycles() != b.TrueStallCycles() {
		t.Errorf("stall cycles diverged: %g vs %g", a.TrueStallCycles(), b.TrueStallCycles())
	}
	for _, e := range []perf.Event{perf.EventStallsL2Pending, perf.EventL3Hit, perf.EventL3MissLocal, perf.EventL3MissRemote} {
		va, erra := a.Read(e)
		vb, errb := b.Read(e)
		if (erra == nil) != (errb == nil) || va != vb {
			t.Errorf("counter %v diverged: %d (%v) vs %d (%v)", e, va, erra, vb, errb)
		}
	}
}

// TestLoadRunEquivalentToLoadLoop drives one core with individual dependent
// loads and a twin with the batched LoadRun over the same strided sequences.
// Total latency, final virtual time, perf counters and cache statistics must
// match exactly — LoadRun is the unrolled loop, batched.
func TestLoadRunEquivalentToLoadLoop(t *testing.T) {
	loop, _ := testCore(t, 4)
	run, _ := testCore(t, 4)

	x := uint64(7)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	nowLoop, nowRun := sim.Time(0), sim.Time(0)
	for iter := 0; iter < 200; iter++ {
		base := uintptr(rnd(1 << 22))
		stride := uintptr(rnd(4)+1) * 64
		n := int(rnd(32)) + 1

		var total sim.Time
		addr := base
		for i := 0; i < n; i++ {
			lat, _ := loop.Load(nowLoop+total, addr)
			total += lat
			addr += stride
		}
		nowLoop += total
		nowRun += run.LoadRun(nowRun, base, stride, n)
		if nowLoop != nowRun {
			t.Fatalf("iter %d: virtual time diverged: loop %v, run %v", iter, nowLoop, nowRun)
		}
	}
	countersEqual(t, loop.Counters(), run.Counters())
	if loop.L1().Stats() != run.L1().Stats() || loop.L3().Stats() != run.L3().Stats() {
		t.Error("cache statistics diverged between Load loop and LoadRun")
	}
}

// TestStoreRunEquivalentToStoreLoop does the same for posted stores.
func TestStoreRunEquivalentToStoreLoop(t *testing.T) {
	loop, _ := testCore(t, 0)
	run, _ := testCore(t, 0)
	nowLoop, nowRun := sim.Time(0), sim.Time(0)
	for iter := 0; iter < 100; iter++ {
		base := uintptr(iter) * 4096
		var total sim.Time
		for i := 0; i < 40; i++ {
			total += loop.Store(nowLoop+total, base+uintptr(i)*64)
		}
		nowLoop += total
		nowRun += run.StoreRun(nowRun, base, 64, 40)
		if nowLoop != nowRun {
			t.Fatalf("iter %d: virtual time diverged: loop %v, run %v", iter, nowLoop, nowRun)
		}
	}
	if loop.L1().Stats() != run.L1().Stats() {
		t.Error("L1 statistics diverged between Store loop and StoreRun")
	}
}

// TestLoadGroupRunEquivalentToLoadGroup checks the slice-free group variant
// against LoadGroup over the same arithmetic sequence, including runs larger
// than the MSHR bound (multiple waves).
func TestLoadGroupRunEquivalentToLoadGroup(t *testing.T) {
	group, _ := testCore(t, 4)
	run, _ := testCore(t, 4)
	nowGroup, nowRun := sim.Time(0), sim.Time(0)
	for iter := 0; iter < 100; iter++ {
		base := uintptr(iter) * 8192
		for _, n := range []int{1, 7, 10, 25} { // below, at and above MSHRs
			addrs := make([]uintptr, n)
			for i := range addrs {
				addrs[i] = base + uintptr(i)*64
			}
			nowGroup += group.LoadGroup(nowGroup, addrs)
			nowRun += run.LoadGroupRun(nowRun, base, 64, n)
			base += uintptr(n) * 64
			if nowGroup != nowRun {
				t.Fatalf("iter %d n=%d: virtual time diverged: group %v, run %v", iter, n, nowGroup, nowRun)
			}
		}
	}
	countersEqual(t, group.Counters(), run.Counters())
	if group.L1().Stats() != run.L1().Stats() {
		t.Error("L1 statistics diverged between LoadGroup and LoadGroupRun")
	}
}

// BenchmarkCoreLoad measures the per-access cost of the demand-load path on
// an L1-resident working set — the simulator's hottest operation.
func BenchmarkCoreLoad(b *testing.B) {
	core, _ := testCore(b, 0)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat, _ := core.Load(now, uintptr(i%64)*64)
		now += lat
	}
}

// BenchmarkCoreLoadStream measures the streaming-miss path (prefetcher and
// memory system engaged).
func BenchmarkCoreLoadStream(b *testing.B) {
	core, _ := testCore(b, 4)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat, _ := core.Load(now, uintptr(i)*64)
		now += lat
	}
}

// BenchmarkCoreLoadRun measures the batched strided-run entry point.
func BenchmarkCoreLoadRun(b *testing.B) {
	core, _ := testCore(b, 0)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		now += core.LoadRun(now, 0, 64, 64)
	}
}

// flatMem is a MemorySystem with one fixed latency that records nothing, so
// the benchmarks and allocation gates below measure the core alone.
type flatMem struct{ lat sim.Time }

func (flatMem) HomeNode(uintptr) int { return 0 }

func (f flatMem) Access(now sim.Time, _ uintptr, _ mem.AccessKind, _ int) sim.Time {
	return now + f.lat
}

// prefetchCore is testCore over flatMem with prefetch depth 4.
func prefetchCore(t testing.TB) *Core {
	t.Helper()
	core, _ := testCore(t, 4)
	core.memsys = flatMem{lat: 80 * sim.Nanosecond}
	return core
}

// BenchmarkCorePrefetchFill measures the prefetch fill path: a sequential
// stream arms the prefetcher, so every call probes L3 and L2 for each
// proposed line and fills both levels with eviction once they are warm.
func BenchmarkCorePrefetchFill(b *testing.B) {
	core := prefetchCore(b)
	addr := uintptr(0)
	for i := 0; i < 4*(2<<20)/64; i++ { // warm L2 and L3 past capacity
		core.prefetch(0, addr)
		addr += 64
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.prefetch(sim.Time(i), addr)
		addr += 64
	}
}

// TestCorePrefetchFillNoAllocs gates the prefetch fill path: probing L3 and
// L2 and filling both through the returned slots allocates nothing.
func TestCorePrefetchFillNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	core := prefetchCore(t)
	addr := uintptr(0)
	fill := func() {
		core.prefetch(0, addr)
		addr += 64
	}
	for i := 0; i < 4*(2<<20)/64; i++ { // past L2 and L3 capacity: every fill evicts
		fill()
	}
	if allocs := testing.AllocsPerRun(1000, fill); allocs != 0 {
		t.Errorf("prefetch fill: %v allocs/op, want 0", allocs)
	}
	if got := core.L3().Stats().Evictions; got == 0 {
		t.Error("the gate never reached a full-set fill")
	}
}
