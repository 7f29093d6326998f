package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// scripted returns a tracer whose clock reads the given times in order.
func scripted(t *testing.T, times ...int64) *tracer {
	t.Helper()
	tr := newTracer()
	tr.clock = func() int64 {
		if len(times) == 0 {
			t.Fatal("clock read more often than scripted")
		}
		v := times[0]
		times = times[1:]
		return v
	}
	return tr
}

func keptByName(tr *tracer) map[string]span {
	out := map[string]span{}
	for _, s := range tr.kept {
		out[s.Name] = s
	}
	return out
}

// Thread 1's span A is suspended twice by coroutine switches to thread 2,
// whose spans B and E (with E's child F) run nested inside A's interval; A
// also makes a call C of its own. A's self time excludes all of them.
func TestSelfTimeAcrossCoroutineSwitches(t *testing.T) {
	tr := scripted(t, 0, 10, 20, 25, 30, 35, 38, 40, 45, 50)
	a, b, c, e, f := tr.name("A"), tr.name("B"), tr.name("C"), tr.name("E"), tr.name("F")
	sa := tr.begin(a, 1) // 0
	sb := tr.begin(b, 2) // 10: switch to thread 2
	tr.end(sb)           // 20: switch back
	sc := tr.begin(c, 1) // 25
	tr.end(sc)           // 30
	se := tr.begin(e, 2) // 35: switch to thread 2
	sf := tr.begin(f, 2) // 38
	tr.end(sf)           // 40
	tr.end(se)           // 45: switch back
	tr.end(sa)           // 50

	got := keptByName(tr)
	want := map[string]struct {
		self   int64
		parent string
	}{
		"A": {50 - 10 - 5 - 10, ""},
		"B": {10, ""},
		"C": {5, "A"},
		"E": {8, ""},
		"F": {2, "E"},
	}
	ids := map[int64]string{-1: ""}
	for n, s := range got {
		ids[s.ID] = n
	}
	for n, w := range want {
		s := got[n]
		if s.Self != w.self || ids[s.Parent] != w.parent {
			t.Errorf("%s: self %d parent %q, want self %d parent %q", n, s.Self, ids[s.Parent], w.self, w.parent)
		}
	}
	if sum := tr.summarize()["A"]; sum.Count != 1 || sum.TotalNS != 50 || sum.SelfNS != 25 {
		t.Errorf("summary of A = %+v", sum)
	}
}

// Spans of two threads that overlap without nesting: each switch hands the
// time since the previous event to the span that began last, and the self
// times still add up to the covered time.
func TestSelfTimeOverlappingThreads(t *testing.T) {
	tr := scripted(t, 0, 10, 30, 40)
	a, b := tr.name("A"), tr.name("B")
	sa := tr.begin(a, 1)
	sb := tr.begin(b, 2) // 10: switch to thread 2
	tr.end(sa)           // 30: switch back; B began last
	tr.end(sb)           // 40: switch to thread 2
	got := keptByName(tr)
	if got["A"].Self != 10 || got["B"].Self != 30 {
		t.Errorf("self A=%d B=%d, want 10 and 30", got["A"].Self, got["B"].Self)
	}
	if total := got["A"].Self + got["B"].Self; total != 40 {
		t.Errorf("self times add to %d, want the 40 covered", total)
	}
}

// A pool thread that runs engine code between its own operations, while
// another pool thread is suspended inside one, charges that time to the
// scenario it runs under, not to the other thread's operation.
func TestSelfTimeBetweenOperationsOfOneThread(t *testing.T) {
	tr := scripted(t, 0, 10, 15, 20, 30, 35, 40, 50)
	run, op := tr.name("run"), tr.name("op")
	sr := tr.begin(run, 0) // 0: main thread opens the scenario
	sa := tr.begin(op, 1)  // 10: pool thread 1 begins an op
	sb := tr.begin(op, 2)  // 15: switch; pool thread 2 begins an op
	tr.end(sa)             // 20: switch back; thread 1 ends its op
	sa2 := tr.begin(op, 1) // 30: thread 1 ran the engine, begins its next op
	tr.end(sa2)            // 35
	tr.end(sb)             // 40: switch; thread 2 ends its op
	tr.end(sr)             // 50: switch to main
	var opSelf []int64
	for _, s := range tr.kept {
		if s.Name == "op" {
			opSelf = append(opSelf, s.Self)
		}
	}
	// Close order: thread 1's first op, its second, thread 2's op.
	if len(opSelf) != 3 || opSelf[0] != 5 || opSelf[1] != 5 || opSelf[2] != 10 {
		t.Errorf("op self times %v, want [5 5 10]", opSelf)
	}
	if self := keptByName(tr)["run"].Self; self != 30 {
		t.Errorf("run self %d, want 30 (10 + the engine's 10 + 10)", self)
	}
}

// Paused time goes to no span.
func TestTracerPause(t *testing.T) {
	tr := scripted(t, 0, 10, 50, 60)
	sa := tr.begin(tr.name("A"), 1)
	tr.pause()  // 10
	tr.resume() // 50
	tr.end(sa)  // 60
	if got := keptByName(tr)["A"]; got.Self != 20 || got.End-got.Start != 60 {
		t.Errorf("A self %d duration %d, want 20 and 60", got.Self, got.End-got.Start)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	tr.pause()
	tr.resume()
	tr.end(tr.begin(tr.name("x"), 1))
	if tr.summarize() != nil {
		t.Error("nil tracer summarized spans")
	}
}

func TestSpanQuantiles(t *testing.T) {
	var s nameStats
	for v := int64(1); v <= 10000; v++ {
		s.add(v, v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000
		if got := s.quantile(q); math.Abs(got-want) > want/32 {
			t.Errorf("p%.0f = %g, want %g within 1/32", 100*q, got, want)
		}
	}
}

// ---- pprof fold ----------------------------------------------------------

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) uint(field int, v uint64) {
	b.varint(uint64(field)<<3 | 0)
	b.varint(v)
}

func (b *pb) bytes(field int, data []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) packed(field int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	b.bytes(field, inner.Bytes())
}

type testSample struct {
	ns     uint64
	frames [][]string // locations leaf first; each lists its lines innermost first
}

// buildProfile encodes samples as a pprof profile with [samples, cpu ns]
// values, alternating packed and unpacked location ids.
func buildProfile(samples []testSample) []byte {
	var p pb
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	fnID := map[string]uint64{}
	var locID uint64
	for i, s := range samples {
		var locs []uint64
		for _, lines := range s.frames {
			locID++
			var loc pb
			loc.uint(1, locID)
			for _, fn := range lines {
				if fnID[fn] == 0 {
					fnID[fn] = uint64(len(fnID) + 1)
					var f pb
					f.uint(1, fnID[fn])
					f.uint(2, str(fn))
					p.bytes(5, f.Bytes())
				}
				var line pb
				line.uint(1, fnID[fn])
				loc.bytes(4, line.Bytes())
			}
			p.bytes(4, loc.Bytes())
			locs = append(locs, locID)
		}
		var sm pb
		if i%2 == 0 {
			sm.packed(1, locs...)
		} else {
			for _, l := range locs {
				sm.uint(1, l)
			}
		}
		sm.packed(2, 1, s.ns)
		p.bytes(2, sm.Bytes())
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	return p.Bytes()
}

const q = "github.com/quartz-emu/quartz/internal/"

func TestFoldByModule(t *testing.T) {
	samples := []testSample{
		{100, [][]string{{q + "cache.(*Cache).Insert"}, {q + "cpu.(*Core).fill"}}},
		// An inlined frame: the innermost line is the leaf.
		{50, [][]string{{q + "cache.(*Cache).hitAt", q + "cache.(*Cache).Lookup"}, {q + "cpu.(*Core).loadOne"}}},
		{40, [][]string{{q + "apps/kvstore.(*Store).Get"}, {"main.(*checkedTarget).Read"}}},
		{30, [][]string{{"runtime.futex"}, {"runtime.notesleep"}, {"runtime.findRunnable"}, {"runtime.schedule"}}},
		{20, [][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}},
		// Runtime and library helpers are charged to the layer calling them.
		{10, [][]string{{"runtime.memmove"}, {"main.(*tracer).end"}}},
		{6, [][]string{{"runtime.mallocgc"}, {"runtime.growslice"}, {q + "apps/kvstore.insertU64"}}},
		{5, [][]string{{q + "obs/vtprof.(*ThreadSeries).Charge"}}},
		{5, [][]string{{"time.Now"}, {"main.wallNS"}}},
		{3, [][]string{{"main.(*slicer).add"}}},
		// Without a calling layer they stay in the runtime or the library.
		{7, [][]string{{"runtime.madvise"}, {"runtime.sysUnused"}}},
		{4, [][]string{{"sort.Float64s"}}},
	}
	data := buildProfile(samples)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(data)
	zw.Close()
	want := map[string]int64{
		"cache": 150, "kvstore": 46, "runtime.sched": 30, "runtime.gc": 20,
		"runtime.other": 7, "vtprof": 5, "stdlib": 4, "perfbench": 18,
	}
	for name, in := range map[string][]byte{"raw": data, "gzip": gz.Bytes()} {
		f, err := foldProfile(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.TotalNS != 280 {
			t.Errorf("%s: total %d, want 280", name, f.TotalNS)
		}
		for m, ns := range want {
			if f.ModuleNS[m] != ns {
				t.Errorf("%s: %s = %d, want %d", name, m, f.ModuleNS[m], ns)
			}
		}
		if len(f.ModuleNS) != len(want) {
			t.Errorf("%s: modules %v, want %v", name, f.ModuleNS, want)
		}
		if got := f.Share("cache"); math.Abs(got-150.0/280) > 1e-12 {
			t.Errorf("%s: cache share %g", name, got)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		q + "sim.(*Kernel).Run":                  "sim",
		q + "apps/pmlog.(*Log).Append":           "pmlog",
		q + "obs.(*Recorder).Emit":               "obs",
		"github.com/quartz-emu/quartz.Run":       "quartz",
		"main.main":                              "perfbench",
		"runtime.mallocgc":                       "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "runtime",
		"sync.(*Mutex).Lock":                     "stdlib",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		x++
	}
	pprof.StopCPUProfile()
	if _, err := foldProfile(buf.Bytes()); err != nil {
		t.Fatalf("folding a runtime/pprof profile: %v", err)
	}
}

func TestFoldRejectsTruncated(t *testing.T) {
	data := buildProfile([]testSample{{1, [][]string{{"main.f"}}}})
	if _, err := foldProfile(data[:len(data)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// ---- slice estimator -------------------------------------------------------

func TestSlicerMarksEqualWorkBoundaries(t *testing.T) {
	sl := newSlicer(100, 4, nil, nil)
	sl.begin()
	for _, n := range []int64{10, 10, 60, 19} {
		sl.add(n)
	}
	if sl.complete() || len(sl.wall) != 3 {
		t.Fatalf("after 99 of 100 units: %d slices, complete=%v", len(sl.wall), sl.complete())
	}
	ended := false
	sl.onEnd = func() { ended = true }
	sl.add(1)
	if !sl.complete() || !ended {
		t.Fatalf("after 100 units: complete=%v onEnd=%v", sl.complete(), ended)
	}
	sl.add(50) // work past the last boundary adds no slice
	if len(sl.wall) != 4 || len(sl.cpu) != 4 {
		t.Errorf("%d wall and %d cpu slices, want 4", len(sl.wall), len(sl.cpu))
	}
	if len(sl.refs) != 0 {
		t.Errorf("no reference kernel, yet %d reference times", len(sl.refs))
	}
}

// The estimate in reference units is the mean slice times the slices per
// pass, over the mean reference time, in units of refNominalNS: a host
// twice as slow doubles slices and kernel runs alike and leaves it alone.
func TestRelativeEstimate(t *testing.T) {
	slices, refs := []float64{100, 300, 200}, []float64{10, 30}
	if got, want := relativeEstimate(slices, refs, 3), 600.0/20*refNominalNS; got != want {
		t.Errorf("estimate %g, want %g", got, want)
	}
	slow := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = 2 * x
		}
		return out
	}
	if got, want := relativeEstimate(slow(slices), slow(refs), 3), relativeEstimate(slices, refs, 3); got != want {
		t.Errorf("on a host twice as slow: %g, want %g", got, want)
	}
}

// The slicer times the reference kernel before each slice and after the
// last, and keeps that time and its hooks out of both the slices and the
// traced spans.
func TestSlicerKeepsItsOwnWorkOutOfSlicesAndSpans(t *testing.T) {
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	sp := tr.begin(tr.name("run"), 0)
	sl := newSlicer(2, 2, ref, tr)
	hook := func() { time.Sleep(20 * time.Millisecond) }
	sl.onBegin, sl.onEnd = hook, hook
	sl.begin()
	sl.add(1)
	sl.add(1)
	tr.end(sp)
	if len(sl.refs) != 3 {
		t.Fatalf("%d reference times, want 3", len(sl.refs))
	}
	for i, w := range sl.wall {
		if w > float64(5*time.Millisecond) {
			t.Errorf("slice %d took %v: the slicer's own work leaked into it", i, time.Duration(w))
		}
	}
	if self := tr.summarize()["run"].SelfNS; self > int64(5*time.Millisecond) {
		t.Errorf("span self time %v includes the slicer's own work", time.Duration(self))
	}
}

func TestSliceEstimateIgnoresOutliers(t *testing.T) {
	// Two passes of 4 slices; one slice hit a host stall, one a cold start.
	slices := []float64{10, 11, 9, 10, 40, 10, 2, 10}
	if got := sliceEstimate(slices, 4); got != 40 {
		t.Errorf("estimate %g, want the median slice 10 x 4 = 40", got)
	}
	if got := sliceEstimate([]float64{1, 2, 3}, 2); got != 4 {
		t.Errorf("odd count: %g, want 2 x 2", got)
	}
	if got := sliceEstimate(nil, 4); got != 0 {
		t.Errorf("no slices: %g", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestDiffCounts(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2, "z": 3}
	b := map[string]float64{"x": 1, "y": 5, "w": 0}
	got := diffCounts(a, b)
	want := []string{"w", "y", "z"}
	if len(got) != len(want) {
		t.Fatalf("diff %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff %v, want %v", got, want)
		}
	}
}
