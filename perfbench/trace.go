package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sync"
)

// span is one closed span: a timed call from the benchmark into a layer's
// public function.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Thread int32  `json:"thread"` // simulated thread id; -1 outside the simulation
	Parent int64  `json:"parent"` // enclosing span of the same thread; -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	id     int64
	name   uint16
	thread int32
	parent int64
	start  int64
	self   int64
}

// maxKept bounds how many closed spans a tracer keeps verbatim for
// writeSpans (a few MB of JSON); every span, kept or not, feeds its name's
// summary.
const maxKept = 50_000

// tracer records spans in memory. A nil *tracer is the untraced run: every
// method is a no-op, so call sites need no guard.
//
// The simulation kernel runs one coroutine at a time, so the spans of every
// simulated thread land on one host timeline; the mutex orders the
// hand-offs between the goroutines that carry the coroutines. The time
// between two events (a span's begin or end) goes to one open span, chosen
// by owner. A span's self time is therefore its duration minus the part of
// its interval that other spans own: its own nested calls, and the spans
// other simulated threads ran while a coroutine switch had suspended it.
// Self times sum to the time covered by any span, less the time the
// tracer was paused; none is counted twice.
type tracer struct {
	mu    sync.Mutex
	clock func() int64
	names []string
	stats []*nameStats
	// open holds the open spans in the order they began.
	open       []openSpan
	last       int64 // time of the previous event
	lastThread int32 // thread of the previous event
	next       int64 // next span id
	// top and first hold, per thread id + 1, the thread's innermost open
	// span (-1 for none) and the id of its first span.
	top, first []int64
	kept       []span
	total      int64
}

func newTracer() *tracer { return &tracer{clock: wallNS, lastThread: noThread} }

// noThread is the thread of no event: the thread before the first.
const noThread = -2

// name interns a span name. Call it at set-up, not per span.
func (tr *tracer) name(n string) uint16 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i, s := range tr.names {
		if s == n {
			return uint16(i)
		}
	}
	tr.names = append(tr.names, n)
	tr.stats = append(tr.stats, &nameStats{})
	return uint16(len(tr.names) - 1)
}

// owner returns the index in open of the span that owns the time since
// the previous event, given that the current event is on thread, or -1.
//
// If the previous event was on the same thread, no coroutine switch shows,
// and the thread ran throughout: the time goes to its innermost open span.
// If it has none open, it was running code between the benchmark's calls,
// as a pool thread runs the traffic engine between operations; that code
// runs under a call that was open before the thread's first span (such as
// the RunScenario that spawned the pool), and the time goes to the open
// span that began last before it. Other threads' open spans are suspended
// and get none of it.
//
// If the thread changed, a switch happened somewhere in between, and the
// time goes to the open span that began last.
func (tr *tracer) owner(thread int32) int {
	n := len(tr.open)
	if n == 0 || thread != tr.lastThread {
		return n - 1
	}
	top, first := tr.top[thread+1], tr.first[thread+1]
	for i := n - 1; i >= 0; i-- {
		if id := tr.open[i].id; id == top || (top < 0 && id < first) {
			return i
		}
	}
	return -1
}

// advance charges the time since the previous event to its owner and
// makes the current event, on thread, the previous one.
func (tr *tracer) advance(thread int32) int64 {
	t := tr.clock()
	if i := tr.owner(thread); i >= 0 {
		tr.open[i].self += t - tr.last
	}
	tr.last, tr.lastThread = t, thread
	return t
}

// begin opens a span on the given simulated thread and returns its id.
func (tr *tracer) begin(name uint16, thread int) int64 {
	if tr == nil {
		return -1
	}
	tr.mu.Lock()
	for len(tr.top) <= thread+1 {
		tr.top = append(tr.top, -1)
		tr.first = append(tr.first, -1)
	}
	t := tr.advance(int32(thread))
	id := tr.next
	tr.next++
	if tr.first[thread+1] < 0 {
		tr.first[thread+1] = id
	}
	parent := tr.top[thread+1]
	tr.top[thread+1] = id
	tr.open = append(tr.open, openSpan{id: id, name: name, thread: int32(thread), parent: parent, start: t})
	tr.mu.Unlock()
	return id
}

// end closes span id.
func (tr *tracer) end(id int64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	for i := len(tr.open) - 1; i >= 0; i-- {
		if tr.open[i].id != id {
			continue
		}
		t := tr.advance(tr.open[i].thread)
		s := tr.open[i]
		tr.open = append(tr.open[:i], tr.open[i+1:]...)
		tr.top[s.thread+1] = s.parent
		tr.stats[s.name].add(t-s.start, s.self)
		tr.total++
		if len(tr.kept) < maxKept {
			tr.kept = append(tr.kept, span{ID: s.id, Name: tr.names[s.name], Thread: s.thread,
				Parent: s.parent, Start: s.start, End: t, Self: s.self})
		}
		break
	}
	tr.mu.Unlock()
}

// pause charges the time so far, as an event on the previous event's
// thread, and stops charging until resume: the time in between is the
// benchmark's own and belongs to no span.
func (tr *tracer) pause() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.advance(tr.lastThread)
	tr.mu.Unlock()
}

// resume restarts charging after pause.
func (tr *tracer) resume() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.last = tr.clock()
	tr.mu.Unlock()
}

// nameStats aggregates the closed spans of one name, with their self times
// in a log-linear histogram.
type nameStats struct {
	count, totalNS, selfNS int64
	hist                   [histBuckets]int64
}

// The histogram keeps 16 linear sub-buckets per power of two, so a
// quantile is within 1/32 of the value it reports.
const histBuckets = 16 + 60*16

func bucketOf(v int64) int {
	if v < 16 {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) // 5..64
	return 16 + (e-5)*16 + int(v>>(e-5))&15
}

// bucketMid is the middle of bucket b's value range.
func bucketMid(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e := (b-16)/16 + 5
	lo := float64(int64(16+(b-16)%16) << (e - 5))
	return lo + float64(int64(1)<<(e-5))/2
}

func (s *nameStats) add(total, self int64) {
	s.count++
	s.totalNS += total
	s.selfNS += self
	s.hist[bucketOf(self)]++
}

func (s *nameStats) quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	rank := int64(q*float64(s.count) + 0.5)
	rank = min(max(rank, 1), s.count)
	var seen int64
	for b, n := range s.hist {
		seen += n
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return 0
}

// spanSummary reports the spans of one name.
type spanSummary struct {
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"`
	SelfP50 float64 `json:"self_ns_p50"`
	SelfP99 float64 `json:"self_ns_p99"`
}

// summarize reports the closed spans by name.
func (tr *tracer) summarize() map[string]spanSummary {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[string]spanSummary{}
	for i, s := range tr.stats {
		if s.count > 0 {
			out[tr.names[i]] = spanSummary{Count: s.count, TotalNS: s.totalNS, SelfNS: s.selfNS,
				SelfP50: s.quantile(0.50), SelfP99: s.quantile(0.99)}
		}
	}
	return out
}

// writeSpans writes the kept spans as JSON lines, in the order they closed.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.kept {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
