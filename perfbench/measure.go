package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// mark is one host-clock reading: monotonic wall time and the process's
// user+sys CPU time, both in nanoseconds.
type mark struct {
	wall int64
	cpu  int64
}

// epoch anchors every wall reading of a run, so marks and span events share
// one host timeline.
var epoch = time.Now()

func wallNS() int64 { return int64(time.Since(epoch)) }

// cpuNS reports the process's user+sys CPU time (all threads).
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB reports the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func now() mark { return mark{wall: wallNS(), cpu: cpuNS()} }

// slicer cuts a pass's measured phase into equal-work slices. The workload
// reports progress in its own work units (chase iterations, operations,
// records); each time the running total crosses a slice boundary the slicer
// reads the host clocks. All simulated threads run on one host timeline, so
// one counter serves every thread of a pass.
//
// Between two slices, outside both, the slicer times the reference kernel
// (when it has one) and runs its hooks, with the tracer paused so that no
// span is charged for them. The kernel runs before the first slice and
// after every slice, so its runs sample the host's speed evenly across the
// measured phase.
type slicer struct {
	per   int64 // work units per slice
	n     int   // slices in a pass
	done  int64
	next  int64
	start mark // when the open slice began
	// wall and cpu hold each finished slice's host wall and CPU ns.
	wall, cpu []float64
	// refs holds the reference kernel's times, one before each slice and
	// one after the last.
	refs []mark
	ref  *hostRef
	tr   *tracer
	// onBegin and onEnd, when set, run before the first slice and after
	// the last (the traced run hooks its runtime counters there).
	onBegin, onEnd func()
}

func newSlicer(total int64, slices int, ref *hostRef, tr *tracer) *slicer {
	return &slicer{per: total / int64(slices), n: slices, ref: ref, tr: tr}
}

// begin opens the measured phase. It first collects the set-up's garbage,
// so that no pass's measured phase pays for another's.
func (s *slicer) begin() {
	s.tr.pause()
	runtime.GC()
	s.done, s.next = 0, s.per
	s.wall, s.cpu, s.refs = s.wall[:0], s.cpu[:0], s.refs[:0]
	s.between(s.onBegin)
}

// add records n more units of finished work.
func (s *slicer) add(n int64) {
	s.done += n
	for s.done >= s.next && len(s.wall) < s.n {
		m := now()
		s.wall = append(s.wall, float64(m.wall-s.start.wall))
		s.cpu = append(s.cpu, float64(m.cpu-s.start.cpu))
		s.next += s.per
		s.tr.pause()
		if len(s.wall) == s.n {
			s.between(s.onEnd)
		} else {
			s.between(nil)
		}
	}
}

// between times the reference kernel and runs hook, with the tracer
// paused, and opens the next slice.
func (s *slicer) between(hook func()) {
	if s.ref != nil {
		s.refs = append(s.refs, s.ref.time())
	}
	if hook != nil {
		hook()
	}
	s.start = now()
	s.tr.resume()
}

// complete reports whether every slice boundary was reached.
func (s *slicer) complete() bool { return len(s.wall) == s.n }

// phaseCPU returns the CPU time of the whole measured phase, its slices
// only.
func (s *slicer) phaseCPU() int64 {
	var sum float64
	for _, c := range s.cpu {
		sum += c
	}
	return int64(sum)
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sliceEstimate is the whole-phase duration estimated from equal-work slice
// samples: the median slice times the number of slices a pass is cut into.
// Pooling the slices of several passes and taking their median discards the
// slices a host hiccup or a cold start stretched, which a plain sum would
// keep.
func sliceEstimate(samples []float64, slicesPerPass int) float64 {
	return median(samples) * float64(slicesPerPass)
}

// relativeEstimate is the whole-phase duration in reference units: the mean
// slice times the number of slices a pass is cut into, divided by the mean
// time of the reference kernel runs interleaved with the slices, times
// refNominalNS. The host's speed comes and goes in episodes of a few
// hundred milliseconds that stretch slices and kernel runs alike, so both
// are averaged over time: with a median of either, the share of slow
// episodes a run happened to catch would move the estimate.
func relativeEstimate(slices, refs []float64, slicesPerPass int) float64 {
	return mean(slices) * float64(slicesPerPass) / mean(refs) * refNominalNS
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
