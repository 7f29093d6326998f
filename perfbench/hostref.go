package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The host this benchmark runs on is shared, and its speed drifts by tens
// of percent over minutes. Host times are therefore reported in reference
// units: a run times a fixed reference kernel right before and right after
// each slice and each set-up, divides the slice's time by the mean of the
// two, and scales the ratio by refNominalNS. A host that slows everything
// down slows the kernel alike, and the drift cancels; a change to the
// repository leaves the kernel alone, so its speed-up or slow-down shows in
// full.
//
// The kernel resembles the simulator's own host work: lookups in a
// set-associative tag table with LRU replacement, 16 tag compares and a
// move to front per lookup, over a table larger than a host core's L2. It
// shares no code with the repository.
const (
	refSets  = 1 << 16
	refWays  = 16
	refBytes = refSets * refWays * 8 // 8 MiB
	refOps   = 1 << 18
	// refWarmRuns fill the table before the first timed run.
	refWarmRuns = 32
	// refNominalNS is a round figure near the kernel's time between two
	// slices on the 2-vCPU Xeon VM the benchmark was sized on (17-27 ms);
	// a time in reference units reads as host time on a host that runs
	// the kernel there in exactly this long.
	refNominalNS = 2e7
)

// hostRef is the reference kernel. Its table lives outside the Go heap, so
// it neither changes the program's garbage-collection pacing nor is
// scanned; peakRSSMB leaves it out.
type hostRef struct {
	tags []uint64
	x    uint64
}

func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	r := &hostRef{tags: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refBytes/8), x: 1}
	// Fault the whole table in now, so its pages count in the resident
	// set from the start and no later kernel run pays for them, then fill
	// it: an empty table misses every lookup, and runs take twice as long
	// until the hot region has been loaded.
	for i := range r.tags {
		r.tags[i] = 0
	}
	for i := 0; i < refWarmRuns; i++ {
		r.run()
	}
	return r, nil
}

// run performs refOps lookups. The addresses continue one LCG stream from
// run to run, so every run does statistically the same work: half the
// lookups fall in a hot region as large as the table, half anywhere in a
// space 64 times larger.
func (r *hostRef) run() {
	x := r.x
	for i := 0; i < refOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		line := x >> 38 // 26 bits
		if x&(1<<33) == 0 {
			line &= refSets*refWays - 1
		}
		tag := line>>16 | 1 // never 0, the empty way
		set := r.tags[(line&(refSets-1))*refWays:][:refWays]
		w := 0
		for w < refWays-1 && set[w] != tag {
			w++
		}
		copy(set[1:w+1], set[:w])
		set[0] = tag
	}
	r.x = x
}

// time runs the kernel once and returns its host wall and CPU time.
func (r *hostRef) time() mark {
	a := now()
	r.run()
	b := now()
	return mark{wall: b.wall - a.wall, cpu: b.cpu - a.cpu}
}
