package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile by the repository's modules.
// It decodes only the profile.proto fields the fold needs: samples, their
// location ids and values, locations with their (possibly inlined) lines,
// functions and the string table.

// cpuFold is a CPU profile folded by module: each sample's CPU time goes to
// the module of its leaf frame (see classify). Runtime time the layers do
// not call for directly is split two ways, by the frames above the leaf:
// garbage collection, and goroutine scheduling (the parking, waking and
// channel hand-offs that carry coroutine switches).
type cpuFold struct {
	TotalNS  int64
	ModuleNS map[string]int64
}

func (f *cpuFold) add(g cpuFold) {
	f.TotalNS += g.TotalNS
	for m, ns := range g.ModuleNS {
		f.ModuleNS[m] += ns
	}
}

// Share reports module's fraction of the profile's CPU time.
func (f cpuFold) Share(module string) float64 {
	if f.TotalNS == 0 {
		return 0
	}
	return float64(f.ModuleNS[module]) / float64(f.TotalNS)
}

const modulePrefix = "github.com/quartz-emu/quartz/"

// moduleOf names the module a function belongs to: the last element of its
// package path for the repository's packages ("cache", "kvstore",
// "vtprof"), "perfbench" for this program, "runtime" for the Go runtime and
// "stdlib" for the rest of the standard library.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	pkg := fn
	// The package path ends at the first '.' after its last '/'.
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		rest := strings.TrimPrefix(pkg, modulePrefix)
		return rest[strings.LastIndexByte(rest, '/')+1:]
	case pkg+"/" == modulePrefix:
		return "quartz"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	default:
		return "stdlib"
	}
}

// Runtime frames that mark a sample as garbage collection or scheduling.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.mcall", "runtime.futex",
		"runtime.notesleep", "runtime.notewakeup", "runtime.chansend",
		"runtime.chanrecv", "runtime.selectgo", "runtime.runqgrab",
		"runtime.handoffp", "runtime.execute", "runtime.gogo",
		"runtime.osyield", "runtime.usleep",
	}
)

func hasFrame(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// classify returns the module a sample's CPU time is charged to; stack is
// leaf first. Garbage collection and scheduling are charged to the runtime;
// other runtime and standard-library leaves (memmove, allocation, clock
// reads) are charged to the nearest caller in the repository or this
// program, the layer that asked for the work.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "unknown"
	}
	m := moduleOf(stack[0])
	if m == "runtime" {
		switch {
		case hasFrame(stack, gcFrames):
			return "runtime.gc"
		case hasFrame(stack, schedFrames):
			return "runtime.sched"
		}
	}
	if m != "runtime" && m != "stdlib" {
		return m
	}
	for _, fn := range stack[1:] {
		if caller := moduleOf(fn); caller != "runtime" && caller != "stdlib" {
			return caller
		}
	}
	if m == "runtime" {
		return "runtime.other"
	}
	return m
}

// foldProfile decodes a (possibly gzipped) pprof CPU profile and folds it by
// module. The sample value used is the last one, CPU nanoseconds in
// runtime/pprof's layout.
func foldProfile(data []byte) (cpuFold, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return cpuFold{}, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return cpuFold{}, fmt.Errorf("pprof: %w", err)
		}
	}
	p, err := decodeProfile(data)
	if err != nil {
		return cpuFold{}, err
	}
	fnName := map[uint64]string{}
	for _, f := range p.functions {
		if f.name >= 0 && f.name < int64(len(p.strings)) {
			fnName[f.id] = p.strings[f.name]
		}
	}
	frames := map[uint64][]string{} // location id -> functions, innermost first
	for _, l := range p.locations {
		for _, fid := range l.functions {
			frames[l.id] = append(frames[l.id], fnName[fid])
		}
	}
	out := cpuFold{ModuleNS: map[string]int64{}}
	var stack []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		stack = stack[:0]
		for _, loc := range s.locations {
			stack = append(stack, frames[loc]...)
		}
		out.ModuleNS[classify(stack)] += v
		out.TotalNS += v
	}
	return out, nil
}

type pbSample struct {
	locations []uint64
	values    []int64
}

type pbLocation struct {
	id        uint64
	functions []uint64 // one per line, innermost (inlined) first
}

type pbFunction struct {
	id   uint64
	name int64
}

type pbProfile struct {
	samples   []pbSample
	locations []pbLocation
	functions []pbFunction
	strings   []string
}

var errTruncated = errors.New("pprof: truncated protobuf")

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return field, wire, v, payload, err
}

// uints appends a repeated uint64 field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{}
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2:
			s, err := decodeSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			l, err := decodeLocation(payload)
			if err != nil {
				return nil, err
			}
			p.locations = append(p.locations, l)
		case 5:
			f, err := decodeFunction(payload)
			if err != nil {
				return nil, err
			}
			p.functions = append(p.functions, f)
		case 6:
			if wire != 2 {
				return nil, errors.New("pprof: bad string table entry")
			}
			p.strings = append(p.strings, string(payload))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, v, payload, err := r.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			if s.locations, err = uints(s.locations, wire, v, payload); err != nil {
				return s, err
			}
		case 2:
			var vs []uint64
			if vs, err = uints(nil, wire, v, payload); err != nil {
				return s, err
			}
			for _, x := range vs {
				s.values = append(s.values, int64(x))
			}
		}
	}
	return s, nil
}

func decodeLocation(b []byte) (pbLocation, error) {
	var l pbLocation
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, v, payload, err := r.next()
		if err != nil {
			return l, err
		}
		switch field {
		case 1:
			l.id = v
		case 4:
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				f, _, lv, _, err := lr.next()
				if err != nil {
					return l, err
				}
				if f == 1 {
					l.functions = append(l.functions, lv)
				}
			}
		}
	}
	return l, nil
}

func decodeFunction(b []byte) (pbFunction, error) {
	var f pbFunction
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, v, _, err := r.next()
		if err != nil {
			return f, err
		}
		switch field {
		case 1:
			f.id = v
		case 2:
			f.name = int64(v)
		}
	}
	return f, nil
}
