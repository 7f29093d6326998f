package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/quartz-emu/quartz/internal/obs/vtprof"
)

// setupRuns is how many set-up-only passes a run times; setup_s is their
// median.
const setupRuns = 21

// minPasses is how many measured passes a run makes at least, so every run
// also checks that a pass repeats its simulated counts exactly.
const minPasses = 2

// result is everything one run measured.
type result struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
	// Counts are the deterministic simulated statistics of one pass.
	Counts map[string]float64 `json:"counts"`
	// Emul compares the Conf_1 completion time with the Conf_2 reference.
	Emul *emulation `json:"emulation,omitempty"`
	// Samples states how many values each estimate rests on.
	Samples map[string]int `json:"samples"`
	// SliceNS and SliceCPUNS hold the untraced slices' wall and CPU
	// times, in pass order, and RefNS and RefCPUNS the reference kernel's
	// (see hostref.go).
	SliceNS    []float64 `json:"slice_ns"`
	SliceCPUNS []float64 `json:"slice_cpu_ns"`
	RefNS      []float64 `json:"ref_ns"`
	RefCPUNS   []float64 `json:"ref_cpu_ns"`
	// SetupNS holds each set-up-only pass's host time, and SetupRefNS the
	// reference kernel's mean time right before and after it.
	SetupNS    []float64 `json:"setup_ns"`
	SetupRefNS []float64 `json:"setup_ref_ns"`
	// Raw holds the end-to-end times in host seconds, before they are
	// put in reference units.
	Raw       map[string]float64     `json:"raw"`
	Spans     map[string]spanSummary `json:"spans,omitempty"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`

	tracer *tracer // the traced phase's spans
}

type emulation struct {
	Conf1NS float64 `json:"conf1_ct_ns"`
	Conf2NS float64 `json:"conf2_ct_ns"`
	ErrPct  float64 `json:"emul_err_pct"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runner accumulates the passes of one run.
type runner struct {
	w    *workloadDef
	seed uint64
	res  *result
	ref  *hostRef
	// setups holds each set-up-only pass's times, and setupRef the mean of
	// the reference kernel's wall times right before and after it.
	setups   []setupTimes
	setupRef []float64
	passes   int
}

// sliceTimes pools the slice times of a run's measured passes, and the
// reference kernel's times when the passes timed it: host wall and CPU ns.
type sliceTimes struct {
	wall, cpu, refWall, refCPU []float64
}

// pass runs one pass of the workload. It first collects the previous
// pass's garbage and returns the freed memory to the OS, so that the peak
// resident set holds one machine at a time and every set-up faults its
// memory in afresh rather than sometimes reusing pages the Go heap kept.
func (rn *runner) pass(pc passConfig, sl *slicer) (passOutcome, error) {
	debug.FreeOSMemory()
	return rn.w.pass(pc, sl)
}

func (rn *runner) record(o passOutcome, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", rn.w.name, err)
	}
	rn.res.Attempted += o.attempted
	rn.res.Failed += o.failed
	rn.res.Problems = append(rn.res.Problems, o.problems...)
	return nil
}

// measure runs measured passes for about seconds of host time (at least
// minPasses), pooling their slices. The passes time the reference kernel
// when ref is set and record spans when pc.tr is. Every pass must
// reproduce want's simulated counts exactly; a nil want takes the first
// pass's counts, which measure returns.
func (rn *runner) measure(seconds float64, pc passConfig, ref *hostRef, hooks func(*slicer), want map[string]float64) (st sliceTimes, counts map[string]float64, err error) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < minPasses || time.Since(start)+last <= time.Duration(seconds*float64(time.Second)); n++ {
		p0 := time.Now()
		sl := newSlicer(rn.w.units, rn.w.slices, ref, pc.tr)
		if hooks != nil {
			hooks(sl)
		}
		o, perr := rn.pass(pc, sl)
		if err := rn.record(o, perr); err != nil {
			return st, nil, err
		}
		if !sl.complete() {
			return st, nil, fmt.Errorf("%s: pass ended after %d of %d slices", rn.w.name, len(sl.wall), rn.w.slices)
		}
		st.wall, st.cpu = append(st.wall, sl.wall...), append(st.cpu, sl.cpu...)
		for _, r := range sl.refs {
			st.refWall, st.refCPU = append(st.refWall, float64(r.wall)), append(st.refCPU, float64(r.cpu))
		}
		rn.passes++
		if want == nil {
			want = o.counts
		} else if diff := diffCounts(want, o.counts); len(diff) > 0 {
			rn.res.Failed++
			rn.res.Problems = append(rn.res.Problems, fmt.Sprintf("pass %d changed simulated counts: %v", rn.passes, diff))
		}
		last = time.Since(p0)
	}
	return st, want, nil
}

// setUp makes set-up-only passes, each with a seed of its own (the
// measured passes share one seed, so the permutation memo of MemLat would
// serve all but the first of them their chains), timing the reference
// kernel right before and right after each.
func (rn *runner) setUp() error {
	for i := 1; i <= setupRuns; i++ {
		debug.FreeOSMemory()
		r0 := rn.ref.time()
		o, err := rn.w.pass(passConfig{seed: rn.seed + uint64(i)*1_000_003, setupOnly: true}, nil)
		r1 := rn.ref.time()
		if err := rn.record(o, err); err != nil {
			return err
		}
		rn.setups = append(rn.setups, o.setup)
		rn.setupRef = append(rn.setupRef, float64(r0.wall+r1.wall)/2)
	}
	return nil
}

// setupEstimate returns the median set-up time of the part f picks, in
// host seconds and in reference seconds.
func (rn *runner) setupEstimate(f func(setupTimes) int64) (host, rel float64) {
	hs, rs := make([]float64, len(rn.setups)), make([]float64, len(rn.setups))
	for i, s := range rn.setups {
		hs[i] = float64(f(s))
		rs[i] = hs[i] / rn.setupRef[i]
	}
	return median(hs) / 1e9, median(rs) * refNominalNS / 1e9
}

// runWorkload makes one benchmark run: the measured passes and the set-ups
// and, when traced, the untimed Conf_2 reference and a separate traced
// phase.
func runWorkload(w *workloadDef, seed uint64, seconds float64, traced bool) (*result, error) {
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	rn := &runner{w: w, seed: seed, ref: ref, res: &result{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Raw: map[string]float64{},
	}}
	res := rn.res

	// Measured passes, tracing off. A traced run gives half its time to
	// them and half to the traced passes.
	if traced {
		seconds /= 2
	}
	st, counts, err := rn.measure(seconds, passConfig{seed: seed}, ref, nil, nil)
	if err != nil {
		return nil, err
	}
	// The peak resident set of the measured passes, before the set-ups
	// grow MemLat's permutation memo; the reference kernel's table is not
	// the program's.
	peakMB := peakRSSMB() - refBytes/(1<<20)
	res.Counts = counts
	res.SliceNS, res.SliceCPUNS = st.wall, st.cpu
	res.RefNS, res.RefCPUNS = st.refWall, st.refCPU
	if err := rn.setUp(); err != nil {
		return nil, err
	}
	for _, s := range rn.setups {
		res.SetupNS = append(res.SetupNS, float64(s.total()))
	}
	res.SetupRefNS = rn.setupRef

	runS := relativeEstimate(st.wall, st.refWall, w.slices) / 1e9
	accesses := res.Counts["cpu.accesses"]
	res.Samples["slices"] = len(st.wall)
	res.Samples["passes"] = rn.passes
	res.Samples["setups"] = len(rn.setups)
	res.Raw["run_s"] = sliceEstimate(st.wall, w.slices) / 1e9
	res.Raw["run_cpu_s"] = sliceEstimate(st.cpu, w.slices) / 1e9
	res.Raw["ref_ms"] = mean(st.refWall) / 1e6
	if !traced {
		setupHost, setupRel := rn.setupEstimate(setupTimes.total)
		res.Raw["setup_s"] = setupHost
		res.set("setup_s", setupRel, "s")
		res.set("run_s", runS, "s")
		res.set("run_cpu_s", relativeEstimate(st.cpu, st.refCPU, w.slices)/1e9, "s")
		res.set("accesses_per_host_s", accesses/runS, "1/s")
		res.set("peak_rss_mb", peakMB, "MB")
		return res, nil
	}

	for _, part := range []struct {
		name string
		f    func(setupTimes) int64
	}{
		{"setup.machine_s", func(s setupTimes) int64 { return s.machine }},
		{"setup.attach_s", func(s setupTimes) int64 { return s.attach }},
		{"setup.inputs_s", func(s setupTimes) int64 { return s.inputs }},
	} {
		_, rel := rn.setupEstimate(part.f)
		res.set(part.name, rel, "s")
	}
	res.set("host.ref_ms", res.Raw["ref_ms"], "ms")
	res.set("emul.err_pct", 0, "%")
	if w.conf2 {
		// Conf_2 reference: the same inputs with memory on the remote
		// socket and no emulator. Its completion time is deterministic, so
		// it is not timed.
		o, err := rn.pass(passConfig{seed: seed, remote: true}, newSlicer(w.units, w.slices, nil, nil))
		if err := rn.record(o, err); err != nil {
			return nil, err
		}
		conf1, conf2 := counts["completion_ns"], o.ct.Nanoseconds()
		res.Emul = &emulation{Conf1NS: conf1, Conf2NS: conf2, ErrPct: 100 * math.Abs(conf1-conf2) / conf2}
		res.set("emul.err_pct", res.Emul.ErrPct, "%")
	}
	if err := rn.traced(seconds, res.Raw["run_s"]); err != nil {
		return nil, err
	}
	return res, nil
}

// traced runs measured passes with spans, a CPU profile, runtime counters
// and the virtual-time profiler attached, and derives the per-layer
// metrics. The traced passes do not time the reference kernel, which the
// profile would otherwise see; untracedRunS is the same run's untraced
// run_s in host seconds.
func (rn *runner) traced(seconds, untracedRunS float64) error {
	w, res := rn.w, rn.res
	tr := newTracer()
	prof := vtprof.New()
	// The CPU profile and the runtime counters cover each traced pass's
	// measured phase, the interval its slices time.
	var ms0, ms1 runtime.MemStats
	var phaseCPU int64
	var gcCycles, allocBytes float64
	var buf *bytes.Buffer
	var profiles [][]byte
	var profErr error
	hooks := func(sl *slicer) {
		sl.onBegin = func() {
			runtime.ReadMemStats(&ms0)
			buf = new(bytes.Buffer)
			profErr = pprof.StartCPUProfile(buf)
		}
		sl.onEnd = func() {
			pprof.StopCPUProfile()
			profiles = append(profiles, buf.Bytes())
			runtime.ReadMemStats(&ms1)
			gcCycles += float64(ms1.NumGC - ms0.NumGC)
			allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			phaseCPU += sl.phaseCPU()
		}
	}
	passes0 := rn.passes
	// The traced passes must repeat the untraced passes' counts exactly.
	st, _, err := rn.measure(seconds, passConfig{seed: rn.seed, tr: tr, prof: prof}, nil, hooks, res.Counts)
	if err != nil {
		return err
	}
	if profErr != nil {
		return fmt.Errorf("CPU profile: %w", profErr)
	}
	passes := float64(rn.passes - passes0)
	counts := res.Counts

	fold := cpuFold{ModuleNS: map[string]int64{}}
	for _, p := range profiles {
		f, err := foldProfile(p)
		if err != nil {
			return err
		}
		fold.add(f)
	}
	res.tracer = tr
	res.Spans = tr.summarize()
	res.Samples["traced_passes"] = int(passes)
	res.Samples["traced_slices"] = len(st.wall)
	res.Samples["spans"] = int(tr.total)

	c := func(name string) float64 { return counts[name] }
	accesses := c("cpu.accesses")
	tracedCPU := fold.TotalNS // profile CPU over the traced passes
	share := fold.Share

	// Modules, by CPU share of the traced passes.
	for _, m := range []string{"cache", "cpu", "perf", "mem", "core", "sim", "simos", "workload", "kvstore", "pmlog", "bench", "machine", "interpose", "obs", "vtprof", "perfbench", "stdlib"} {
		res.set(m+".cpu_share", share(m), "fraction")
	}
	res.set("runtime.sched_share", share("runtime.sched"), "fraction")
	res.set("runtime.gc_share", share("runtime.gc"), "fraction")
	res.set("runtime.other_share", share("runtime.other"), "fraction")
	res.set("trace.profile_cpu_s", float64(fold.TotalNS)/1e9, "s")
	res.set("trace.phase_cpu_s", float64(phaseCPU)/1e9, "s")

	// Cache and CPU.
	res.set("cache.host_ns_per_access", share("cache")*float64(tracedCPU)/(accesses*passes), "ns")
	for _, n := range []string{"cache.l1.misses", "cache.l2.misses", "cache.l3.misses", "cache.l3.evictions", "cache.prefetch_fills", "cpu.accesses",
		"mem.reads", "mem.writes", "mem.writebacks", "core.epochs", "core.sync_epochs", "core.flushes", "sim.dispatches", "workload.ops", "pmlog.commits"} {
		res.set(n, c(n), "count")
	}
	for _, n := range []string{"mem.queue_ns", "core.injected_ns", "core.write_delay_ns"} {
		res.set(n, c(n), "ns")
	}
	res.set("core.close_epoch_ns_p50", res.Spans["core.CloseEpoch"].SelfP50, "ns")

	// Scheduler: host CPU in the kernel and the runtime's scheduler per
	// dispatch.
	schedNS := (share("sim") + share("runtime.sched")) * float64(tracedCPU) / passes
	res.set("sim.host_ns_per_dispatch", safeDiv(schedNS, c("sim.dispatches")), "ns")

	// Workload engine self time: the RunScenario span minus the op spans.
	res.set("workload.self_ns_per_op", safeDiv(float64(res.Spans["workload.RunScenario"].SelfNS)/passes, c("workload.ops")), "ns")
	res.set("kvstore.read_ns_p50", res.Spans["kvstore.Read"].SelfP50, "ns")
	res.set("kvstore.read_ns_p99", res.Spans["kvstore.Read"].SelfP99, "ns")
	res.set("kvstore.update_ns_p50", res.Spans["kvstore.Update"].SelfP50, "ns")
	res.set("kvstore.update_ns_p99", res.Spans["kvstore.Update"].SelfP99, "ns")
	res.set("pmlog.append_ns_p50", res.Spans["pmlog.Append"].SelfP50, "ns")
	res.set("pmlog.commit_ns_p50", res.Spans["pmlog.Commit"].SelfP50, "ns")
	res.set("pmlog.commit_ns_p99", res.Spans["pmlog.Commit"].SelfP99, "ns")

	// Runtime.
	res.set("runtime.gc_cycles", gcCycles/passes, "count")
	res.set("runtime.alloc_bytes_per_access", safeDiv(allocBytes/passes, accesses), "B")

	// Virtual time, by vtprof category (deterministic; summed over the
	// traced passes and divided by their number).
	totals := prof.Snapshot().Totals()
	for cat := vtprof.Category(0); cat < vtprof.NumCategories; cat++ {
		res.set("vt."+cat.String()+"_ns", float64(totals[cat])/passes, "ns")
	}

	tracedRunS := sliceEstimate(st.wall, w.slices) / 1e9
	res.set("trace.overhead_pct", 100*(tracedRunS/untracedRunS-1), "%")
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// diffCounts lists the keys whose values differ between a and b, sorted.
func diffCounts(a, b map[string]float64) []string {
	var diff []string
	for k, va := range a {
		if vb, ok := b[k]; !ok || vb != va {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return diff
}
