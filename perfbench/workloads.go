package main

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/apps/kvstore"
	"github.com/quartz-emu/quartz/internal/apps/pmlog"
	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
	"github.com/quartz-emu/quartz/internal/workload"
)

// passConfig selects what one pass builds and how it is observed.
type passConfig struct {
	seed uint64
	// remote builds Conf_2: workload memory bound to the remote socket and
	// no emulator, the paper's physically slower reference (§4.3).
	remote bool
	// setupOnly stops the pass once set-up is done.
	setupOnly bool
	tr        *tracer
	prof      *vtprof.Profiler
}

// setupTimes splits one pass's set-up, in host ns.
type setupTimes struct {
	machine int64 // machine.New and simos.NewProcess
	attach  int64 // core.Attach
	inputs  int64 // workload inputs: chains, preloaded store, record sizes
}

func (s setupTimes) total() int64 { return s.machine + s.attach + s.inputs }

// passOutcome is what one pass produced.
type passOutcome struct {
	setup setupTimes
	// ct is the simulated completion time of the measured phase.
	ct sim.Time
	// counts are the pass's deterministic simulated statistics.
	counts map[string]float64
	// attempted and failed count operations and the ones that failed their
	// output check; problems describes the first few failures.
	attempted, failed int64
	problems          []string
}

// fail records a failed check covering n operations; a check of the pass
// as a whole passes n = 0 and counts as one failure.
func (o *passOutcome) fail(n int64, format string, args ...any) {
	o.failed += max(n, 1)
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloadDef is one named benchmark workload. A pass builds a fresh
// machine, runs the workload's fixed amount of simulated work once, and
// reports progress to the slicer in units of total/slices.
type workloadDef struct {
	name   string
	units  int64 // work units per pass
	slices int
	conf2  bool // a Conf_2 reference exists
	pass   func(pc passConfig, sl *slicer) (passOutcome, error)
}

var workloads = []*workloadDef{
	{name: "memlat-chase", units: memlatSlices * memlatSliceIters, slices: memlatSlices, conf2: true, pass: memlatPass},
	{name: "kv-serve", units: kvClients * (kvWarmupOps + kvMeasureOps), slices: 12, conf2: true, pass: kvPass},
	{name: "wal-commit", units: walWriters * walRecords, slices: 12, pass: walPass},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// quartzConfig is the emulator configuration the repository's experiments
// use: 2 ms maximum epochs, 10 µs minimum epochs, and the library's init
// cost suppressed.
func quartzConfig(nvmNS float64) core.Config {
	return core.Config{
		NVMLatency: sim.FromNanos(nvmNS),
		MaxEpoch:   2 * sim.Millisecond,
		MinEpoch:   10 * sim.Microsecond,
		InitCycles: 1,
	}
}

// env is one assembled machine and process, with the emulator attached in
// Conf_1.
type env struct {
	mach *machine.Machine
	proc *simos.Process
	emu  *core.Emulator
	node int // NUMA node workload memory lives on
}

// newEnv assembles a machine the way the repository's validation
// environments do (computation on socket 0; memory local under Conf_1,
// remote under Conf_2), timing the machine and the attach separately.
func newEnv(pc passConfig, mc machine.Config, q core.Config, lookahead sim.Time, st *setupTimes) (*env, error) {
	tr := pc.tr
	t0 := wallNS()
	sp := tr.begin(tr.name("machine.New"), -1)
	mach, err := machine.New(mc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	opts := simos.DefaultOptions()
	opts.Lookahead = lookahead
	opts.AllowedSockets = []int{0}
	e := &env{mach: mach}
	if pc.remote {
		e.node = 1
	}
	opts.DefaultNode = e.node
	sp = tr.begin(tr.name("simos.NewProcess"), -1)
	e.proc, err = simos.NewProcess(mach, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if pc.prof != nil {
		e.proc.SetProfiler(pc.prof)
	}
	t1 := wallNS()
	st.machine = t1 - t0
	if !pc.remote {
		sp = tr.begin(tr.name("core.Attach"), -1)
		e.emu, err = core.Attach(e.proc, q)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	st.attach = wallNS() - t1
	return e, nil
}

// run executes fn as the main thread, under the emulator in Conf_1.
func (e *env) run(tr *tracer, fn simos.ThreadFunc) error {
	if e.emu != nil {
		sp := tr.begin(tr.name("core.Run"), -1)
		defer tr.end(sp)
		return e.emu.Run(fn)
	}
	sp := tr.begin(tr.name("simos.Run"), -1)
	defer tr.end(sp)
	return e.proc.Run(fn)
}

// closeEpoch force-closes t's epoch in Conf_1 (a no-op in Conf_2).
func (e *env) closeEpoch(tr *tracer, t *simos.Thread) {
	if e.emu == nil {
		return
	}
	sp := tr.begin(tr.name("core.CloseEpoch"), t.TID())
	e.emu.CloseEpoch(t)
	tr.end(sp)
}

// counts gathers the pass's deterministic simulated statistics from the
// layers' public accessors.
func (e *env) counts(ct sim.Time) map[string]float64 {
	c := map[string]float64{"completion_ns": ct.Nanoseconds()}
	var l1, l2 int64
	for _, core := range e.mach.Cores() {
		s1, s2 := core.L1().Stats(), core.L2().Stats()
		c["cache.l1.misses"] += float64(s1.Misses)
		c["cache.l2.misses"] += float64(s2.Misses)
		l1 += s1.Hits + s1.Misses
		l2 += s2.Hits + s2.Misses
	}
	c["cache.l1.lookups"] = float64(l1)
	c["cache.l2.lookups"] = float64(l2)
	for _, s := range e.mach.Sockets() {
		l3, m := s.L3.Stats(), s.Ctrl.Stats()
		c["cache.l3.misses"] += float64(l3.Misses)
		c["cache.l3.evictions"] += float64(l3.Evictions)
		c["cache.prefetch_fills"] += float64(m.Prefetches)
		c["mem.reads"] += float64(m.Reads)
		c["mem.writes"] += float64(m.Writes)
		c["mem.writebacks"] += float64(m.Writebacks)
		c["mem.queue_ns"] += m.QueueTime.Nanoseconds()
	}
	c["sim.dispatches"] = float64(e.proc.Kernel().Stats().Dispatches)
	if e.emu != nil {
		s := e.emu.Stats()
		c["core.epochs"] = float64(s.Epochs)
		c["core.sync_epochs"] = float64(s.SyncEpochs)
		c["core.injected_ns"] = s.Injected.Nanoseconds()
		c["core.write_delay_ns"] = s.WriteDelay.Nanoseconds()
		c["core.flushes"] = float64(s.Flushes)
	}
	// Simulated memory accesses: every load and store the L1s saw, plus the
	// persistent-memory flushes.
	c["cpu.accesses"] = c["cache.l1.lookups"] + c["core.flushes"]
	return c
}

// ---- memlat-chase -------------------------------------------------------

// memlat-chase: a single-thread, 4-chain MemLat (§4.4, Fig. 11) on Ivy
// Bridge emulating its 176 ns remote latency. Each slice chases every chain
// once around its cycle, touching 4 x 256 Ki lines (64 MiB, 2.6x the 25 MiB
// L3), so every load misses the whole hierarchy.
const (
	memlatChains     = 4
	memlatLines      = 1 << 18
	memlatSliceIters = memlatLines
	memlatSlices     = 6
)

func memlatPass(pc passConfig, sl *slicer) (passOutcome, error) {
	var out passOutcome
	tr := pc.tr
	mc := machine.PresetConfig(machine.XeonE5_2660v2)
	e, err := newEnv(pc, mc, quartzConfig(mc.RemoteLat.Nanoseconds()), 0, &out.setup)
	if err != nil {
		return out, err
	}
	t0 := wallNS()
	sp := tr.begin(tr.name("bench.BuildMemLat"), -1)
	ml, err := bench.BuildMemLat(e.proc, bench.MemLatConfig{
		Lines: memlatLines, Chains: memlatChains, Iters: memlatSliceIters,
		Node: e.node, Seed: int64(pc.seed),
	})
	tr.end(sp)
	out.setup.inputs = wallNS() - t0
	if err != nil || pc.setupOnly {
		return out, err
	}
	nRun := tr.name("bench.MemLat.Run")
	err = e.run(tr, func(t *simos.Thread) {
		l1 := t.Core().L1()
		sl.begin()
		start := t.Now()
		for i := 0; i < memlatSlices; i++ {
			before, lookups := t.Now(), l1.Stats().Hits+l1.Stats().Misses
			sp := tr.begin(nRun, t.TID())
			ml.Run(t)
			tr.end(sp)
			e.closeEpoch(tr, t)
			// The L1 must have seen exactly one load per chain per
			// iteration, and the slice must take simulated time.
			seen := l1.Stats().Hits + l1.Stats().Misses - lookups
			out.attempted += memlatSliceIters
			if want := int64(memlatSliceIters * memlatChains); seen != want || t.Now() <= before {
				out.fail(memlatSliceIters, "slice %d: %d L1 accesses (want %d), %v simulated", i, seen, want, t.Now()-before)
			}
			sl.add(memlatSliceIters)
		}
		out.ct = t.Now() - start
	})
	out.counts = e.counts(out.ct)
	out.counts["bench.iterations"] = memlatSlices * memlatSliceIters
	return out, err
}

// ---- kv-serve -----------------------------------------------------------

// kv-serve: a closed loop of kvClients clients with zero think time on a
// 2-thread pool, serving a read-mostly zipfian mix with a few short scans
// from the KV store on the scaled testbed (Sandy Bridge with a 2 MiB L3,
// as the repository's traffic experiments use), emulating Sandy Bridge's
// 163 ns remote latency.
const (
	kvKeys       = 32 << 10
	kvValueBytes = 1024
	kvClients    = 256
	kvPool       = 2
	kvWarmupOps  = 8
	kvMeasureOps = 640
	kvPartitions = 16
)

var kvMix = workload.Mix{Name: "read-mostly-scan", Read: 930, Update: 50, Scan: 20, ScanLen: 8}

// kvMachine is the scaled KV testbed: the L3 shrinks to 2 MiB so the hot
// tree levels stay cached while values miss, and channel bandwidth rises
// 4x to keep the store latency-bound.
func kvMachine() machine.Config {
	mc := machine.PresetConfig(machine.XeonE5_2450)
	mc.L3.SizeBytes = 2 << 20
	mc.L3.Ways = 16
	mc.Mem.ChannelBandwidth *= 4
	return mc
}

// kvPartition mirrors the store's key-to-partition hash, so the scan check
// knows which keys one scan can see.
func kvPartition(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> 40 % kvPartitions }

// checkedTarget wraps the store's traffic target: it times each call in the
// traced run, checks each result, and reports progress to the slicer.
type checkedTarget struct {
	inner                 *kvstore.TrafficTarget
	tr                    *tracer
	sl                    *slicer
	out                   *passOutcome
	remaining             []int32 // keys >= k in k's partition
	nRead, nUpdate, nScan uint16
}

func (c *checkedTarget) Read(t *simos.Thread, key uint64) bool {
	sp := c.tr.begin(c.nRead, t.TID())
	ok := c.inner.Read(t, key)
	c.tr.end(sp)
	c.out.attempted++
	if !ok {
		c.out.fail(1, "read of preloaded key %d missed", key)
	}
	c.sl.add(1)
	return ok
}

func (c *checkedTarget) Update(t *simos.Thread, key, value uint64) error {
	sp := c.tr.begin(c.nUpdate, t.TID())
	err := c.inner.Update(t, key, value)
	c.tr.end(sp)
	c.out.attempted++
	if err != nil {
		c.out.fail(1, "update of key %d: %v", key, err)
	}
	c.sl.add(1)
	return err
}

func (c *checkedTarget) Scan(t *simos.Thread, key uint64, limit int) int {
	sp := c.tr.begin(c.nScan, t.TID())
	n := c.inner.Scan(t, key, limit)
	c.tr.end(sp)
	c.out.attempted++
	if want := min(limit, int(c.remaining[key])); n != want {
		c.out.fail(1, "scan from key %d returned %d items (want %d)", key, n, want)
	}
	c.sl.add(1)
	return n
}

func kvPass(pc passConfig, sl *slicer) (passOutcome, error) {
	var out passOutcome
	tr := pc.tr
	q := quartzConfig(kvMachine().RemoteLat.Nanoseconds())
	q.MinEpoch = 50 * sim.Microsecond // amortizes sub-µs critical sections (§3.2)
	e, err := newEnv(pc, kvMachine(), q, 2*sim.Microsecond, &out.setup)
	if err != nil {
		return out, err
	}
	t0 := wallNS()
	alloc := func(size uintptr) (uintptr, error) { return e.proc.MallocOnNode(size, e.node) }
	keys, err := workload.NewZipfian(kvKeys, workload.DefaultTheta, true)
	if err != nil {
		return out, err
	}
	store, err := kvstore.New(e.proc, kvstore.Config{Partitions: kvPartitions, Alloc: alloc})
	if err != nil {
		return out, err
	}
	target, err := kvstore.NewTrafficTarget(store, kvKeys, kvValueBytes, alloc)
	if err != nil {
		return out, err
	}
	ct := &checkedTarget{
		inner: target, tr: tr, sl: sl, out: &out, remaining: make([]int32, kvKeys),
		nRead: tr.name("kvstore.Read"), nUpdate: tr.name("kvstore.Update"), nScan: tr.name("kvstore.Scan"),
	}
	var inPart [kvPartitions]int32
	for k := kvKeys - 1; k >= 0; k-- {
		p := kvPartition(uint64(k))
		inPart[p]++
		ct.remaining[k] = inPart[p]
	}
	out.setup.inputs = wallNS() - t0
	var res workload.ScenarioResult
	err = e.run(tr, func(t *simos.Thread) {
		p0 := wallNS()
		sp := tr.begin(tr.name("kvstore.Preload"), t.TID())
		perr := target.Preload(t, kvKeys)
		tr.end(sp)
		out.setup.inputs += wallNS() - p0
		if perr != nil {
			t.Failf("%v", perr)
		}
		if pc.setupOnly {
			return
		}
		cfg := workload.ScenarioConfig{
			Name: "kv-serve", Clients: kvClients, PoolThreads: kvPool,
			WarmupOps: kvWarmupOps, MeasureOps: kvMeasureOps,
			Keys: keys, Mix: kvMix, Seed: pc.seed, EventEvery: -1,
		}
		if e.emu != nil {
			cfg.CloseEpoch = func(t *simos.Thread) { e.closeEpoch(tr, t) }
		}
		sl.begin()
		sp = tr.begin(tr.name("workload.RunScenario"), t.TID())
		var rerr error
		res, rerr = workload.RunScenario(t, ct, cfg)
		tr.end(sp)
		if rerr != nil {
			t.Failf("%v", rerr)
		}
	})
	if err != nil || pc.setupOnly {
		return out, err
	}
	if want := int64(kvClients * kvMeasureOps); res.Ops != want {
		out.fail(0, "scenario measured %d ops, want %d", res.Ops, want)
	}
	if want := int64(kvClients * (kvWarmupOps + kvMeasureOps)); out.attempted != want {
		out.fail(0, "target saw %d ops, want %d", out.attempted, want)
	}
	out.ct = res.CT
	out.counts = e.counts(res.CT)
	out.counts["workload.ops"] = float64(res.Ops)
	out.counts["workload.reads"] = float64(res.Counts[workload.OpRead])
	out.counts["workload.updates"] = float64(res.Counts[workload.OpUpdate])
	out.counts["workload.scans"] = float64(res.Counts[workload.OpScan])
	p50, _, p99 := res.Quantiles()
	out.counts["workload.latency_ns_p50"] = p50
	out.counts["workload.latency_ns_p99"] = p99
	return out, nil
}

// ---- wal-commit ---------------------------------------------------------

// wal-commit: walWriters threads each append walRecords records to their
// own pmlog.Log with clflushopt+pcommit, group-committing every walGroup
// records, under the pcm NVM profile (store model, 680 ns write latency and
// write bandwidth cap on) on Ivy Bridge. Record sizes are drawn from the
// seed, uniform in 128..256 B (192 B on average).
const (
	walWriters  = 2
	walRecords  = 1_200_000
	walGroup    = 8
	walCapacity = 4 << 20
)

// walSizes draws each writer's record sizes from the seed.
func walSizes(seed uint64) [][]uint16 {
	sizes := make([][]uint16, walWriters)
	for w := range sizes {
		r := workload.NewLCG(workload.ClientState(seed, w))
		sizes[w] = make([]uint16, walRecords)
		for i := range sizes[w] {
			sizes[w][i] = uint16(128 + r.Next()%129)
		}
	}
	return sizes
}

func walPass(pc passConfig, sl *slicer) (passOutcome, error) {
	var out passOutcome
	tr := pc.tr
	prof, err := machine.NVMProfileByName("pcm")
	if err != nil {
		return out, err
	}
	mc := machine.PresetConfig(machine.XeonE5_2660v2)
	prof.ApplyToMem(&mc)
	q := quartzConfig(prof.ReadLatency.Nanoseconds())
	q.NVMWriteLatency = prof.WriteLatency
	q.NVMBandwidth = prof.ReadBandwidth
	q.NVMWriteBandwidth = prof.WriteBandwidth
	e, err := newEnv(pc, mc, q, 2*sim.Microsecond, &out.setup)
	if err != nil {
		return out, err
	}
	t0 := wallNS()
	sizes := walSizes(pc.seed)
	out.setup.inputs = wallNS() - t0
	if pc.setupOnly {
		return out, nil
	}
	nAppend, nCommit := tr.name("pmlog.Append"), tr.name("pmlog.Commit")
	logs := make([]*pmlog.Log, walWriters)
	err = e.run(tr, func(main *simos.Thread) {
		sl.begin()
		start := main.Now()
		var writers []*simos.Thread
		for w := 0; w < walWriters; w++ {
			w := w
			th, cerr := main.CreateThread(fmt.Sprintf("wal-writer-%d", w), func(t *simos.Thread) {
				l, lerr := pmlog.New(e.emu, t, pmlog.Config{Capacity: walCapacity, UsePCommit: true})
				if lerr != nil {
					t.Failf("%v", lerr)
				}
				logs[w] = l
				commit := func() {
					sp := tr.begin(nCommit, t.TID())
					l.Commit(t)
					tr.end(sp)
				}
				for i, size := range sizes[w] {
					sp := tr.begin(nAppend, t.TID())
					aerr := l.Append(t, int(size))
					tr.end(sp)
					out.attempted++
					if aerr != nil {
						out.fail(1, "writer %d append %d: %v", w, i, aerr)
					}
					if (i+1)%walGroup == 0 {
						commit()
						if l.Free() < walCapacity/4 {
							if terr := l.Truncate(t); terr != nil {
								out.fail(0, "writer %d truncate: %v", w, terr)
							}
						}
					}
					sl.add(1)
				}
				commit()
			})
			if cerr != nil {
				main.Failf("%v", cerr)
			}
			writers = append(writers, th)
		}
		for _, th := range writers {
			main.Join(th)
		}
		e.closeEpoch(tr, main)
		out.ct = main.Now() - start
	})
	if err != nil {
		return out, err
	}
	var commits int64
	for w, l := range logs {
		if l.Records() != walRecords || l.DurableRecords() != l.Records() {
			out.fail(0, "writer %d: %d records, %d durable (want %d)", w, l.Records(), l.DurableRecords(), walRecords)
		}
		commits += l.Stats().Commits
	}
	out.counts = e.counts(out.ct)
	out.counts["pmlog.records"] = float64(walWriters * walRecords)
	out.counts["pmlog.commits"] = float64(commits)
	return out, nil
}
