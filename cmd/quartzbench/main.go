// Command quartzbench regenerates the paper's evaluation artifacts: every
// table and figure of §4 plus the §3.2 overhead accounting and the design
// ablations, printed as text tables.
//
// Experiments are decomposed into independent sweep-point jobs and executed
// on a worker pool (internal/runner); within one job, -trial-parallel runs
// the independent repeated trials (and paired Conf_1/Conf_2 or model-variant
// simulations) on their own goroutines. The rendered tables are
// byte-identical for every -parallel × -trial-parallel combination,
// including the serial -parallel 1 special case — see doc/parallelism.md. A
// crashed or timed-out job fails its experiment (and the exit code) without
// stopping the rest of the suite.
//
// Usage:
//
//	quartzbench -list
//	quartzbench -exp fig11,fig12 -scale quick
//	quartzbench -exp all -scale full -parallel 8 -json results.jsonl -o results.txt
//	quartzbench -exp fig12 -trace trace.json -metrics-out metrics.json
//	quartzbench -exp all -scale full -serve :8077 -ledger-out run.jsonl
//
// -trace writes a Chrome trace-event file (chrome://tracing / Perfetto) with
// every closed epoch as a slice and every delay injection as a flow-linked
// slice; -metrics / -metrics-out export the aggregated metrics registry as
// JSON. See doc/observability.md for the schema.
//
// -serve starts the live introspection HTTP server (/metrics, /ledger,
// /runs, /events) for the duration of the suite (plus -serve-linger);
// -ledger-out streams every epoch record to disk as it closes (JSONL or the
// compact binary framing via -ledger-format, size-rotated via
// -ledger-rotate-mb), removing the in-memory ledger bound. See
// doc/live-monitoring.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/quartz-emu/quartz/internal/experiments"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/obshttp"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/runner"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quartzbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag      = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scaleFlag    = fs.String("scale", "quick", "sweep scale: quick or full")
		outFlag      = fs.String("o", "", "also write output to this file")
		listFlag     = fs.Bool("list", false, "list experiment ids and exit")
		parallelFlag = fs.Int("parallel", 0, "concurrent jobs (0 = GOMAXPROCS, 1 = serial)")
		trialPar     = fs.Int("trial-parallel", 0, "concurrent trials/variants within one job (0 or 1 = serial)")
		jsonFlag     = fs.String("json", "", "write per-job JSONL results to this file")
		timeoutFlag  = fs.Duration("timeout", 0, "per-job timeout (0 = none)")
		retriesFlag  = fs.Int("retries", 0, "retries per failed job")
		progressFlag = fs.Bool("progress", false, "report job completion progress on stderr")
		traceFlag    = fs.String("trace", "", "write a Chrome trace-event file of every emulated run (open in chrome://tracing or Perfetto)")
		metricsFlag  = fs.Bool("metrics", false, "print a JSON metrics snapshot to stdout after the suite")
		metricsOut   = fs.String("metrics-out", "", "write the JSON metrics snapshot to this file")
		serveFlag    = fs.String("serve", "", "serve live introspection HTTP (/metrics /ledger /runs /events) on this address during the suite (e.g. :8077)")
		lingerFlag   = fs.Duration("serve-linger", 0, "keep the introspection server up this long after the suite finishes")
		ledgerOut    = fs.String("ledger-out", "", "stream every epoch record to this file as it closes (removes the in-memory ledger bound)")
		ledgerFormat = fs.String("ledger-format", "jsonl", "ledger sink encoding: jsonl or binary")
		ledgerRotMB  = fs.Int64("ledger-rotate-mb", 0, "rotate the ledger sink file after this many MiB (0 = never)")
		trafClients  = fs.String("traffic-clients", "", "comma-separated client counts overriding the scale's traffic-* sweep (e.g. 64,256,1024)")
		trafMixes    = fs.String("traffic-mixes", "", "comma-separated mix presets overriding the scale's traffic-* sweep (read-mostly, write-heavy, scan-blend)")
		trafPool     = fs.Int("traffic-pool", 0, "serving pool threads per traffic scenario, overriding the scale (0 = scale default)")
		trafLats     = fs.String("traffic-lats", "", "comma-separated emulated NVM latencies in ns overriding the scale's traffic-* sweep (e.g. 200,600,2000)")
		vtprofDir    = fs.String("vtprof", "", "write virtual-time profiles (per-job and merged, pprof .pb.gz + .folded) into this directory")
		servePprof   = fs.Bool("serve-pprof", false, "mount host-side net/http/pprof under /debug/pprof/ on the -serve server")
		writeLat     = fs.Float64("write-latency", 0, "NVM write-latency override in ns for the asymmetric experiments (0 = profile default)")
		nvmProf      = fs.String("nvm-profile", "", "comma-separated NVM profile names narrowing the asymmetric sweeps (e.g. optane-dcpmm,pcm)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Validate flag combinations before any experiment runs, mirroring the
	// upfront -exp id validation: a misconfiguration must fail in
	// milliseconds, not after the suite.
	sinkFormat, err := validateFlags(*listFlag, *parallelFlag, *trialPar, *retriesFlag,
		*serveFlag, *lingerFlag, *ledgerOut, *ledgerFormat, *ledgerRotMB, *servePprof)
	if err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 2
	}

	if *listFlag {
		for _, id := range experiments.All() {
			desc, _ := experiments.Describe(id)
			fmt.Fprintf(stdout, "%-18s %s\n", id, desc)
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(stderr, "quartzbench: unknown scale %q (quick|full)\n", *scaleFlag)
		return 2
	}
	scale.TrialParallel = *trialPar
	// The virtual-time profiler attaches per job through the scale; nil (the
	// default) keeps every simulation byte-identical to an unprofiled run.
	var profSuite *vtprof.Suite
	if *vtprofDir != "" {
		profSuite = vtprof.NewSuite()
		scale.Profiles = profSuite
	}
	if err := applyTrafficOverrides(&scale, *trafClients, *trafMixes, *trafPool, *trafLats); err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 2
	}
	if err := applyAsymOverrides(&scale, *writeLat, *nvmProf); err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 2
	}

	// Validate every id before running anything, so a typo in the last id
	// doesn't waste the minutes spent running the earlier ones.
	ids := experiments.All()
	if *expFlag != "all" {
		ids = nil
		var unknown []string
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if !experiments.Known(id) {
				unknown = append(unknown, id)
				continue
			}
			ids = append(ids, id)
		}
		if len(unknown) > 0 {
			fmt.Fprintf(stderr, "quartzbench: unknown experiment(s) %q (see -list)\n", unknown)
			return 2
		}
		if len(ids) == 0 {
			fmt.Fprintln(stderr, "quartzbench: no experiments selected")
			return 2
		}
	}

	var out io.Writer = stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fmt.Fprintf(stderr, "quartzbench: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "quartzbench: closing output: %v\n", err)
			}
		}()
		out = io.MultiWriter(stdout, f)
	}

	cfg := runner.Config{
		Workers: *parallelFlag,
		Timeout: *timeoutFlag,
		Retries: *retriesFlag,
	}

	// Observability: one shared recorder collects the whole suite — runner
	// job outcomes directly, and per-epoch ledger records from every
	// emulator the experiment jobs attach (via the process-global default,
	// since jobs construct their environments internally). -progress also
	// attaches one so its lines can report live emulation rates. See
	// doc/observability.md.
	var rec *obs.Recorder
	if *traceFlag != "" || *metricsFlag || *metricsOut != "" || *progressFlag ||
		*serveFlag != "" || *ledgerOut != "" {
		rec = obs.New(0)
		obs.SetDefault(rec)
		defer obs.SetDefault(nil)
		cfg.Recorder = rec
	}
	if *ledgerOut != "" {
		sink, err := obs.NewFileSink(*ledgerOut, obs.SinkOptions{
			Format:      sinkFormat,
			RotateBytes: *ledgerRotMB << 20,
		})
		if err != nil {
			fmt.Fprintf(stderr, "quartzbench: -ledger-out: %v\n", err)
			return 2
		}
		if err := rec.AttachSink(sink, 0); err != nil {
			fmt.Fprintf(stderr, "quartzbench: -ledger-out: %v\n", err)
			return 2
		}
		defer func() {
			if err := rec.CloseSink(); err != nil {
				fmt.Fprintf(stderr, "quartzbench: closing ledger sink: %v\n", err)
			}
		}()
	}
	var srv *obshttp.Server
	if *serveFlag != "" {
		board := runner.NewStatusBoard()
		cfg.Status = board
		var err error
		opts := obshttp.Options{Recorder: rec, Status: board, DebugPprof: *servePprof}
		if profSuite != nil {
			opts.VTProf = profSuite.PprofBytes
		}
		srv, err = obshttp.Start(*serveFlag, opts)
		if err != nil {
			fmt.Fprintf(stderr, "quartzbench: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "quartzbench: serving introspection on %s\n", srv.URL())
	}
	if *jsonFlag != "" {
		jf, err := os.Create(*jsonFlag)
		if err != nil {
			fmt.Fprintf(stderr, "quartzbench: %v\n", err)
			return 1
		}
		defer func() {
			if err := jf.Close(); err != nil {
				fmt.Fprintf(stderr, "quartzbench: closing json output: %v\n", err)
			}
		}()
		cfg.Sink = runner.NewSink(jf)
	}
	if *progressFlag {
		// Each progress line carries the recorder's live aggregates: epochs
		// closed so far, the wall-clock epoch-close rate, and how much virtual
		// delay the emulators have injected (with its share of the computed
		// delay — below 100% means overhead amortization withheld some).
		progressStart := time.Now()
		reg := rec.Registry()
		epochs := reg.Counter("quartz.epochs.closed")
		computed := reg.Counter("quartz.delay.computed_ns")
		injected := reg.Counter("quartz.delay.injected_ns")
		cfg.OnProgress = func(p runner.Progress) {
			elapsed := time.Since(progressStart).Seconds()
			if elapsed <= 0 {
				elapsed = 1e-9
			}
			ep := epochs.Value()
			injNs, compNs := injected.Value(), computed.Value()
			injShare := 100.0
			if compNs > 0 {
				injShare = float64(injNs) / float64(compNs) * 100
			}
			fmt.Fprintf(stderr, "[%d/%d] %s %s (%.1fs, %d failed) | %d epochs (%.0f/s), %.1fms delay injected (%.0f%% of computed)\n",
				p.Done, p.Total, p.Last.JobID, p.Last.Status, p.Last.Wall.Seconds(), p.Failed,
				ep, float64(ep)/elapsed, float64(injNs)/1e6, injShare)
		}
	}

	// Ctrl-C cancels the suite: running jobs are abandoned, pending ones are
	// recorded as canceled, and whatever assembled cleanly still renders.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(out, "quartz evaluation suite (scale=%s, trials=%d)\n\n", *scaleFlag, scale.Trials)
	start := time.Now()
	runs, err := runner.Suite(ctx, ids, scale, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 1
	}
	exit := 0
	for _, er := range runs {
		if er.Err != nil {
			fmt.Fprintf(stderr, "quartzbench: %s: %v\n", er.ID, er.Err)
			exit = 1
			continue
		}
		fmt.Fprint(out, er.Table.Render())
		fmt.Fprintf(out, "(%s in %.1fs)\n\n", er.ID, er.Wall.Seconds())
	}
	if *progressFlag {
		fmt.Fprintf(stderr, "suite finished in %.1fs\n", time.Since(start).Seconds())
	}

	if rec != nil {
		if err := writeObservability(rec, *traceFlag, *metricsFlag, *metricsOut, stdout); err != nil {
			fmt.Fprintf(stderr, "quartzbench: %v\n", err)
			return 1
		}
	}
	if profSuite != nil {
		if err := writeVTProf(profSuite, *vtprofDir); err != nil {
			fmt.Fprintf(stderr, "quartzbench: -vtprof: %v\n", err)
			return 1
		}
	}
	if srv != nil && *lingerFlag > 0 {
		// Keep the introspection plane queryable after the suite so smoke
		// tests and dashboards can take a final reading; Ctrl-C cuts it.
		fmt.Fprintf(stderr, "quartzbench: introspection server lingering %s (Ctrl-C to stop)\n", *lingerFlag)
		select {
		case <-ctx.Done():
		case <-time.After(*lingerFlag):
		}
	}
	if err := rec.CloseSink(); err != nil {
		fmt.Fprintf(stderr, "quartzbench: ledger sink: %v\n", err)
		return 1
	}
	return exit
}

// validateFlags rejects invalid flag combinations upfront with clear
// errors. It returns the parsed -ledger-format.
func validateFlags(list bool, parallel, trialParallel, retries int, serve string, linger time.Duration,
	ledgerOut, ledgerFormat string, ledgerRotMB int64, servePprof bool) (obs.SinkFormat, error) {
	sinkFormat, err := obs.ParseSinkFormat(ledgerFormat)
	if err != nil {
		return 0, fmt.Errorf("-ledger-format: %v", err)
	}
	switch {
	case parallel < 0:
		return 0, fmt.Errorf("-parallel %d: must be >= 0 (0 = GOMAXPROCS, 1 = serial)", parallel)
	case trialParallel < 0:
		return 0, fmt.Errorf("-trial-parallel %d: must be >= 0 (0 or 1 = serial)", trialParallel)
	case retries < 0:
		return 0, fmt.Errorf("-retries %d: must be >= 0", retries)
	case ledgerRotMB < 0:
		return 0, fmt.Errorf("-ledger-rotate-mb %d: must be >= 0 (0 = never rotate)", ledgerRotMB)
	case linger < 0:
		return 0, fmt.Errorf("-serve-linger %s: must be >= 0", linger)
	case linger > 0 && serve == "":
		return 0, fmt.Errorf("-serve-linger needs -serve")
	case ledgerRotMB > 0 && ledgerOut == "":
		return 0, fmt.Errorf("-ledger-rotate-mb needs -ledger-out")
	case servePprof && serve == "":
		return 0, fmt.Errorf("-serve-pprof needs -serve")
	case list && serve != "":
		return 0, fmt.Errorf("-serve makes no sense with -list (nothing runs)")
	}
	return sinkFormat, nil
}

// applyTrafficOverrides narrows the scale's traffic sweep from the
// -traffic-clients / -traffic-mixes / -traffic-pool / -traffic-lats flags,
// validating every value upfront so a typo fails before any experiment runs.
func applyTrafficOverrides(scale *experiments.Scale, clientsCSV, mixesCSV string, pool int, latsCSV string) error {
	if clientsCSV != "" {
		var clients []int
		for _, s := range strings.Split(clientsCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("-traffic-clients: %q is not a positive client count", s)
			}
			clients = append(clients, n)
		}
		scale.TrafficClients = clients
	}
	if mixesCSV != "" {
		var mixes []string
		for _, s := range strings.Split(mixesCSV, ",") {
			name := strings.TrimSpace(s)
			if _, ok := workload.MixByName(name); !ok {
				return fmt.Errorf("-traffic-mixes: unknown mix %q (known: %s)",
					name, strings.Join(workload.PresetNames(), ", "))
			}
			mixes = append(mixes, name)
		}
		scale.TrafficMixes = mixes
	}
	if latsCSV != "" {
		var lats []float64
		for _, s := range strings.Split(latsCSV, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			// The latency must be a whole number of sim.Time units or more
			// and fit one; NaN fails both comparisons, +Inf the second.
			fs := v * float64(sim.Nanosecond)
			if err != nil || !(fs >= 1 && fs < math.MaxInt64) {
				return fmt.Errorf("-traffic-lats: %q is not a positive latency in ns", s)
			}
			lats = append(lats, v)
		}
		scale.TrafficLatsNS = lats
	}
	switch {
	case pool < 0:
		return fmt.Errorf("-traffic-pool %d: must be >= 0 (0 = scale default)", pool)
	case pool > 0:
		scale.TrafficPool = pool
	}
	return nil
}

// profFileName maps a job key ("traffic-sweep/read-mostly/lat=600ns/...")
// to a flat, filesystem-safe file stem.
func profFileName(job string) string {
	var b strings.Builder
	b.Grow(len(job))
	for i := 0; i < len(job); i++ {
		c := job[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_', c == '=':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeVTProf writes the suite's virtual-time profiles into dir: one
// <job>.pb.gz / <job>.folded pair per profiled job, plus suite.pb.gz /
// suite.folded merging every job (the file `go tool pprof` and flame-graph
// tooling consume directly).
func writeVTProf(suite *vtprof.Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	write := func(stem string, p *vtprof.Profile) error {
		pb, err := p.PprofBytes()
		if err != nil {
			return err
		}
		if err := os.WriteFile(fmt.Sprintf("%s/%s.pb.gz", dir, stem), pb, 0o666); err != nil {
			return err
		}
		f, err := os.Create(fmt.Sprintf("%s/%s.folded", dir, stem))
		if err != nil {
			return err
		}
		werr := p.WriteFolded(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}
	for _, job := range suite.Jobs() {
		if err := write(profFileName(job), suite.JobProfile(job)); err != nil {
			return err
		}
	}
	return write("suite", suite.Merged())
}

// applyAsymOverrides narrows the asymmetric-model sweep from the
// -write-latency / -nvm-profile flags, resolving every profile name against
// the machine registry upfront so a typo fails before any experiment runs.
func applyAsymOverrides(scale *experiments.Scale, writeLatNS float64, profilesCSV string) error {
	if writeLatNS < 0 {
		return fmt.Errorf("-write-latency %g: must be >= 0 ns (0 = profile default)", writeLatNS)
	}
	if writeLatNS > 0 {
		scale.AsymWriteLatNS = writeLatNS
	}
	if profilesCSV != "" {
		var profs []string
		for _, s := range strings.Split(profilesCSV, ",") {
			name := strings.TrimSpace(s)
			if _, err := machine.NVMProfileByName(name); err != nil {
				return fmt.Errorf("-nvm-profile: %v", err)
			}
			profs = append(profs, name)
		}
		scale.AsymProfiles = profs
	}
	return nil
}

// writeObservability exports the recorder's trace file and/or metrics
// snapshot after the suite finishes.
func writeObservability(rec *obs.Recorder, tracePath string, metricsStdout bool, metricsPath string, stdout io.Writer) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		werr := rec.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing trace: %w", werr)
		}
	}
	if metricsStdout {
		if err := rec.WriteMetricsJSON(stdout); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		werr := rec.WriteMetricsJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing metrics: %w", werr)
		}
	}
	return nil
}
