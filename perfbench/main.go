// Command perfbench is the repository's benchmark. It runs one named
// workload on the simulated machine, checks the workload's outputs, and
// prints every metric by name with its unit; the last line of its output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 they are the per-layer ones, from a separate traced
// phase. The full record, including the deterministic simulated counts, is
// written to -out, and a traced run's spans beside it. README.md describes
// the workloads and every metric.
//
// Two more modes work on runs:
//
//	perfbench -compare a.json b.json   # list simulated counts that differ
//	perfbench -steady 10 -seconds 30   # repeat runs, print each metric's spread
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "host seconds of measured passes")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced phase")
	out := fs.String("out", "", "result file (default .bench_build/results/<workload>-seed<n>-trace<t>.json; - for none)")
	compare := fs.Bool("compare", false, "compare the simulated counts of the two result files given as arguments")
	steady := fs.Int("steady", 0, "run each of -workloads this many times and report each metric's spread")
	names := fs.String("workloads", strings.Join(allWorkloads(), ","), "workloads for -steady")
	seedStep := fs.Uint64("seed-step", 1, "with -steady, seed increment between runs (0 repeats one seed and checks its counts repeat)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two result files")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1))
	case *steady > 0:
		return steadyReport(strings.Split(*names, ","), *steady, *seed, *seedStep, *seconds)
	}

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	path := *out
	if path == "" {
		path = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	}
	if path != "-" {
		err := writeJSON(path, res)
		if err == nil && res.tracer != nil {
			err = res.tracer.writeSpans(strings.TrimSuffix(path, ".json") + ".spans.jsonl")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printResult(res)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func allWorkloads() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadNames() string { return strings.Join(allWorkloads(), ", ") }

// printResult prints each metric on its own line, then the failure share
// and the emulation error, then the JSON summary line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: %d passes, %d slices, %d set-ups\n",
		res.Workload, res.Seed, res.Samples["passes"], res.Samples["slices"], res.Samples["setups"])
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	failedPct := 100 * float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("  %-32s %16.6g %s\n", "failed_pct", failedPct, "%")
	if res.Emul != nil {
		fmt.Printf("  %-32s %16.6g %s (Conf_1 %.0f ns, Conf_2 %.0f ns)\n", "emul_err_pct", res.Emul.ErrPct, "%", res.Emul.Conf1NS, res.Emul.Conf2NS)
	}
	for _, p := range res.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, max(res.Attempted, 1), res.Failed, res.Metrics})
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}
