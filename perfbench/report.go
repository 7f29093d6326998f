package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
)

// compareResults lists every simulated count that differs between two
// result files. It exits 0 when the counts are identical, 1 when any
// differs, and 2 when a file cannot be read.
func compareResults(pathA, pathB string) int {
	var a, b result
	for _, f := range []struct {
		path string
		res  *result
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading %s: %v\n", f.path, err)
			return 2
		}
	}
	if a.Workload != b.Workload || a.Seed != b.Seed {
		fmt.Printf("note: comparing %s seed %d with %s seed %d\n", a.Workload, a.Seed, b.Workload, b.Seed)
	}
	ca, cb := a.Counts, b.Counts
	if a.Emul != nil {
		ca["emul_err_pct"] = a.Emul.ErrPct
	}
	if b.Emul != nil {
		cb["emul_err_pct"] = b.Emul.ErrPct
	}
	diff := diffCounts(ca, cb)
	for _, k := range diff {
		va, oka := ca[k]
		vb, okb := cb[k]
		switch {
		case !oka:
			fmt.Printf("%-28s %20s %20.10g\n", k, "-", vb)
		case !okb:
			fmt.Printf("%-28s %20.10g %20s\n", k, va, "-")
		default:
			fmt.Printf("%-28s %20.10g %20.10g  (%+.4g%%)\n", k, va, vb, 100*(vb-va)/math.Abs(va))
		}
	}
	fmt.Printf("%d of %d simulated counts differ\n", len(diff), len(ca))
	if len(diff) > 0 {
		return 1
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steadyReport runs each workload runs times in its own process, each with
// the next seed, and prints each end-to-end metric's median, quartiles,
// quartile spread and largest deviation as shares of the median, beside the
// bound BENCHMARK.json sets when one is in the working directory, and the
// same for the times in host seconds the run recorded (raw.*). With
// seedStep 0 every run uses one seed, and the report also checks that the
// simulated counts repeat exactly.
func steadyReport(names []string, runs int, seed, seedStep uint64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	bounds := readBounds("BENCHMARK.json")
	status := 0
	for _, name := range names {
		if _, ok := workloadByName(name); !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var counts map[string]float64
		for i := 0; i < runs; i++ {
			s := seed + uint64(i)*seedStep
			out := fmt.Sprintf(".bench_build/results/steady-%s-%d.json", name, i)
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			last := lastLine(stdout)
			var sum struct {
				Correct bool              `json:"correct"`
				Metrics map[string]metric `json:"metrics"`
			}
			if err != nil || json.Unmarshal(last, &sum) != nil || !sum.Correct {
				fmt.Printf("%s seed %d: run failed (%v): %s\n", name, s, err, last)
				status = 1
				continue
			}
			for k, m := range sum.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			var r result
			if data, err := os.ReadFile(out); err == nil && json.Unmarshal(data, &r) == nil {
				// The host-second times beside the reference-unit ones:
				// how much of their spread the reference kernel removed.
				for k, v := range r.Raw {
					values["raw."+k] = append(values["raw."+k], v)
				}
				if seedStep == 0 {
					if counts == nil {
						counts = r.Counts
					} else if d := diffCounts(counts, r.Counts); len(d) > 0 {
						fmt.Printf("%s run %d: simulated counts differ from run 0: %v\n", name, i, d)
						status = 1
					}
				}
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d step %d\n", name, len(values["run_s"]), seed, seed+uint64(runs-1)*seedStep, seedStep)
		fmt.Printf("  %-22s %12s %12s %12s %9s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "maxdev", "bound")
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			q1, med, q3 := quartiles(values[k])
			var maxDev float64
			for _, v := range values[k] {
				maxDev = math.Max(maxDev, math.Abs(v-med))
			}
			bound := "-"
			if b, ok := bounds[k]; ok {
				bound = fmt.Sprintf("%.3f", b)
			}
			fmt.Printf("  %-22s %12.6g %12.6g %12.6g %9.4f %9.4f %7s %s\n", k, q1, med, q3,
				safeDiv(q3-q1, med), safeDiv(maxDev, med), bound, units[k])
		}
	}
	return status
}

// readBounds returns the end-to-end bounds a BENCHMARK.json sets, or none.
func readBounds(path string) map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
