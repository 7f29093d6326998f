package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

// FuzzParseINI feeds arbitrary text to the ini parser behind LoadINIFile.
// It must never panic; every error must come from the parser, naming the
// package; and a configuration it accepts must be one it can have meant:
// finite bandwidths and no time produced by converting a NaN, an infinity
// or an out-of-range number (amd64 turns each into MinInt64, other targets
// saturate to either end of the range). It must also validate, so no time
// in it is negative. Parsing the same text twice must give the same
// configuration.
func FuzzParseINI(f *testing.F) {
	f.Add(sampleINI)
	f.Add("[latency]\nread = 400\n[epochs]\nmin = 0.05\nmax = 2\n")
	f.Add("[bandwidth]\nenable = no\nmodel = 5000 ; legacy\n")
	f.Add("[overhead]\ninit_cycles = 0\nspin_poll_cycles = 20\n")
	f.Add("[model]\ntype = simple\npmc = papi\ninject = off\n")
	f.Add("# comment only\n\n[general]\nanything = goes\n")
	f.Fuzz(func(t *testing.T, in string) {
		cfg, err := ParseINI(strings.NewReader(in))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("error %q does not name the package", err)
			}
			return
		}
		for name, v := range map[string]float64{
			"NVMBandwidth":      cfg.NVMBandwidth,
			"NVMWriteBandwidth": cfg.NVMWriteBandwidth,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted %q with %s = %v", in, name, v)
			}
		}
		for name, v := range map[string]sim.Time{
			"NVMLatency":      cfg.NVMLatency,
			"WriteLatency":    cfg.WriteLatency,
			"NVMWriteLatency": cfg.NVMWriteLatency,
			"DRAMLatency":     cfg.DRAMLatency,
			"MinEpoch":        cfg.MinEpoch,
			"MaxEpoch":        cfg.MaxEpoch,
			"MonitorInterval": cfg.MonitorInterval,
		} {
			if v == math.MinInt64 || v == math.MaxInt64 {
				t.Fatalf("accepted %q with %s from an unrepresentable number", in, name)
			}
			if v < 0 {
				t.Fatalf("accepted %q with negative %s = %v", in, name, v)
			}
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted %q, which does not validate: %v", in, err)
		}
		again, err := ParseINI(strings.NewReader(in))
		if err != nil || !reflect.DeepEqual(cfg, again) {
			t.Fatalf("second parse of %q differs: %+v, %v", in, again, err)
		}
	})
}
