package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

// ParseINI reads a Quartz configuration in the nvmemul.ini format the real
// project ships. Supported schema (all sections and keys optional; unknown
// keys are rejected so typos fail loudly):
//
//	[latency]
//	enable = true      ; false leaves read latency unemulated
//	read   = 500       ; target NVM read latency, ns
//	write  = 700       ; pflush write delay, ns (0 = read - DRAM gap)
//	nvm_write = 0      ; asymmetric store-model NVM write latency, ns (0 = off)
//	dram   = 0         ; DRAM baseline override, ns (0 = machine-calibrated)
//
//	[bandwidth]
//	enable = true
//	read   = 5000      ; NVM read bandwidth, MB/s
//	write  = 2000      ; NVM write bandwidth, MB/s (0 = same as read)
//	model  = 5000      ; legacy symmetric knob, MB/s
//
//	[epochs]
//	min = 0.1          ; minimum epoch, ms
//	max = 10           ; maximum epoch, ms
//	monitor_interval = 5 ; monitor wake-up, ms
//
//	[model]
//	type   = stall     ; stall (Eq.2) | simple (Eq.1)
//	pmc    = rdpmc     ; rdpmc | papi
//	inject = true      ; false = switched-off delay injection (§3.2)
//	amortize = true    ; false disables overhead carry-over
//
//	[topology]
//	two_memory = false ; DRAM+NVM virtual topology (§3.3)
//
//	[overhead]
//	init_cycles        = 5500000000 ; library initialization cost (§3.2)
//	register_cycles    = 300000     ; per-thread registration cost (§3.2)
//	epoch_logic_cycles = 2000       ; epoch cost beyond counter reads (§3.2)
//	spin_poll_cycles   = 20         ; rdtscp polling granularity of the spin loop
//
// Comments start with ';' or '#'. Booleans accept true/false/1/0/yes/no.
// See doc/config.md for the full key-by-key reference against core.Config.
func ParseINI(r io.Reader) (Config, error) {
	var cfg Config
	latencyEnabled := true
	bandwidthEnabled := true
	var latRead, latWrite, latNVMWrite, latDRAM sim.Time
	var bwReadMB, bwWriteMB float64

	section := ""
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			section = strings.ToLower(strings.TrimSpace(line[1 : len(line)-1]))
			switch section {
			case "latency", "bandwidth", "epochs", "model", "topology", "overhead", "general":
			default:
				return Config{}, fmt.Errorf("core: ini line %d: unknown section %q", lineNo, section)
			}
			continue
		}
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return Config{}, fmt.Errorf("core: ini line %d: expected key = value, got %q", lineNo, line)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		value = strings.TrimSpace(value)

		fail := func(err error) (Config, error) {
			return Config{}, fmt.Errorf("core: ini line %d: key %q: %w", lineNo, key, err)
		}
		switch section {
		case "latency":
			switch key {
			case "enable":
				b, err := parseBool(value)
				if err != nil {
					return fail(err)
				}
				latencyEnabled = b
			case "read":
				v, err := parseTime(value, sim.Nanosecond)
				if err != nil {
					return fail(err)
				}
				latRead = v
			case "write":
				v, err := parseTime(value, sim.Nanosecond)
				if err != nil {
					return fail(err)
				}
				latWrite = v
			case "nvm_write":
				v, err := parseTime(value, sim.Nanosecond)
				if err != nil {
					return fail(err)
				}
				latNVMWrite = v
			case "dram":
				v, err := parseTime(value, sim.Nanosecond)
				if err != nil {
					return fail(err)
				}
				latDRAM = v
			default:
				return fail(fmt.Errorf("unknown key"))
			}
		case "bandwidth":
			switch key {
			case "enable":
				b, err := parseBool(value)
				if err != nil {
					return fail(err)
				}
				bandwidthEnabled = b
			case "read", "model":
				v, err := parseFinite(value)
				if err != nil {
					return fail(err)
				}
				bwReadMB = v
			case "write":
				v, err := parseFinite(value)
				if err != nil {
					return fail(err)
				}
				bwWriteMB = v
			default:
				return fail(fmt.Errorf("unknown key"))
			}
		case "epochs":
			d, err := parseTime(value, sim.Millisecond)
			if err != nil {
				return fail(err)
			}
			switch key {
			case "min":
				cfg.MinEpoch = d
			case "max":
				cfg.MaxEpoch = d
			case "monitor_interval":
				cfg.MonitorInterval = d
			default:
				return fail(fmt.Errorf("unknown key"))
			}
		case "model":
			switch key {
			case "type":
				switch strings.ToLower(value) {
				case "stall":
					cfg.Model = ModelStall
				case "simple":
					cfg.Model = ModelSimple
				default:
					return fail(fmt.Errorf("unknown model %q", value))
				}
			case "pmc":
				switch strings.ToLower(value) {
				case "rdpmc":
					cfg.CounterMode = perf.RDPMC
				case "papi":
					cfg.CounterMode = perf.PAPI
				default:
					return fail(fmt.Errorf("unknown pmc mode %q", value))
				}
			case "inject":
				b, err := parseBool(value)
				if err != nil {
					return fail(err)
				}
				cfg.InjectionOff = !b
			case "amortize":
				b, err := parseBool(value)
				if err != nil {
					return fail(err)
				}
				cfg.DisableAmortization = !b
			default:
				return fail(fmt.Errorf("unknown key"))
			}
		case "topology":
			switch key {
			case "two_memory":
				b, err := parseBool(value)
				if err != nil {
					return fail(err)
				}
				cfg.TwoMemory = b
			default:
				return fail(fmt.Errorf("unknown key"))
			}
		case "overhead":
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return fail(err)
			}
			if v < 0 {
				return fail(fmt.Errorf("negative cycle count %d", v))
			}
			switch key {
			case "init_cycles":
				cfg.InitCycles = v
			case "register_cycles":
				cfg.RegisterCycles = v
			case "epoch_logic_cycles":
				cfg.EpochLogicCycles = v
			case "spin_poll_cycles":
				cfg.SpinPollCycles = v
			default:
				return fail(fmt.Errorf("unknown key"))
			}
		case "general":
			// Accepted for compatibility; no knobs yet.
		default:
			return Config{}, fmt.Errorf("core: ini line %d: key %q outside any section", lineNo, key)
		}
	}
	if err := scanner.Err(); err != nil {
		return Config{}, fmt.Errorf("core: reading ini: %w", err)
	}

	if latencyEnabled {
		cfg.NVMLatency = latRead
		cfg.WriteLatency = latWrite
		cfg.NVMWriteLatency = latNVMWrite
	}
	cfg.DRAMLatency = latDRAM
	if bandwidthEnabled {
		cfg.NVMBandwidth = bwReadMB * 1e6
		cfg.NVMWriteBandwidth = bwWriteMB * 1e6
	}
	return cfg, nil
}

// LoadINIFile reads a configuration file via ParseINI.
func LoadINIFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("core: opening config: %w", err)
	}
	defer func() { _ = f.Close() }()
	return ParseINI(f)
}

// parseFinite parses a number, rejecting NaN and the infinities, which no
// knob gives a meaning.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// parseTime parses a number of units as a sim.Time, rejecting values the
// conversion cannot represent (its result would be undefined).
func parseTime(s string, unit sim.Time) (sim.Time, error) {
	v, err := parseFinite(s)
	if err != nil {
		return 0, err
	}
	f := v * float64(unit)
	if f >= math.MaxInt64 || f <= math.MinInt64 {
		return 0, fmt.Errorf("%q out of range", s)
	}
	return sim.Time(f), nil
}

func parseBool(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "true", "1", "yes", "on":
		return true, nil
	case "false", "0", "no", "off":
		return false, nil
	default:
		return false, fmt.Errorf("invalid boolean %q", s)
	}
}
