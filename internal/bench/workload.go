package bench

import (
	"fmt"
	"time"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/soak"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// Workload is one fixed-size simulation the benchmark times. Every random
// choice of the simulation derives from the seed passed to Config, so one
// seed always builds the same inputs.
type Workload struct {
	Name string
	// Why is the one-line reason the workload is in the benchmark.
	Why string
	// Config builds the network configuration for a seed. It returns a
	// fresh value each call: tracers and metric registries are single-use.
	Config func(seed uint64) (network.Config, error)
	// Nominal is the wall time of one repetition (child process, three
	// builds and the run) measured on a 2-core 2.1 GHz x86-64 host. It sizes
	// a -seconds run and bounds the first repetition's timeout.
	Nominal time.Duration
	// MinCPUs is the core count below which the workload is refused: a
	// sharded run on fewer cores measures scheduler contention, not the
	// simulator.
	MinCPUs int
	// Twin, when set, is the same simulation without the observers, run
	// beside this workload in the traced mode to price the observation.
	Twin string
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{
		Name:    "clos16-sat",
		Why:     "16-host Clos at full load: crossbar contention, take-overs and a growing NIC backlog load sim, switchsim, pqueue and the GC",
		Config:  closSat,
		Nominal: 3300 * time.Millisecond,
		MinCPUs: 1,
	},
	{
		Name: "clos16-light",
		Why:  "same fabric at load 0.3: short queues, so fixed per-event cost dominates; the bypass for backlog and GC changes",
		Config: func(seed uint64) (network.Config, error) {
			cfg := closBase(seed)
			cfg.Load = 0.3
			cfg.Measure = 40 * units.Millisecond
			return cfg, nil
		},
		Nominal: 2200 * time.Millisecond,
		MinCPUs: 1,
	},
	{
		Name:    "clos16-observed",
		Why:     "clos16-sat plus metrics registry, 2% lifecycle tracer, order-error oracle and 100us probes: the only run where observation works",
		Config:  closObserved,
		Nominal: 4100 * time.Millisecond,
		MinCPUs: 1,
		Twin:    "clos16-sat",
	},
	{
		Name: "churn-faults",
		Why:  "soak epoch at load 0.8: session churn, switch outages, flaps, derates, BER and retransmission exercise hostif and link off the static path",
		Config: func(seed uint64) (network.Config, error) {
			return soak.EpochConfig(soak.Options{
				Seed: seed, WarmUp: 2 * units.Millisecond, Measure: 20 * units.Millisecond,
			}, 0), nil
		},
		Nominal: 3300 * time.Millisecond,
		MinCPUs: 1,
	},
	{
		Name: "paper128-sharded",
		Why:  "the paper's 128-host MIN at full load on 2 shards: largest event heap and set-up, and the only run where parsim works",
		Config: func(seed uint64) (network.Config, error) {
			cfg := network.DefaultConfig()
			cfg.Arch = arch.Advanced2VC
			cfg.Load = 1.0
			cfg.WarmUp = units.Millisecond
			cfg.Measure = 2 * units.Millisecond
			cfg.Seed = seed
			cfg.Shards = 2
			return cfg, nil
		},
		Nominal: 4500 * time.Millisecond,
		MinCPUs: 2,
	},
}

// closBase is the 16-host folded Clos under the Advanced 2-VC
// architecture at full load, 2 ms warm-up + 20 ms measured.
func closBase(seed uint64) network.Config {
	cfg := network.SmallConfig()
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 1.0
	cfg.WarmUp = 2 * units.Millisecond
	cfg.Measure = 20 * units.Millisecond
	cfg.Seed = seed
	return cfg
}

func closSat(seed uint64) (network.Config, error) { return closBase(seed), nil }

func closObserved(seed uint64) (network.Config, error) {
	cfg := closBase(seed)
	tr, err := trace.New(trace.Config{SampleRate: 0.02, Seed: seed})
	if err != nil {
		return cfg, err
	}
	cfg.Tracer = tr
	cfg.Metrics = metrics.NewRegistry()
	cfg.TrackOrderErrors = true
	cfg.ProbeInterval = 100 * units.Microsecond
	return cfg, nil
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}
