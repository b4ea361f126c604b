// Package harness runs batches of simulations for the experiment suite:
// load sweeps across switch architectures, executed concurrently on a
// bounded worker pool. Each simulation is single-threaded and owns all its
// state, so runs parallelise perfectly; results come back in deterministic
// order regardless of scheduling.
package harness

import (
	"runtime"
	"sync"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/network"
	"deadlineqos/internal/stats"
)

// Point is the outcome of one (architecture, load) simulation.
type Point struct {
	Arch arch.Arch
	Load float64
	Res  *network.Results
	Err  error
}

// Sweep runs base for every architecture x load combination. The same seed
// (and therefore the same offered traffic) is used across architectures at
// equal load, which is what makes the paper's cross-architecture
// comparisons meaningful. parallelism <= 0 selects GOMAXPROCS workers.
func Sweep(base network.Config, archs []arch.Arch, loads []float64, parallelism int) []Point {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	points := make([]Point, len(archs)*len(loads))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				a := archs[idx/len(loads)]
				load := loads[idx%len(loads)]
				cfg := base
				cfg.Arch = a
				cfg.Load = load
				res, err := network.Run(cfg)
				points[idx] = Point{Arch: a, Load: load, Res: res, Err: err}
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return points
}

// ByArch groups a sweep's points per architecture, preserving load order.
func ByArch(points []Point) map[arch.Arch][]Point {
	m := make(map[arch.Arch][]Point)
	for _, p := range points {
		m[p.Arch] = append(m[p.Arch], p)
	}
	return m
}

// FirstErr returns the first error in a sweep, if any.
func FirstErr(points []Point) error {
	for _, p := range points {
		if p.Err != nil {
			return p.Err
		}
	}
	return nil
}

// ReplicatedPoint aggregates several seeds of one (architecture, load)
// cell, for experiments that report confidence intervals rather than
// single-run values.
type ReplicatedPoint struct {
	Arch arch.Arch
	Load float64
	// Runs holds one result per seed, in seed order. Failed runs are nil;
	// Err records the first failure.
	Runs []*network.Results
	Err  error
}

// Replicate runs base for every (architecture, load, seed) combination and
// groups results per cell. Seeds vary the offered traffic; at a fixed seed
// the traffic is identical across architectures, preserving the paired
// comparison property of Sweep.
func Replicate(base network.Config, archs []arch.Arch, loads []float64, seeds []uint64, parallelism int) []ReplicatedPoint {
	if len(seeds) == 0 {
		seeds = []uint64{base.Seed}
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	cells := len(archs) * len(loads)
	points := make([]ReplicatedPoint, cells)
	for i := range points {
		points[i] = ReplicatedPoint{
			Arch: archs[i/len(loads)],
			Load: loads[i%len(loads)],
			Runs: make([]*network.Results, len(seeds)),
		}
	}
	type job struct{ cell, seedIdx int }
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p := &points[j.cell]
				cfg := base
				cfg.Arch = p.Arch
				cfg.Load = p.Load
				cfg.Seed = seeds[j.seedIdx]
				res, err := network.Run(cfg)
				mu.Lock()
				p.Runs[j.seedIdx] = res
				if err != nil && p.Err == nil {
					p.Err = err
				}
				mu.Unlock()
			}
		}()
	}
	for c := 0; c < cells; c++ {
		for s := range seeds {
			jobs <- job{c, s}
		}
	}
	close(jobs)
	wg.Wait()
	return points
}

// MeanStd evaluates metric on every successful run of the cell and returns
// the sample mean and standard deviation (std is 0 for fewer than 2 runs).
func (p ReplicatedPoint) MeanStd(metric func(*network.Results) float64) (mean, std float64) {
	var s stats.Series
	for _, r := range p.Runs {
		if r != nil {
			s.Add(metric(r))
		}
	}
	return s.Mean(), s.StdDev()
}
