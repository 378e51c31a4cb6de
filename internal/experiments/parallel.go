package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel execution layer of the reproduction
// harness. A figure regeneration is a grid of completely independent
// simulation runs — one per (load point, replication seed) pair — and
// every run derives all of its randomness from its own seed through
// named sim.NewStream streams. Sharding the runs across a worker pool
// therefore cannot change any run's result: the only requirement for
// worker-count-invariant output is that results are merged in job
// order, which runShards guarantees by writing each job's result into
// its own slot. The determinism tests in parallel_test.go pin this
// property at 1, 4 and NumCPU workers.

// DefaultWorkers returns the worker count used when a configuration
// leaves Workers at zero: one per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// runShards executes jobs 0..n-1 on min(workers, n) goroutines pulling
// from a shared atomic counter. It returns the error of the
// lowest-indexed failing job (so failures are reported identically for
// every worker count); remaining jobs still run to completion.
func runShards(n, workers int, run func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := run(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errIdx   int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr = err
						errIdx = i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunSingleCellSeeds runs the single-cell scenario once per seed,
// sharded across the worker pool (workers <= 0 selects DefaultWorkers),
// and returns the per-seed results in seed order. The output is
// byte-identical for every worker count because each replication's
// randomness derives only from its own seed. The controller in cfg is
// shared across replications and must be safe for concurrent use (the
// FACS System, CompiledController and every baseline are).
func RunSingleCellSeeds(cfg SingleCellConfig, seeds []int64, workers int) ([]SingleCellResult, error) {
	return runSeeds(seeds, workers, func(seed int64) (SingleCellResult, error) {
		c := cfg
		c.Seed = seed
		return RunSingleCell(c)
	})
}

// RunMultiCellSeeds runs the multi-cell scenario once per seed, sharded
// across the worker pool, returning per-seed results in seed order
// (byte-identical for every worker count). cfg.NewController is invoked
// once per replication, so stateful controllers such as SCC get a
// fresh instance each run.
func RunMultiCellSeeds(cfg MultiCellConfig, seeds []int64, workers int) ([]MultiCellResult, error) {
	return runSeeds(seeds, workers, func(seed int64) (MultiCellResult, error) {
		c := cfg
		c.Seed = seed
		return RunMultiCell(c)
	})
}

// runSeeds runs fn once per seed on the worker pool and returns the
// results in seed order.
func runSeeds[T any](seeds []int64, workers int, fn func(seed int64) (T, error)) ([]T, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: need at least one seed")
	}
	out := make([]T, len(seeds))
	err := runShards(len(seeds), workers, func(i int) error {
		res, err := fn(seeds[i])
		if err != nil {
			return fmt.Errorf("experiments: seed %d: %w", seeds[i], err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// replicate runs fn for every (load point, seed) pair of the figure
// configuration on the worker pool and returns the results as
// out[pointIdx][seedIdx]. Merging is by index, so the grid is
// identical for every worker count.
func replicate[T any](fc FigureConfig, fn func(n int, seed int64) (T, error)) ([][]T, error) {
	points, seeds := fc.LoadPoints, fc.Seeds
	out := make([][]T, len(points))
	for i := range out {
		out[i] = make([]T, len(seeds))
	}
	err := runShards(len(points)*len(seeds), fc.Workers, func(i int) error {
		pi, si := i/len(seeds), i%len(seeds)
		res, err := fn(points[pi], seeds[si])
		if err != nil {
			return fmt.Errorf("experiments: N=%d seed=%d: %w", points[pi], seeds[si], err)
		}
		out[pi][si] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
