package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/splaykit/splay/experiments"
)

// lookup-sharded: the lookup100k experiment at a fixed scale on the
// sharded kernel, driven through experiments.Run.
const (
	lookupScale = 0.05
	// lookupSetupScale clamps every ring to the experiment's 96-node
	// floor: the fixed per-call cost (kernel partitions, ring build,
	// intern tables) without the scaled work.
	lookupSetupScale = 1e-6
)

// lookupRings are lookup100k's full-scale ring sizes.
var lookupRings = []int{25000, 50000, 100000}

// ringSize is the experiment's node count for a full-scale size.
func ringSize(full int, scale float64) int {
	n := int(float64(full) * scale)
	if n < 96 {
		n = 96
	}
	return n
}

func lookupRound(seed int64, m *meter) (*round, error) {
	r := newRound()
	workers := runtime.NumCPU()

	t0 := time.Now()
	res, err := experiments.Run("lookup100k", experiments.Options{Scale: lookupSetupScale, Seed: seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	r.Setup = time.Since(t0)
	// Rings at the floor are too small for the hop bound; they must
	// still lose no lookup.
	if err := checkLookup(res, lookupSetupScale, false); err != nil {
		return nil, fmt.Errorf("set-up pass: %w", err)
	}

	lookups, largest := 0, 0
	for _, full := range lookupRings {
		n := ringSize(full, lookupScale)
		lookups += n // one lookup per node
		largest = max(largest, n)
	}
	m.begin(r)
	res, err = experiments.Run("lookup100k", experiments.Options{Scale: lookupScale, Seed: seed, Workers: workers})
	m.end(lookups)
	if err != nil {
		return nil, err
	}
	if err := checkLookup(res, lookupScale, true); err != nil {
		return nil, err
	}
	r.Counts["sim.idle_share"] = 1 - r.CPU.Seconds()/(r.Wall.Seconds()*float64(workers))
	r.Counts["bytes_per_instance"] = float64(r.PeakHeap) / float64(largest)
	return r, nil
}

// checkLookup fails a run whose rings lost a lookup or, with hopBound,
// route worse than Chord's ½·log₂N mean-hop bound.
func checkLookup(res *experiments.Result, scale float64, hopBound bool) error {
	for _, full := range lookupRings {
		n := ringSize(full, scale)
		fails, ok := res.Metrics[fmt.Sprintf("fails_%d", full)]
		if !ok {
			return fmt.Errorf("lookup100k reported no fails_%d", full)
		}
		if fails != 0 {
			return fmt.Errorf("%d-node ring: %g failed lookups", n, fails)
		}
		hops := res.Metrics[fmt.Sprintf("mean_hops_%d", full)]
		if bound := 0.5 * math.Log2(float64(n)); hopBound && (hops <= 0 || hops > bound) {
			return fmt.Errorf("%d-node ring: mean hops %.3f outside (0, %.3f]", n, hops, bound)
		}
	}
	return nil
}
