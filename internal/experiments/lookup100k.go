package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/memprof"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/topology"
	"github.com/splaykit/splay/internal/transport"
)

func init() {
	register("lookup100k", lookup100k)
}

// lookup100kParts is the partition count of the sharded kernel. It is part
// of the scenario definition — changing it changes host placement and hence
// the event schedule — while Workers (the thread count) never does.
const lookup100kParts = 8

// runChordPar is runChord over a sharded kernel: hosts land on partitions
// by ID, each partition runs its own sub-kernel, and cross-partition RPCs
// ride the lookahead barriers. Node construction and ID assignment are
// byte-compatible with runChord (same rng, same draw order); the schedule
// itself is a different — but equally deterministic — interleaving, fixed
// by the partition count and independent of the worker count.
func runChordPar(pk *sim.ParKernel, model simnet.LinkModel, n int, cfg chord.Config,
	lookups int, seed int64) (*chordRun, error) {
	run, _, err := runChordParProf(pk, model, n, cfg, lookups, seed, nil)
	return run, err
}

// runChordParProf is runChordPar with an optional footprint accountant:
// when acct is non-nil the network, protocol and RPC layers register
// their byte sources on it, the kernel samples the heap at every
// lookahead barrier, and the returned report measures the live system —
// taken while every node is still reachable. The accountant only reads
// memory statistics, so the schedule (and every golden) is identical
// with or without it.
func runChordParProf(pk *sim.ParKernel, model simnet.LinkModel, n int, cfg chord.Config,
	lookups int, seed int64, acct *memprof.Accountant) (*chordRun, memprof.Report, error) {

	var rep memprof.Report
	nw, err := simnet.NewPartitioned(pk, model, n, seed)
	if err != nil {
		return nil, rep, err
	}
	parts := pk.Parts()
	rts := make([]*core.SimRuntime, parts)
	for p := range rts {
		rts[p] = core.NewSimRuntime(pk.Sub(p), seed+int64(p))
	}
	rng := rand.New(rand.NewSource(seed))

	// Identifiers and addresses are drawn before any node exists — the
	// same rng, the same draw order — so the whole population is known
	// upfront and its intern base can be built once and shared read-only
	// by every partition's routing tables (see chord.Shared).
	seen := make(map[uint64]bool, n)
	addrs := make([]transport.Addr, n)
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		addrs[i] = transport.Addr{Host: simnet.HostName(i), Port: 8000}
		for {
			id := rng.Uint64() & ((1 << cfg.Bits) - 1)
			if !seen[id] {
				seen[id] = true
				ids[i] = id
				break
			}
		}
	}
	base := chord.Population(cfg, addrs, ids)
	shareds := make([]*chord.Shared, parts)
	for p := range shareds {
		shareds[p] = chord.NewShared(base)
	}
	nodes := make([]*chord.Node, 0, n)
	for i := 0; i < n; i++ {
		h := nw.Host(i)
		ctx := core.NewAppContext(rts[h.Part()], nw.Node(i), core.JobInfo{Me: addrs[i], Position: i + 1}, nil)
		c := cfg
		c.ID = &ids[i]
		c.Shared = shareds[h.Part()]
		node, err := chord.New(ctx, c)
		if err != nil {
			return nil, rep, err
		}
		nodes = append(nodes, node)
	}
	startErrs := make([]error, parts)
	for p := 0; p < parts; p++ {
		p := p
		pk.Go(p, func() {
			for i := p; i < n; i += parts {
				if err := nodes[i].Start(); err != nil {
					startErrs[p] = err
					return
				}
			}
		})
	}
	if acct != nil {
		acct.Track("simnet", nw.FootprintBytes)
		acct.Track("chord.ring", func() uint64 {
			b := base.Bytes()
			for _, s := range shareds {
				b += s.Bytes()
			}
			return b
		})
		pk.SetBarrierHook(acct.Observe)
	}
	pk.Run()
	for _, err := range startErrs {
		if err != nil {
			return nil, rep, err
		}
	}
	if err := chord.BuildRing(nodes, chord.BuildOptions{}); err != nil {
		return nil, rep, err
	}

	// Per-partition collectors: each is touched only by its partition's
	// tasks, then merged in partition order so the aggregate is identical
	// under any worker count.
	runs := make([]*chordRun, parts)
	for p := range runs {
		runs[p] = &chordRun{hops: &stats.IntHistogram{}}
	}
	perNode := lookups / n
	if perNode < 1 {
		perNode = 1
	}
	// One key source per partition, reseeded per node: the keys equal
	// those of a fresh rand.NewSource(seed+ID) without allocating one
	// per lookup task. Each task draws all its keys before its first
	// Lookup parks, since the partition's other tasks reseed the source
	// while it waits.
	lrngs := make([]*rand.Rand, parts)
	for p := range lrngs {
		lrngs[p] = rand.New(rand.NewSource(seed))
	}
	for i := range nodes {
		node := nodes[i]
		part := nw.Host(i).Part()
		start := time.Duration(rng.Intn(10000)) * time.Millisecond
		pk.GoAfter(part, start, func() {
			lrng := lrngs[part]
			lrng.Seed(seed + int64(node.Self().ID))
			keys := make([]uint64, perNode)
			for j := range keys {
				keys[j] = lrng.Uint64() & ((1 << cfg.Bits) - 1)
			}
			for _, key := range keys {
				res, err := node.Lookup(key)
				if err != nil {
					runs[part].fails++
					continue
				}
				runs[part].hops.Add(res.Hops)
				runs[part].delays = append(runs[part].delays, res.RTT)
			}
		})
	}
	pk.Run()

	merged := &chordRun{hops: &stats.IntHistogram{}}
	for _, r := range runs {
		merged.hops.Merge(r.hops)
		merged.delays = append(merged.delays, r.delays...)
		merged.fails += r.fails
		r.hops, r.delays = nil, nil
	}
	if acct != nil {
		// Measure while every node, connection and intern table is still
		// reachable; only the per-run result data has been dropped.
		runs = nil
		rep = acct.Report(n)
		runtime.KeepAlive(nodes)
		runtime.KeepAlive(nw)
	}
	return merged, rep, nil
}

// lookup100k pushes Chord another order of magnitude past lookup10k:
// converged rings of 25,000, 50,000 and 100,000 nodes on the ModelNet
// transit-stub model, one lookup per node, on an 8-way sharded kernel
// with conservative lookahead equal to the model's minimum link delay.
// The experiment exists to prove the sharded kernel at populations no
// single event loop should own — and to pin, via the golden suite, that
// its results never depend on how many OS threads drive it.
func lookup100k(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("lookup100k")
	fmt.Fprintf(w, "# lookup100k — Chord at 100k hosts (%d-way sharded kernel)\n", lookup100kParts)
	fmt.Fprintf(w, "%-8s %9s %9s %9s %9s %9s %7s\n",
		"nodes", "p5", "p50", "p90", "mean-hops", "bound", "fails")
	for _, full := range []int{25000, 50000, 100000} {
		n := opt.n(full, 96)
		mn := topology.NewModelNet(topology.DefaultModelNet(n))
		pk := sim.NewParKernel(lookup100kParts, opt.Workers, mn.MinDelay())
		run, err := runChordPar(pk, mn, n, chord.DefaultConfig(), opt.n(full, n), opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("lookup100k %d nodes: %w", n, err)
		}
		sorted := run.delays.Sorted()
		p5, p50, p90 := sorted.Percentile(5), sorted.Percentile(50), sorted.Percentile(90)
		fmt.Fprintf(w, "%-8d %9s %9s %9s %9.2f %9.2f %7d\n",
			n, r(p5), r(p50), r(p90), run.hops.Mean(), 0.5*log2(float64(n)), run.fails)
		res.Metrics[fmt.Sprintf("p50_ms_%d", full)] = float64(p50.Milliseconds())
		res.Metrics[fmt.Sprintf("p90_ms_%d", full)] = float64(p90.Milliseconds())
		res.Metrics[fmt.Sprintf("mean_hops_%d", full)] = run.hops.Mean()
		res.Metrics[fmt.Sprintf("fails_%d", full)] = float64(run.fails)
	}
	return res, nil
}
