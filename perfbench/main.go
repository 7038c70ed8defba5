// Command perfbench is the repository benchmark: three workloads that
// drive the system only through its public packages (splay and
// experiments), check their outputs, and print end-to-end metrics — or,
// traced, per-layer metrics: a CPU profile folded by module, spans
// around the public calls and counts the public surfaces expose.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload chaos-drill --seed 7 --seconds 20 --trace 0
//
// A run repeats rounds of the workload until --seconds have passed and
// reports medians over them. Each round (set-up, measured phase,
// teardown) runs in a fresh child process, so no round inherits another
// one's heap, goroutines or GC pacing. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics; the lines before it give the rounds and the same figures for
// people, with the machine shape.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark input family. Every round draws its inputs
// from a seed derived from the run's --seed.
type workload struct {
	name  string
	round func(seed int64, m *meter) (*round, error)
	// perDrill counts one drill as the run's operation instead of the
	// measured phase's own operations.
	perDrill bool
}

var workloads = []workload{
	{name: "lookup-sharded", round: lookupRound},
	// One operation is one drill: its partition-induced lookup failures
	// are the drill's expected output (failed_share), not failures.
	{name: "chaos-drill", round: drillRound, perDrill: true},
	{name: "hosted-submit", round: hostedRound},
}

const (
	// minRounds keeps a short run's medians meaningful.
	minRounds = 3
	// runLimit bounds a whole run, rounds and children included.
	runLimit = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	child := flag.Bool("round", false, "run one round and print its JSON report (internal)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *child {
		if err := childRound(w, *seed, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d nproc=%d go=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.Version())
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	res, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		res = &result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	}
	printHuman(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childRound runs one round in this process and prints its report. A
// traced round runs under the CPU profiler and reports the profile
// folded by layer.
func childRound(w workload, seed int64, traced bool) error {
	m := &meter{heap: startHeapPeak()}
	defer m.heap.close()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("profiler: %w", err)
		}
	}
	before := runtime.NumGoroutine()
	r, err := w.round(seed, m)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	r.Leaked = max(0, settledGoroutines(before)-before)
	if traced {
		if r.Fold, err = foldProfile(prof.Bytes()); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// settledGoroutines gives asynchronous teardown a moment to finish and
// returns the goroutine count then.
func settledGoroutines(target int) int {
	deadline := time.Now().Add(200 * time.Millisecond)
	n := runtime.NumGoroutine()
	for n > target && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// roundSeed derives round i's input seed from the run's seed.
func roundSeed(seed int64, i int) int64 { return seed*7919 + int64(i) }

// rounds runs rounds of w, each in a child process, until budget has
// passed and at least minRounds ran, numbering them from first.
func rounds(ctx context.Context, w workload, seed int64, first int, budget time.Duration, traced bool) ([]*round, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	var rs []*round
	deadline := time.Now().Add(budget)
	for i := first; len(rs) < minRounds || time.Now().Before(deadline); i++ {
		s := roundSeed(seed, i)
		cmd := exec.CommandContext(ctx, exe, "--round", "--workload", w.name,
			"--seed", strconv.FormatInt(s, 10), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("round %d (seed %d): %w", i, s, err)
		}
		r := newRound()
		if err := json.Unmarshal(out, r); err != nil {
			return nil, fmt.Errorf("round %d (seed %d) report: %w", i, s, err)
		}
		fmt.Printf("# round %d seed %d: setup %.4fs wall %.4fs cpu %.3fs ops %d peak heap %.1fMB leaked goroutines %d steal %.1f%%\n",
			i, s, r.Setup.Seconds(), r.Wall.Seconds(), r.CPU.Seconds(), r.Ops, float64(r.PeakHeap)/1e6, r.Leaked,
			100*r.Steal)
		rs = append(rs, r)
	}
	return rs, nil
}

// run measures w: untraced, the whole budget reports end-to-end metrics;
// traced, half the budget runs untraced rounds and half traced ones, and
// the run reports per-layer metrics.
func run(ctx context.Context, w workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	if !traced {
		rs, err := rounds(ctx, w, seed, 0, budget, false)
		if err != nil {
			return nil, err
		}
		return &result{Correct: true, Attempted: w.attempted(rs), Metrics: endToEnd(rs)}, nil
	}
	plain, err := rounds(ctx, w, seed, 0, budget/2, false)
	if err != nil {
		return nil, err
	}
	tr, err := rounds(ctx, w, seed, len(plain), budget/2, true)
	if err != nil {
		return nil, err
	}
	met := perLayer(append(slices.Clone(plain), tr...), tr)
	untraced, tracedWall := medianOf(plain, wallS), medianOf(tr, wallS)
	met["trace.overhead_share"] = metricValue{(tracedWall - untraced) / untraced, "ratio"}
	return &result{Correct: true, Attempted: w.attempted(plain) + w.attempted(tr), Metrics: met}, nil
}

// attempted counts a run's operations as the JSON result reports them.
func (w workload) attempted(rs []*round) int {
	if w.perDrill {
		return len(rs)
	}
	n := 0
	for _, r := range rs {
		n += r.Ops
	}
	return n
}

func wallS(r *round) float64 { return r.net(r.Wall) }

func medianOf(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd reduces a run's rounds to the end-to-end metrics: medians
// over rounds.
func endToEnd(rs []*round) map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range endToEndMetrics {
		m[d.name] = metricValue{medianOf(rs, d.value), d.unit}
	}
	return m
}

// perLayer reduces a traced run to the per-layer metrics: counts and
// spans over every round, the CPU fold over the traced ones. A metric a
// workload does not exercise reads 0.
func perLayer(rs, traced []*round) map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range perLayerMetrics {
		m[d.name] = metricValue{0, d.unit}
	}
	f := newFold()
	for _, r := range traced {
		if r.Fold != nil {
			f.add(r.Fold)
		}
	}
	for _, l := range foldLayers {
		m[l+".cpu_self"] = metricValue{f.share(f.SelfNS[l]), "%"}
		m[l+".cpu_cum"] = metricValue{f.share(f.CumNS[l]), "%"}
	}
	m[otherLayer+".cpu_self"] = metricValue{f.share(f.SelfNS[otherLayer]), "%"}
	m["cpu.sampled_s"] = metricValue{float64(f.TotalNS) / 1e9, "s"}
	m["allocs_per_op"] = metricValue{medianOf(rs, func(r *round) float64 { return float64(r.Mallocs) / float64(r.Ops) }), "count"}
	m["alloc_bytes_per_op"] = metricValue{medianOf(rs, func(r *round) float64 { return float64(r.AllocBytes) / float64(r.Ops) }), "B"}
	m["leaked_goroutines"] = metricValue{medianOf(rs, func(r *round) float64 { return float64(r.Leaked) }), "count"}
	m["machine.steal_share"] = metricValue{medianOf(rs, func(r *round) float64 { return r.Steal }), "ratio"}

	// Counts: the median over rounds (a drill's counts are fixed by its
	// round seed). Spans: the median over every sample of every round.
	for _, d := range perLayerMetrics {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.Counts[d.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			m[d.name] = metricValue{median(xs), d.unit}
		}
	}
	spans := map[string][]float64{}
	for _, r := range rs {
		for k, v := range r.Spans {
			spans[k] = append(spans[k], v...)
		}
	}
	for k, xs := range spans {
		if k != opSpan {
			m[k] = metricValue{median(xs), spanUnit(k)}
		}
	}
	// Operation latency: the median and the 99th percentile, the latter
	// only when at least minTail samples lie beyond it.
	if ops := spans[opSpan]; len(ops) > 0 {
		m["op_p50_ms"] = metricValue{percentile(ops, 50), "ms"}
		m["op_samples"] = metricValue{float64(len(ops)), "count"}
		if supported(len(ops), 99) {
			m["op_p99_ms"] = metricValue{percentile(ops, 99), "ms"}
		}
	}
	return m
}

// opSpan holds per-operation latency samples (hosted submit-to-running).
const opSpan = "op_ms"

// spanUnit reads a span's unit from its name suffix.
func spanUnit(name string) string {
	if strings.HasSuffix(name, "_ms") {
		return "ms"
	}
	return "s"
}

// printHuman prints the result's metrics, one per line, before the JSON
// line.
func printHuman(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		v := res.Metrics[k]
		fmt.Printf("%-28s %14.6g %s\n", k, v.Value, v.Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
