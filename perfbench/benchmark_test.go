package main

import (
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/experiments"
)

// benchmarkFile is BENCHMARK.json, the benchmark's declaration.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// The declaration and the code name the same workloads and metrics,
// with the same units and directions.
func TestBenchmarkDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if names := strings.Join(names, ", "); names != workloadNames() {
		t.Errorf("declared workloads %s, code runs %s", names, workloadNames())
	}
	check := func(kind string, decl []declared, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: %d declared, %d defined", kind, len(decl), len(defs))
		}
		for i := range min(len(decl), len(defs)) {
			d, m := decl[i], defs[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s[%d]: declared %s %s %s, defined %s %s %s",
					kind, i, d.Name, d.Unit, d.Better, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	// Every per-layer row the code reports is declared, and the other
	// way round.
	m := perLayer([]*round{{Ops: 1}}, []*round{{Fold: newFold()}})
	m["trace.overhead_share"] = metricValue{}
	reported := slices.Sorted(maps.Keys(m))
	var declaredNames []string
	for _, d := range b.PerLayer {
		declaredNames = append(declaredNames, d.Name)
	}
	slices.Sort(declaredNames)
	if !slices.Equal(reported, declaredNames) {
		t.Errorf("per-layer rows reported %v, declared %v", reported, declaredNames)
	}
}

// The generated drill document compiles, and into the scenario the
// workload means to run.
func TestDrillDocumentLoads(t *testing.T) {
	for _, seed := range []int64{1, 7919, -3} {
		sc, err := splay.LoadScenario(drillDocument(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.Seed != seed || len(sc.Apps) != 1 || sc.Apps[0].Name != "chord" || sc.Apps[0].Nodes != drillNodes {
			t.Errorf("seed %d: scenario %+v", seed, sc)
		}
		if !sc.Collect.Metrics || len(sc.Faults.Events) != 1 || len(sc.Faults.Rules) != 1 || len(sc.Assert) != 2 {
			t.Errorf("seed %d: collect/faults/assert not compiled: %+v", seed, sc)
		}
		if sc.Duration != drillWindow {
			t.Errorf("seed %d: duration %s, want %s", seed, sc.Duration, drillWindow)
		}
	}
}

// Hosted submissions alternate between document and wire form, and both
// forms name the same job.
func TestHostedSubmissionsAlternate(t *testing.T) {
	subs, err := hostedSubmissions(3, "alpha", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range subs {
		doc := splay.IsConfigDocument(data)
		if want := (int64(i)+3)%2 == 0; doc != want {
			t.Errorf("submission %d: document=%v, want %v", i, doc, want)
		}
		var sc splay.Scenario
		if doc {
			// The platform compiles it against a catalog that knows the
			// fleet's app; the built-in catalog alone must reject it.
			if _, err := splay.CompileConfig(data); err == nil {
				t.Errorf("submission %d compiled without the fleet's app in the catalog", i)
			}
			continue
		}
		if sc, err = splay.UnmarshalScenario(data); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if sc.Apps[0].Name != hostedApp || sc.Apps[0].Nodes != hostedJobNodes || sc.Duration != time.Hour {
			t.Errorf("submission %d: %+v", i, sc)
		}
	}
}

// Invariant 9 at the benchmark's scale: lookup-sharded's outputs do not
// depend on how many threads drive the sharded kernel.
func TestLookupWorkerNeutrality(t *testing.T) {
	if testing.Short() {
		t.Skip("runs lookup100k twice")
	}
	const seed = 42
	one, err := experiments.Run("lookup100k", experiments.Options{Scale: lookupScale, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	workers := max(2, runtime.NumCPU())
	many, err := experiments.Run("lookup100k", experiments.Options{Scale: lookupScale, Seed: seed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Metrics, many.Metrics) {
		t.Errorf("metrics at 1 worker %v\ndiffer at %d workers %v", one.Metrics, workers, many.Metrics)
	}
	if err := checkLookup(many, lookupScale, true); err != nil {
		t.Error(err)
	}
}

// drillCounts are the counts a drill's seed fixes: two runs of one
// document must reproduce them exactly.
var drillCounts = []string{
	"chord.lookups", "chord.failed_lookups", "rpc.calls", "rpc.errors",
	"rpc.timeouts", "metrics.frames", "metrics.bytes", "simnet.bytes",
	"ctl.frames", "ctl.deploy_frames", "faults.firings",
}

// A drill's counts are a function of its seed: two runs of one document
// reproduce them exactly.
func TestDrillCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the drill twice")
	}
	const seed = 5
	var runs [2]*round
	for i := range runs {
		m := &meter{heap: startHeapPeak()}
		r, err := drillRound(seed, m)
		m.heap.close()
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	for _, name := range drillCounts {
		a, ok := runs[0].Counts[name]
		if !ok {
			t.Errorf("%s not counted", name)
			continue
		}
		if b := runs[1].Counts[name]; a != b {
			t.Errorf("%s: %g then %g", name, a, b)
		}
	}
	if runs[0].Ops != runs[1].Ops {
		t.Errorf("lookups: %d then %d", runs[0].Ops, runs[1].Ops)
	}
}

// One hosted round: both tenants' clients complete every cycle, and
// every cycle leaves its four span samples and one latency sample.
func TestHostedRound(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	m := &meter{heap: startHeapPeak()}
	defer m.heap.close()
	r, err := hostedRound(11, m)
	if err != nil {
		t.Fatal(err)
	}
	want := len(hostedTenants) * hostedCycles
	if r.Ops != want {
		t.Errorf("%d cycles completed, want %d", r.Ops, want)
	}
	for _, name := range []string{opSpan, "host.submit_ms", "host.place_ms", "host.kill_ms", "host.release_ms"} {
		if got := len(r.Spans[name]); got != want {
			t.Errorf("%s: %d samples, want %d", name, got, want)
		}
	}
}
