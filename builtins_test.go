package splay

// The built-in table is the single definition of the five built-in
// apps: these tests pin that the catalog, the standalone daemon
// registry and the Scenario registry all see the same apps, that every
// schema key reaches its factory's params struct, that documented
// defaults are the applied ones, and that report: true streams from a
// daemon-hosted instance.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/config"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// builtinParams maps each built-in to the params struct its factory
// decodes into.
var builtinParams = map[string]any{
	"chord":      &chordParams{},
	"pastry":     &pastryParams{},
	"cyclon":     &cyclonParams{},
	"epidemic":   &epidemicParams{},
	"bittorrent": &bittorrentParams{},
}

// schemaDocument sets every parameter of a schema to a valid wire value.
func schemaDocument(a config.AppSchema) []byte {
	doc := make(map[string]any, len(a.Params))
	for _, p := range a.Params {
		switch p.Kind {
		case config.KindBool:
			doc[p.Name] = true
		case config.KindString:
			doc[p.Name] = "x"
		default:
			doc[p.Name] = int64(p.Max)
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return data
}

// jsonKeys lists the wire keys of a params struct.
func jsonKeys(v any) []string {
	t := reflect.TypeOf(v).Elem()
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i] = strings.Split(t.Field(i).Tag.Get("json"), ",")[0]
	}
	sort.Strings(keys)
	return keys
}

func TestBuiltinsOneTable(t *testing.T) {
	t.Parallel()
	catalog := BuiltinCatalog().Names()
	daemon := DaemonRegistry(Addr{}, "").Names()
	scReg, err := Scenario{}.buildRegistry(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	scenario := scReg.Names()
	if fmt.Sprint(catalog) != fmt.Sprint(daemon) || fmt.Sprint(catalog) != fmt.Sprint(scenario) {
		t.Fatalf("app sets differ: catalog %v, splayd registry %v, scenario registry %v", catalog, daemon, scenario)
	}
	if len(builtinParams) != len(catalog) {
		t.Fatalf("builtinParams covers %d apps, catalog has %d", len(builtinParams), len(catalog))
	}
	for _, schema := range BuiltinCatalog().Apps() {
		name := schema.Name
		// A spec naming the built-in without an implementation resolves.
		reg, err := Scenario{Apps: []AppSpec{{Name: name}}}.buildRegistry(nil, nil)
		if err != nil {
			t.Fatalf("%s: scenario does not resolve it by name: %v", name, err)
		}
		if _, err := reg.New(name, nil); err != nil {
			t.Errorf("%s: scenario registry: %v", name, err)
		}
		p, ok := builtinParams[name]
		if !ok {
			t.Fatalf("%s: no params struct listed", name)
		}
		doc := schemaDocument(schema)
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(p); err != nil {
			t.Errorf("%s: document %s does not decode into %T: %v", name, doc, p, err)
		}
		// Nor may the struct read keys the schema never admits.
		var keys []string
		for _, param := range schema.Params {
			keys = append(keys, param.Name)
		}
		sort.Strings(keys)
		if got := jsonKeys(p); fmt.Sprint(got) != fmt.Sprint(keys) {
			t.Errorf("%s: %T reads %v, schema declares %v", name, p, got, keys)
		}
		if _, err := builtinFactory(name)(doc); err != nil {
			t.Errorf("%s: factory rejects %s: %v", name, doc, err)
		}
	}
}

// TestBuiltinDefaultsApplied pins every documented schema default to
// the value the factory actually applies when the key is absent.
func TestBuiltinDefaultsApplied(t *testing.T) {
	t.Parallel()
	applied := map[string]any{
		"chord.bits":             chordParams{}.config().Bits,
		"chord.fault_tolerant":   chordParams{}.config().FaultTolerant,
		"chord.lookups_per_min":  chordParams{}.LookupsPerMin,
		"chord.report":           chordParams{}.Report,
		"pastry.lookups_per_min": pastryParams{}.LookupsPerMin,
		"cyclon.view_size":       cyclonParams{}.config().ViewSize,
		"cyclon.shuffle_len":     cyclonParams{}.config().ShuffleLen,
		"cyclon.shuffle_every":   cyclonParams{}.config().ShuffleEvery,
		"cyclon.report":          cyclonParams{}.Report,
		"epidemic.fanout":        epidemicParams{}.config().Fanout,
		"epidemic.originate":     epidemicParams{}.Originate,
		"bittorrent.size":        bittorrentParams{}.torrent("").Size,
		"bittorrent.piece_size":  bittorrentParams{}.torrent("").PieceSize,
	}
	for _, b := range builtins {
		for _, p := range b.schema.Params {
			if p.Default == nil {
				continue
			}
			key := b.schema.Name + "." + p.Name
			got, ok := applied[key]
			if !ok {
				t.Errorf("%s: default %v has no applied value listed", key, p.Default)
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(p.Default) {
				t.Errorf("%s: schema default %v, factory applies %v", key, p.Default, got)
			}
		}
	}
}

// TestBuiltinCatalogListing pins what "splayctl catalog" prints for the
// built-ins' bounded parameters.
func TestBuiltinCatalogListing(t *testing.T) {
	t.Parallel()
	c := BuiltinCatalog()
	if got := fmt.Sprint(c.Names()); got != "[bittorrent chord cyclon epidemic pastry]" {
		t.Errorf("names = %s", got)
	}
	param := func(app, name string) CatalogParam {
		schema, ok := c.Lookup(app)
		if !ok {
			t.Fatalf("no %s schema", app)
		}
		for _, p := range schema.Params {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("no %s.%s param", app, name)
		return CatalogParam{}
	}
	bits := param("chord", "bits")
	if bits.Kind != config.KindInt || bits.FormatBounds() != "1..52" || bits.FormatDefault() != "24" {
		t.Errorf("chord.bits = %v %s default %s", bits.Kind, bits.FormatBounds(), bits.FormatDefault())
	}
	se := param("cyclon", "shuffle_every")
	if se.FormatBounds() != "100ms..10m0s" || se.FormatDefault() != "5s" {
		t.Errorf("cyclon.shuffle_every = %s default %s", se.FormatBounds(), se.FormatDefault())
	}
	// Every call is a fresh catalog a platform may extend.
	if err := c.Register(AppSchema{Name: "extra"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := BuiltinCatalog().Lookup("extra"); ok {
		t.Error("BuiltinCatalog shares state across calls")
	}
}

// TestDaemonRegistryReport runs two report: true chord instances from
// the splayd registry. With a collector they stream chord.* and rpc.*
// instruments to the aggregator; without one each instance fails with
// ErrNoCollector instead of dropping the request.
func TestDaemonRegistryReport(t *testing.T) {
	t.Parallel()
	run := func(collector bool) (*metrics.Aggregator, []*core.Instance) {
		k := sim.NewKernel()
		nw := simnet.New(k, simnet.Symmetric{RTT: 10 * time.Millisecond}, 3, 1)
		rt := core.NewSimRuntime(k, 1)
		var agg *metrics.Aggregator
		var aggAddr Addr
		if collector {
			k.Go(func() {
				var err error
				if agg, err = metrics.NewAggregator(nw.Node(0), 7000, k.Go); err != nil {
					t.Errorf("aggregator: %v", err)
					return
				}
				agg.Authorize("k")
			})
			k.RunFor(time.Second)
			aggAddr = agg.Addr()
		}
		reg := DaemonRegistry(aggAddr, "k")
		nodes := []transport.Addr{{Host: simnet.HostName(1), Port: 9000}, {Host: simnet.HostName(2), Port: 9000}}
		var insts []*core.Instance
		for i, me := range nodes {
			app, err := reg.New("chord", []byte(`{"bits":16,"lookups_per_min":60,"report":true}`))
			if err != nil {
				t.Fatal(err)
			}
			job := core.JobInfo{JobID: "j", Me: me, Nodes: nodes, Position: i + 1}
			insts = append(insts, core.StartInstance(rt, nw.Node(i+1), job, nil, app))
		}
		k.RunFor(time.Minute)
		for _, inst := range insts {
			inst.Kill()
		}
		k.RunFor(10 * time.Second)
		return agg, insts
	}

	agg, insts := run(true)
	for i, inst := range insts {
		if done, err := inst.Done(); done && err != nil {
			t.Errorf("instance %d with a collector failed: %v", i, err)
		}
	}
	streamed := map[string]bool{}
	for _, s := range agg.Snapshot() {
		if s.Total > 0 || s.Count > 0 {
			streamed[strings.SplitN(s.Name, ".", 2)[0]] = true
		}
	}
	if !streamed["chord"] || !streamed["rpc"] {
		t.Errorf("aggregator saw %v, want chord.* and rpc.* series", agg.Snapshot())
	}

	_, insts = run(false)
	for i, inst := range insts {
		if done, err := inst.Done(); !done || !errors.Is(err, ErrNoCollector) {
			t.Errorf("instance %d without a collector: done=%v err=%v, want ErrNoCollector", i, done, err)
		}
	}
}
