package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/splaykit/splay/internal/sim.(*Kernel).Run":                 "sim",
		"github.com/splaykit/splay/internal/protocols/chord.(*Node).Lookup":    "chord",
		"github.com/splaykit/splay/internal/protocols/chord.(*Node).fix.func1": "chord",
		"github.com/splaykit/splay.Scenario.Start":                             "splay",
		"github.com/splaykit/splay.(*Session).RunFor":                          "splay",
		"github.com/splaykit/splay/experiments.Run":                            "experiments",
		"github.com/splaykit/splay/internal/experiments.lookup100k":            "experiments",
		"github.com/splaykit/splay/internal/ring.(*Interner).Ref":              "",
		"encoding/json.Unmarshal":                                              "encoding_json",
		"net/http.(*conn).serve":                                               "net_http",
		"net/http/httptest.(*Server).Start":                                    "net_http",
		"runtime.gcBgMarkWorker":                                               "gc",
		"runtime.scanobject":                                                   "gc",
		"runtime.mallocgc":                                                     "",
		"main.drillRound":                                                      "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protocol-buffer writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|wireVarint)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|wireBytes)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// testProfile encodes a CPU profile whose samples (leaf first) carry
// the given cpu nanoseconds. Location i+1 holds function i+1, except
// location 100, which inlines a json frame into an rpc frame.
func testProfile(t *testing.T, funcs []string, samples [][]uint64, cpu []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	var p pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var q pb
		q.varint(valueTypeType, vt[0])
		q.varint(2, vt[1])
		p.bytes(profSampleType, q.b)
	}
	for i, s := range samples {
		var q pb
		q.packed(sampleLocation, s...)
		q.packed(sampleValue, 1, uint64(cpu[i]))
		p.bytes(profSample, q.b)
	}
	for i, name := range funcs {
		id := uint64(i + 1)
		var loc pb
		loc.varint(locID, id)
		var line pb
		line.varint(lineFunction, id)
		loc.bytes(locLine, line.b)
		p.bytes(profLocation, loc.b)

		var fn pb
		fn.varint(funcID, id)
		fn.varint(funcName, uint64(len(strs)))
		p.bytes(profFunction, fn.b)
		strs = append(strs, name)
	}
	// Location 100: json.Unmarshal inlined into rpc's decode (innermost
	// line first).
	var loc pb
	loc.varint(locID, 100)
	for _, fnID := range []uint64{4, 2} {
		var line pb
		line.varint(lineFunction, fnID)
		loc.bytes(locLine, line.b)
	}
	p.bytes(profLocation, loc.b)
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfile(t *testing.T) {
	funcs := []string{
		"github.com/splaykit/splay/internal/sim.(*Kernel).Run",  // 1
		"github.com/splaykit/splay/internal/rpc.(*Client).Call", // 2
		"runtime.memmove",         // 3
		"encoding/json.Unmarshal", // 4
		"runtime.gcBgMarkWorker",  // 5
		"runtime.mcall",           // 6
		"runtime.scanobject",      // 7
		"runtime.mallocgc",        // 8
		"github.com/splaykit/splay/internal/ring.(*Interner).Ref", // 9
	}
	samples := [][]uint64{
		{3, 2, 1},    // memmove under rpc under sim: rpc self
		{100, 1},     // inlined json in rpc under sim: json self
		{5},          // background GC: gc self
		{7, 8, 2, 1}, // GC assist inside rpc's allocation: gc self
		{6},          // scheduler: no layer
		{9, 1},       // helper package under sim: sim self
	}
	cpu := []int64{40, 20, 10, 10, 15, 5}
	f, err := foldProfile(testProfile(t, funcs, samples, cpu))
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalNS != 100 {
		t.Fatalf("total = %d ns, want 100", f.TotalNS)
	}
	wantSelf := map[string]int64{"rpc": 40, "encoding_json": 20, "gc": 20, otherLayer: 15, "sim": 5}
	wantCum := map[string]int64{"sim": 75, "rpc": 70, "encoding_json": 20, "gc": 20}
	for l, want := range wantSelf {
		if got := f.SelfNS[l]; got != want {
			t.Errorf("%s self = %d, want %d", l, got, want)
		}
	}
	for l, want := range wantCum {
		if got := f.CumNS[l]; got != want {
			t.Errorf("%s cum = %d, want %d", l, got, want)
		}
	}
	if s := f.share(f.CumNS["sim"]); math.Abs(s-75) > 1e-9 {
		t.Errorf("sim cum share = %g%%, want 75%%", s)
	}

	// Folds of several rounds add up.
	g := newFold()
	g.add(f)
	g.add(f)
	if g.TotalNS != 200 || g.SelfNS["rpc"] != 80 || g.CumNS["sim"] != 150 {
		t.Errorf("merged fold = %+v", g)
	}
}

func TestFoldRejectsCorruptProfile(t *testing.T) {
	if _, err := foldProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile folded without error")
	}
}
