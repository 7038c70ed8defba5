package main

// The CPU fold: a runtime/pprof CPU profile of the benchmark process is
// decoded here (the profile.proto wire format, read with the standard
// library alone) and every sample is charged to the module layers its
// stack crosses. A layer's cum share counts samples with the layer
// anywhere on the stack; its self share counts samples whose innermost
// frame that belongs to a named layer is the layer's own — so standard
// library and helper-package frames are charged to the nearest named
// caller, while GC work is charged to gc even inside an allocating
// layer's assist.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// foldLayers are the layers the fold reports, in report order: the
// repository's modules, then runtime buckets.
var foldLayers = []string{
	"sim", "simnet", "rpc", "llenc", "chord", "core", "sandbox", "metrics",
	"faults", "controller", "ctlproto", "daemon", "livenet", "hosting",
	"config", "splay", "experiments",
	"gc", "encoding_json", "net_http",
}

// otherLayer collects samples no named layer claims (scheduler, idle
// syscalls, the benchmark's own frames).
const otherLayer = "other"

const modulePath = "github.com/splaykit/splay"

// gcPrefixes name the runtime functions that are garbage-collector work.
var gcPrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.wbBufFlush", "runtime.(*mspan).sweep",
	"runtime.(*sweepLocked).sweep",
}

// layerOf maps a fully qualified function name to its fold layer, or ""
// when the function belongs to none.
func layerOf(fn string) string {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	path := funcPackage(fn)
	switch {
	case path == "encoding/json":
		return "encoding_json"
	case path == "net/http" || strings.HasPrefix(path, "net/http/"):
		return "net_http"
	case path == modulePath:
		return "splay"
	case strings.HasPrefix(path, modulePath+"/"):
		rest := path[len(modulePath)+1:]
		name := rest[strings.LastIndexByte(rest, '/')+1:]
		for _, l := range foldLayers {
			if l == name {
				return l
			}
		}
	}
	return ""
}

// funcPackage extracts the import path from a qualified function name
// ("a/b/c.(*T).M" → "a/b/c").
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// fold is a profile charged to layers, in sampled CPU nanoseconds.
type fold struct {
	TotalNS int64            `json:"total_ns"`
	SelfNS  map[string]int64 `json:"self_ns"`
	CumNS   map[string]int64 `json:"cum_ns"`
}

func newFold() *fold {
	return &fold{SelfNS: map[string]int64{}, CumNS: map[string]int64{}}
}

// add merges another fold into f.
func (f *fold) add(g *fold) {
	f.TotalNS += g.TotalNS
	for l, ns := range g.SelfNS {
		f.SelfNS[l] += ns
	}
	for l, ns := range g.CumNS {
		f.CumNS[l] += ns
	}
}

// share is ns as a percentage of the profile's sampled CPU.
func (f *fold) share(ns int64) float64 {
	if f.TotalNS == 0 {
		return 0
	}
	return 100 * float64(ns) / float64(f.TotalNS)
}

// foldProfile decodes a (gzipped) CPU profile and folds its samples.
func foldProfile(data []byte) (*fold, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	f := newFold()
	onStack := map[string]bool{}
	for _, s := range p.samples {
		if p.valueIdx >= len(s.values) {
			continue
		}
		v := s.values[p.valueIdx]
		f.TotalNS += v
		self := ""
		clear(onStack)
		for _, id := range s.locs {
			for _, fnID := range p.locFuncs[id] {
				l := layerOf(p.funcNames[fnID])
				if l == "" {
					continue
				}
				if self == "" {
					self = l
				}
				onStack[l] = true
			}
		}
		if self == "" {
			self = otherLayer
		}
		f.SelfNS[self] += v
		for l := range onStack {
			f.CumNS[l] += v
		}
	}
	return f, nil
}

// profile is the subset of profile.proto the fold reads.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]string
	valueIdx  int // index of the cpu/nanoseconds value
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2

	valueTypeType = 1
)

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var sampleTypes []int64 // string indices of each value's type
	funcNameIdx := map[uint64]int64{}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == valueTypeType {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case profSample:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return repeatedVarint(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return repeatedVarint(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for id, idx := range funcNameIdx {
		p.funcNames[id] = str(idx)
	}
	p.valueIdx = len(sampleTypes) - 1 // the last value when none is named cpu
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	return p, nil
}

// Protocol-buffer wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// eachField walks one message's fields, handing varints as v and
// length-delimited payloads as b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case wireFixed64:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case wireFixed32:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint decodes a repeated scalar field in either its packed
// or its one-value-per-field encoding.
func repeatedVarint(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire != wireBytes {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
