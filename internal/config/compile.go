// Package config is the config plane: a human-authorable scenario
// document format (a strict YAML subset with human units — "30s",
// "512kbps", "64KB", "50%") that compiles to the scenario SDK's
// canonical wire JSON, validated against the app catalog so unknown
// applications, unknown keys and out-of-range values fail with typed
// *Errors carrying line and field positions — never silently default.
//
// The compiler emits exactly the bytes Scenario.Marshal would produce
// for the equivalent handwritten-Go scenario (invariant 11, DESIGN.md):
// the wire mirror below must stay field-for-field identical to
// serialize.go's, pinned by the root package's differential tests and
// the golden-pinned configplane experiment. Emitting wire JSON (rather
// than a Scenario value) is what lets both the root SDK and the hosting
// plane's admission path share one compiler without an import cycle.
package config

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/splaykit/splay/internal/churn"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/sandbox"
)

// Options parameterizes compilation.
type Options struct {
	// Catalog validates application references and parameters.
	Catalog *Catalog
	// Open loads a churn trace reference (churn: {trace: path}),
	// resolved by the caller (LoadScenarioFile resolves relative to the
	// document). Nil declines trace references with a typed
	// ErrUnsupported — in-memory and hosted documents cannot reach
	// files.
	Open func(path string) ([]byte, error)
}

// IsDocument reports whether data is a config document rather than
// wire JSON: wire scenarios are JSON objects, so anything whose first
// non-space byte is not '{' is treated as a document.
func IsDocument(data []byte) bool {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return false
		default:
			return true
		}
	}
	return true
}

// Validate compiles the document and discards the output: authoring
// feedback without a scenario.
func Validate(data []byte, opt Options) *Error {
	_, err := Compile(data, opt)
	return err
}

// Compile parses a scenario document and emits the canonical wire JSON
// (the Scenario.Marshal format). The result runs anywhere serialized
// scenarios do: splay.UnmarshalScenario, POST /jobs, splayctl submit.
func Compile(data []byte, opt Options) ([]byte, *Error) {
	doc, perr := parseDoc(data)
	if perr != nil {
		return nil, perr
	}
	c := &compiler{cat: opt.Catalog, open: opt.Open}
	w, perr := c.scenario(doc)
	if perr != nil {
		return nil, perr
	}
	out, err := json.Marshal(w)
	if err != nil {
		return nil, &Error{Code: ErrBadValue, Msg: fmt.Sprintf("scenario does not serialize: %v", err)}
	}
	return out, nil
}

// The wire mirror: field-for-field identical to serialize.go's
// wireScenario so json.Marshal emits byte-identical documents.
type wireScenario struct {
	Name            string             `json:"name,omitempty"`
	Seed            int64              `json:"seed,omitempty"`
	Testbed         *wireTestbed       `json:"testbed,omitempty"`
	Apps            []wireApp          `json:"apps,omitempty"`
	Churn           []wireChurnEvent   `json:"churn,omitempty"`
	Collect         *wireCollect       `json:"collect,omitempty"`
	Faults          *faults.Plan       `json:"faults,omitempty"`
	Assert          []faults.Assertion `json:"assert,omitempty"`
	SettleNS        time.Duration      `json:"settle_ns,omitempty"`
	DurationNS      time.Duration      `json:"duration_ns,omitempty"`
	RegisterTimeout time.Duration      `json:"register_timeout_ns,omitempty"`
	ControllerPort  int                `json:"controller_port,omitempty"`
	Workers         int                `json:"workers,omitempty"`
}

type wireTestbed struct {
	Kind    string        `json:"kind"`
	Daemons int           `json:"daemons"`
	RTT     time.Duration `json:"rtt_ns,omitempty"`
	Bps     float64       `json:"bps,omitempty"`
}

type wireApp struct {
	App      string          `json:"app"`
	Params   json.RawMessage `json:"params,omitempty"`
	Nodes    int             `json:"nodes,omitempty"`
	Superset float64         `json:"superset,omitempty"`
	FullList bool            `json:"full_list,omitempty"`
	Env      *wireEnv        `json:"env,omitempty"`
	Port     int             `json:"port,omitempty"`
}

type wireEnv struct {
	Caps uint32             `json:"caps,omitempty"`
	Net  *sandbox.NetLimits `json:"net,omitempty"`
	FS   *sandbox.FSLimits  `json:"fs,omitempty"`
}

type wireChurnEvent struct {
	At   time.Duration `json:"at"`
	Join bool          `json:"join"`
	Node int           `json:"node"`
}

type wireCollect struct {
	Metrics     bool          `json:"metrics,omitempty"`
	ReportEvery time.Duration `json:"report_every_ns,omitempty"`
	Key         string        `json:"key,omitempty"`
	MetricsPort int           `json:"metrics_port,omitempty"`
}

// Capability bits, mirroring the root package's Cap constants (pinned
// by TestConfigCapBits in the root package — config cannot import it).
const (
	capNet uint32 = 1 << 0
	capFS  uint32 = 1 << 1
	capAll        = capNet | capFS
)

type compiler struct {
	cat  *Catalog
	open func(string) ([]byte, error)

	// reportAt anchors "report: true" params so a document that asks an
	// app to report without a collect plane fails with a position.
	reportAt *node
}

// requireKeys rejects mapping keys outside the allowed set, anchored at
// the offending key.
func requireKeys(n *node, path string, allowed ...string) *Error {
	for i := range n.keys {
		e := &n.keys[i]
		ok := false
		for _, a := range allowed {
			if e.key == a {
				ok = true
				break
			}
		}
		if !ok {
			return &Error{Code: ErrUnknownField, Path: joinPath(path, e.key), Line: e.keyLine, Col: e.keyCol,
				Msg: fmt.Sprintf("unknown field %q (want %s)", e.key, strings.Join(allowed, ", "))}
		}
	}
	return nil
}

func joinPath(base, key string) string {
	if base == "" {
		return key
	}
	return base + "." + key
}

func (c *compiler) scenario(doc *node) (*wireScenario, *Error) {
	if perr := requireKeys(doc, "", "name", "seed", "testbed", "apps", "churn", "collect",
		"faults", "assert", "settle", "duration", "register_timeout", "controller_port", "workers"); perr != nil {
		return nil, perr
	}
	w := &wireScenario{}
	var perr *Error
	if n := doc.get("name"); n != nil {
		if w.Name, perr = asString(n, "name"); perr != nil {
			return nil, perr
		}
	}
	if n := doc.get("seed"); n != nil {
		if w.Seed, perr = asInt(n, "seed"); perr != nil {
			return nil, perr
		}
	}
	if n := doc.get("testbed"); n != nil {
		if w.Testbed, perr = c.testbed(n); perr != nil {
			return nil, perr
		}
	}
	apps := doc.get("apps")
	if apps == nil {
		return nil, errf(ErrMissing, "apps", doc, "scenario deploys no applications")
	}
	if apps.kind != listNode {
		return nil, errf(ErrBadValue, "apps", apps, "apps must be a list")
	}
	for i, item := range apps.items {
		wa, perr := c.app(item, fmt.Sprintf("apps[%d]", i))
		if perr != nil {
			return nil, perr
		}
		w.Apps = append(w.Apps, wa)
	}
	if n := doc.get("collect"); n != nil {
		if w.Collect, perr = c.collect(n); perr != nil {
			return nil, perr
		}
	}
	if c.reportAt != nil && (w.Collect == nil || !w.Collect.Metrics) {
		return nil, errf(ErrBadValue, "", c.reportAt,
			"report: true needs collect.metrics: true — nothing collects the stream")
	}
	if n := doc.get("churn"); n != nil {
		if w.Churn, perr = c.churn(n, w.Seed); perr != nil {
			return nil, perr
		}
	}
	if n := doc.get("faults"); n != nil {
		if w.Faults, perr = c.faults(n); perr != nil {
			return nil, perr
		}
	}
	if n := doc.get("assert"); n != nil {
		if w.Assert, perr = c.asserts(n); perr != nil {
			return nil, perr
		}
	}
	for _, f := range []struct {
		key string
		dst *time.Duration
	}{{"settle", &w.SettleNS}, {"duration", &w.DurationNS}, {"register_timeout", &w.RegisterTimeout}} {
		if n := doc.get(f.key); n != nil {
			if *f.dst, perr = asDuration(n, f.key); perr != nil {
				return nil, perr
			}
		}
	}
	for _, f := range []struct {
		key string
		dst *int
	}{{"controller_port", &w.ControllerPort}, {"workers", &w.Workers}} {
		if n := doc.get(f.key); n != nil {
			v, perr := asInt(n, f.key)
			if perr != nil {
				return nil, perr
			}
			if v < 0 || v > 1<<31 {
				return nil, errf(ErrOutOfRange, f.key, n, "%d is out of range", v)
			}
			*f.dst = int(v)
		}
	}
	return w, nil
}

func (c *compiler) testbed(n *node) (*wireTestbed, *Error) {
	if n.kind != mapNode {
		return nil, errf(ErrBadValue, "testbed", n, "testbed must be a mapping")
	}
	if perr := requireKeys(n, "testbed", "kind", "daemons", "rtt", "bps"); perr != nil {
		return nil, perr
	}
	w := &wireTestbed{}
	kindN := n.get("kind")
	if kindN == nil {
		return nil, errf(ErrMissing, "testbed.kind", n, "want planetlab, modelnet, uniform or live")
	}
	kind, perr := asString(kindN, "testbed.kind")
	if perr != nil {
		return nil, perr
	}
	switch kind {
	case "planetlab", "modelnet", "uniform", "live":
		w.Kind = kind
	default:
		return nil, errf(ErrBadValue, "testbed.kind", kindN,
			"unknown testbed %q (want planetlab, modelnet, uniform or live)", kind)
	}
	dN := n.get("daemons")
	if dN == nil {
		return nil, errf(ErrMissing, "testbed.daemons", n, "daemon count required")
	}
	d, perr := asInt(dN, "testbed.daemons")
	if perr != nil {
		return nil, perr
	}
	if d < 1 || d > 2_000_000 {
		return nil, errf(ErrOutOfRange, "testbed.daemons", dN, "%d daemons is outside 1..2000000", d)
	}
	w.Daemons = int(d)
	if rttN := n.get("rtt"); rttN != nil {
		if kind != "uniform" {
			return nil, errf(ErrBadValue, "testbed.rtt", rttN, "rtt applies to uniform testbeds only")
		}
		if w.RTT, perr = asDuration(rttN, "testbed.rtt"); perr != nil {
			return nil, perr
		}
	}
	if bpsN := n.get("bps"); bpsN != nil {
		if kind != "uniform" {
			return nil, errf(ErrBadValue, "testbed.bps", bpsN, "bps applies to uniform testbeds only")
		}
		if w.Bps, perr = asRate(bpsN, "testbed.bps"); perr != nil {
			return nil, perr
		}
	}
	return w, nil
}

func (c *compiler) app(n *node, path string) (wireApp, *Error) {
	var w wireApp
	if n.kind != mapNode {
		return w, errf(ErrBadValue, path, n, "each apps entry must be a mapping")
	}
	if perr := requireKeys(n, path, "app", "params", "nodes", "superset", "full_list", "env", "port"); perr != nil {
		return w, perr
	}
	nameN := n.get("app")
	if nameN == nil {
		return w, errf(ErrMissing, path+".app", n, "application name required")
	}
	name, perr := asString(nameN, path+".app")
	if perr != nil {
		return w, perr
	}
	if _, ok := c.cat.Lookup(name); !ok {
		return w, errf(ErrUnknownApp, path+".app", nameN,
			"unknown application %q (catalog: %v)", name, c.cat.Names())
	}
	w.App = name
	paramsN := n.get("params")
	if w.Params, perr = c.cat.compileParams(name, paramsN, path+".params"); perr != nil {
		return w, perr
	}
	if paramsN != nil && c.reportAt == nil {
		if r := paramsN.get("report"); r != nil && r.scalar == "true" {
			c.reportAt = r
		}
	}
	if nodesN := n.get("nodes"); nodesN != nil {
		v, perr := asInt(nodesN, path+".nodes")
		if perr != nil {
			return w, perr
		}
		if v < 1 || v > 2_000_000 {
			return w, errf(ErrOutOfRange, path+".nodes", nodesN, "%d nodes is outside 1..2000000", v)
		}
		w.Nodes = int(v)
	}
	if sN := n.get("superset"); sN != nil {
		v, perr := asFloat(sN, path+".superset")
		if perr != nil {
			return w, perr
		}
		if v < 1 || v > 10 {
			return w, errf(ErrOutOfRange, path+".superset", sN, "superset %g is outside 1..10", v)
		}
		w.Superset = v
	}
	if fN := n.get("full_list"); fN != nil {
		if w.FullList, perr = asBool(fN, path+".full_list"); perr != nil {
			return w, perr
		}
	}
	if eN := n.get("env"); eN != nil {
		if w.Env, perr = c.env(eN, path+".env"); perr != nil {
			return w, perr
		}
	}
	if pN := n.get("port"); pN != nil {
		v, perr := asInt(pN, path+".port")
		if perr != nil {
			return w, perr
		}
		if v < 1 || v > 65535 {
			return w, errf(ErrOutOfRange, path+".port", pN, "port %d is outside 1..65535", v)
		}
		w.Port = int(v)
	}
	return w, nil
}

func (c *compiler) env(n *node, path string) (*wireEnv, *Error) {
	if n.kind != mapNode {
		return nil, errf(ErrBadValue, path, n, "env must be a mapping")
	}
	if perr := requireKeys(n, path, "caps", "net", "fs"); perr != nil {
		return nil, perr
	}
	w := &wireEnv{}
	if capsN := n.get("caps"); capsN != nil {
		switch capsN.kind {
		case scalarNode:
			if capsN.scalar != "all" {
				return nil, errf(ErrBadValue, path+".caps", capsN,
					"want \"all\" or a list like [net, fs], got %q", capsN.scalar)
			}
			w.Caps = capAll
		case listNode:
			for _, item := range capsN.items {
				switch item.scalar {
				case "net":
					w.Caps |= capNet
				case "fs":
					w.Caps |= capFS
				default:
					return nil, errf(ErrBadValue, path+".caps", item,
						"unknown capability %q (want net or fs)", item.scalar)
				}
			}
			if w.Caps == 0 {
				return nil, errf(ErrBadValue, path+".caps", capsN,
					"an empty capability list would grant everything; omit caps instead")
			}
		default:
			return nil, errf(ErrBadValue, path+".caps", capsN, "want \"all\" or a list like [net, fs]")
		}
	}
	if netN := n.get("net"); netN != nil {
		if netN.kind != mapNode {
			return nil, errf(ErrBadValue, path+".net", netN, "net must be a mapping")
		}
		if perr := requireKeys(netN, path+".net", "max_sockets", "max_tx", "max_rx", "blacklist"); perr != nil {
			return nil, perr
		}
		lim := &sandbox.NetLimits{}
		if v := netN.get("max_sockets"); v != nil {
			s, perr := asInt(v, path+".net.max_sockets")
			if perr != nil {
				return nil, perr
			}
			lim.MaxSockets = int(s)
		}
		if v := netN.get("max_tx"); v != nil {
			s, perr := asSize(v, path+".net.max_tx")
			if perr != nil {
				return nil, perr
			}
			lim.MaxTxBytes = s
		}
		if v := netN.get("max_rx"); v != nil {
			s, perr := asSize(v, path+".net.max_rx")
			if perr != nil {
				return nil, perr
			}
			lim.MaxRxBytes = s
		}
		if v := netN.get("blacklist"); v != nil {
			if v.kind != listNode {
				return nil, errf(ErrBadValue, path+".net.blacklist", v, "blacklist must be a list")
			}
			for _, item := range v.items {
				s, perr := asString(item, path+".net.blacklist")
				if perr != nil {
					return nil, perr
				}
				lim.Blacklist = append(lim.Blacklist, s)
			}
		}
		w.Net = lim
	}
	if fsN := n.get("fs"); fsN != nil {
		if fsN.kind != mapNode {
			return nil, errf(ErrBadValue, path+".fs", fsN, "fs must be a mapping")
		}
		if perr := requireKeys(fsN, path+".fs", "max_bytes", "max_open_files"); perr != nil {
			return nil, perr
		}
		lim := &sandbox.FSLimits{}
		if v := fsN.get("max_bytes"); v != nil {
			s, perr := asSize(v, path+".fs.max_bytes")
			if perr != nil {
				return nil, perr
			}
			lim.MaxBytes = s
		}
		if v := fsN.get("max_open_files"); v != nil {
			s, perr := asInt(v, path+".fs.max_open_files")
			if perr != nil {
				return nil, perr
			}
			lim.MaxOpenFiles = int(s)
		}
		w.FS = lim
	}
	if w.Caps == 0 && w.Net == nil && w.FS == nil {
		return nil, nil
	}
	return w, nil
}

func (c *compiler) collect(n *node) (*wireCollect, *Error) {
	if n.kind != mapNode {
		return nil, errf(ErrBadValue, "collect", n, "collect must be a mapping")
	}
	if perr := requireKeys(n, "collect", "metrics", "report_every", "key", "metrics_port"); perr != nil {
		return nil, perr
	}
	w := &wireCollect{}
	var perr *Error
	if v := n.get("metrics"); v != nil {
		if w.Metrics, perr = asBool(v, "collect.metrics"); perr != nil {
			return nil, perr
		}
	}
	if v := n.get("report_every"); v != nil {
		if w.ReportEvery, perr = asDuration(v, "collect.report_every"); perr != nil {
			return nil, perr
		}
	}
	if v := n.get("key"); v != nil {
		if w.Key, perr = asString(v, "collect.key"); perr != nil {
			return nil, perr
		}
	}
	if v := n.get("metrics_port"); v != nil {
		p, perr := asInt(v, "collect.metrics_port")
		if perr != nil {
			return nil, perr
		}
		if p < 1 || p > 65535 {
			return nil, errf(ErrOutOfRange, "collect.metrics_port", v, "port %d is outside 1..65535", p)
		}
		w.MetricsPort = int(p)
	}
	return w, nil
}

func (c *compiler) churn(n *node, seed int64) ([]wireChurnEvent, *Error) {
	if n.kind != mapNode {
		return nil, errf(ErrBadValue, "churn", n, "churn must be a mapping")
	}
	if perr := requireKeys(n, "churn", "script", "trace", "seed"); perr != nil {
		return nil, perr
	}
	scriptN, traceN := n.get("script"), n.get("trace")
	if (scriptN == nil) == (traceN == nil) {
		return nil, errf(ErrBadValue, "churn", n, "churn takes exactly one of script or trace")
	}
	if sN := n.get("seed"); sN != nil {
		v, perr := asInt(sN, "churn.seed")
		if perr != nil {
			return nil, perr
		}
		seed = v
	}
	var tr churn.Trace
	if scriptN != nil {
		var lines []string
		switch scriptN.kind {
		case scalarNode:
			lines = []string{scriptN.scalar}
		case listNode:
			for _, item := range scriptN.items {
				s, perr := asString(item, "churn.script")
				if perr != nil {
					return nil, perr
				}
				lines = append(lines, s)
			}
		default:
			return nil, errf(ErrBadValue, "churn.script", scriptN,
				"script must be a line or a list of lines")
		}
		s, err := churn.ParseScript(strings.Join(lines, "\n"))
		if err != nil {
			return nil, errf(ErrBadValue, "churn.script", scriptN, "%v", err)
		}
		tr = churn.FromScript(s, seed)
	} else {
		path, perr := asString(traceN, "churn.trace")
		if perr != nil {
			return nil, perr
		}
		if c.open == nil {
			return nil, errf(ErrUnsupported, "churn.trace", traceN,
				"trace references need a file-based loader (LoadScenarioFile or splayctl); inline documents cannot reach %q", path)
		}
		raw, err := c.open(path)
		if err != nil {
			return nil, errf(ErrBadValue, "churn.trace", traceN, "trace %q: %v", path, err)
		}
		tr, err = churn.ReadTrace(strings.NewReader(string(raw)))
		if err != nil {
			return nil, errf(ErrBadValue, "churn.trace", traceN, "trace %q: %v", path, err)
		}
	}
	out := make([]wireChurnEvent, len(tr))
	for i, e := range tr {
		out[i] = wireChurnEvent{At: e.At, Join: e.Action == churn.Join, Node: e.Node}
	}
	return out, nil
}

func (c *compiler) faults(n *node) (*faults.Plan, *Error) {
	if n.kind != mapNode {
		return nil, errf(ErrBadValue, "faults", n, "faults must be a mapping")
	}
	if perr := requireKeys(n, "faults", "events", "rules", "eval_every"); perr != nil {
		return nil, perr
	}
	plan := &faults.Plan{}
	if evN := n.get("events"); evN != nil {
		if evN.kind != listNode {
			return nil, errf(ErrBadValue, "faults.events", evN, "events must be a list")
		}
		for i, item := range evN.items {
			ev, perr := c.faultEvent(item, fmt.Sprintf("faults.events[%d]", i))
			if perr != nil {
				return nil, perr
			}
			plan.Events = append(plan.Events, ev)
		}
	}
	if rN := n.get("rules"); rN != nil {
		if rN.kind != listNode {
			return nil, errf(ErrBadValue, "faults.rules", rN, "rules must be a list")
		}
		for i, item := range rN.items {
			rule, perr := c.faultRule(item, fmt.Sprintf("faults.rules[%d]", i))
			if perr != nil {
				return nil, perr
			}
			plan.Rules = append(plan.Rules, rule)
		}
	}
	if eN := n.get("eval_every"); eN != nil {
		d, perr := asDuration(eN, "faults.eval_every")
		if perr != nil {
			return nil, perr
		}
		plan.EvalEvery = d
	}
	if plan.Empty() && plan.EvalEvery == 0 {
		return nil, errf(ErrMissing, "faults", n, "faults declares no events and no rules")
	}
	return plan, nil
}

var faultKinds = map[string]faults.EventKind{
	"crash":     faults.Crash,
	"restart":   faults.Restart,
	"partition": faults.Partition,
	"heal":      faults.Heal,
	"degrade":   faults.Degrade,
	"restore":   faults.Restore,
	"rpc-fault": faults.RPCFault,
	"rpc-clear": faults.RPCClear,
}

func (c *compiler) faultEvent(n *node, path string) (faults.Event, *Error) {
	var ev faults.Event
	if n.kind != mapNode {
		return ev, errf(ErrBadValue, path, n, "each event must be a mapping")
	}
	if perr := requireKeys(n, path, "at", "kind", "fraction", "count",
		"extra_latency", "loss", "method", "drop", "delay"); perr != nil {
		return ev, perr
	}
	atN := n.get("at")
	if atN == nil {
		return ev, errf(ErrMissing, path+".at", n, "event time required")
	}
	at, perr := asDuration(atN, path+".at")
	if perr != nil {
		return ev, perr
	}
	ev.At = at
	kindN := n.get("kind")
	if kindN == nil {
		return ev, errf(ErrMissing, path+".kind", n,
			"event kind required (crash, restart, partition, heal, degrade, restore, rpc-fault or rpc-clear)")
	}
	kindS, perr := asString(kindN, path+".kind")
	if perr != nil {
		return ev, perr
	}
	kind, ok := faultKinds[kindS]
	if !ok {
		return ev, errf(ErrBadValue, path+".kind", kindN,
			"unknown event kind %q (want crash, restart, partition, heal, degrade, restore, rpc-fault or rpc-clear)", kindS)
	}
	ev.Kind = kind
	if v := n.get("fraction"); v != nil {
		if ev.Fraction, perr = asFraction(v, path+".fraction"); perr != nil {
			return ev, perr
		}
	}
	if v := n.get("count"); v != nil {
		cnt, perr := asInt(v, path+".count")
		if perr != nil {
			return ev, perr
		}
		if cnt < 1 {
			return ev, errf(ErrOutOfRange, path+".count", v, "count must be positive")
		}
		ev.Count = int(cnt)
	}
	if v := n.get("extra_latency"); v != nil {
		if ev.ExtraLatency, perr = asDuration(v, path+".extra_latency"); perr != nil {
			return ev, perr
		}
	}
	if v := n.get("loss"); v != nil {
		if ev.Loss, perr = asFraction(v, path+".loss"); perr != nil {
			return ev, perr
		}
	}
	if v := n.get("method"); v != nil {
		if ev.Method, perr = asString(v, path+".method"); perr != nil {
			return ev, perr
		}
	}
	if v := n.get("drop"); v != nil {
		if ev.Drop, perr = asFraction(v, path+".drop"); perr != nil {
			return ev, perr
		}
	}
	if v := n.get("delay"); v != nil {
		if ev.Delay, perr = asDuration(v, path+".delay"); perr != nil {
			return ev, perr
		}
	}
	switch kind {
	case faults.Crash:
		if ev.Fraction == 0 && ev.Count == 0 {
			return ev, errf(ErrMissing, path, n, "crash needs a fraction or a count")
		}
	case faults.Partition:
		if ev.Fraction <= 0 || ev.Fraction >= 1 {
			return ev, errf(ErrOutOfRange, path+".fraction", n,
				"partition needs a fraction strictly between 0 and 1")
		}
	}
	return ev, nil
}

func (c *compiler) faultRule(n *node, path string) (faults.Rule, *Error) {
	var r faults.Rule
	if n.kind != mapNode {
		return r, errf(ErrBadValue, path, n, "each rule must be a mapping")
	}
	if perr := requireKeys(n, path, "name", "when", "for", "do", "cooldown", "max_fires"); perr != nil {
		return r, perr
	}
	nameN := n.get("name")
	if nameN == nil {
		return r, errf(ErrMissing, path+".name", n, "rule name required")
	}
	var perr *Error
	if r.Name, perr = asString(nameN, path+".name"); perr != nil {
		return r, perr
	}
	whenN := n.get("when")
	if whenN == nil {
		return r, errf(ErrMissing, path+".when", n, "rule condition required, e.g. \"total(chord.failed_lookups) > 10\"")
	}
	if r.When, perr = parseCondition(whenN, path+".when"); perr != nil {
		return r, perr
	}
	doN := n.get("do")
	if doN == nil {
		return r, errf(ErrMissing, path+".do", n, "rule action required (heal, \"kill n\", \"kill p%%\" or \"grow n\")")
	}
	if r.Do, perr = parseAction(doN, path+".do"); perr != nil {
		return r, perr
	}
	if v := n.get("for"); v != nil {
		if r.For, perr = asDuration(v, path+".for"); perr != nil {
			return r, perr
		}
	}
	if v := n.get("cooldown"); v != nil {
		if r.Cooldown, perr = asDuration(v, path+".cooldown"); perr != nil {
			return r, perr
		}
	}
	if v := n.get("max_fires"); v != nil {
		m, perr := asInt(v, path+".max_fires")
		if perr != nil {
			return r, perr
		}
		if m < 0 {
			return r, errf(ErrOutOfRange, path+".max_fires", v, "max_fires must be non-negative")
		}
		r.MaxFires = int(m)
	}
	return r, nil
}

func (c *compiler) asserts(n *node) ([]faults.Assertion, *Error) {
	if n.kind != listNode {
		return nil, errf(ErrBadValue, "assert", n, "assert must be a list")
	}
	var out []faults.Assertion
	for i, item := range n.items {
		a, perr := c.assertion(item, fmt.Sprintf("assert[%d]", i))
		if perr != nil {
			return nil, perr
		}
		out = append(out, a)
	}
	return out, nil
}

func (c *compiler) assertion(n *node, path string) (faults.Assertion, *Error) {
	var a faults.Assertion
	if n.kind != mapNode {
		return a, errf(ErrBadValue, path, n, "each assertion must be a mapping")
	}
	if perr := requireKeys(n, path, "name", "eventually", "always", "converges", "within", "after"); perr != nil {
		return a, perr
	}
	nameN := n.get("name")
	if nameN == nil {
		return a, errf(ErrMissing, path+".name", n, "assertion name required")
	}
	var perr *Error
	if a.Name, perr = asString(nameN, path+".name"); perr != nil {
		return a, perr
	}
	kinds := 0
	for _, k := range []struct {
		key  string
		kind faults.AssertKind
	}{{"eventually", faults.Eventually}, {"always", faults.Always}, {"converges", faults.Converges}} {
		if v := n.get(k.key); v != nil {
			kinds++
			a.Kind = k.kind
			if a.Cond, perr = parseCondition(v, path+"."+k.key); perr != nil {
				return a, perr
			}
		}
	}
	if kinds == 0 {
		return a, errf(ErrMissing, path, n, "want one of eventually, always or converges with a condition")
	}
	if kinds > 1 {
		return a, errf(ErrBadValue, path, n, "want exactly one of eventually, always or converges")
	}
	if v := n.get("within"); v != nil {
		if a.Within, perr = asDuration(v, path+".within"); perr != nil {
			return a, perr
		}
	}
	if v := n.get("after"); v != nil {
		if a.After, perr = asDuration(v, path+".after"); perr != nil {
			return a, perr
		}
	}
	return a, nil
}

// ValidateWire validates an already-serialized wire scenario's
// application references against the catalog — the hosting plane's
// admission check for plain JSON submissions. It reads only the apps
// array; structural validation of the rest belongs to the submission
// decoder.
func ValidateWire(data []byte, cat *Catalog) *Error {
	var w struct {
		Apps []struct {
			App    string          `json:"app"`
			Params json.RawMessage `json:"params"`
		} `json:"apps"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return &Error{Code: ErrSyntax, Msg: fmt.Sprintf("scenario does not parse: %v", err)}
	}
	for i, a := range w.Apps {
		path := fmt.Sprintf("apps[%d]", i)
		if a.App == "" {
			return &Error{Code: ErrMissing, Path: path + ".app", Msg: "application name required"}
		}
		if perr := cat.validateParamsJSON(a.App, a.Params, path); perr != nil {
			return perr
		}
	}
	return nil
}
