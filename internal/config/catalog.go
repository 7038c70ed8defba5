package config

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// The app catalog: every application a config document may reference
// declares a typed parameter schema — name, kind, default, bounds — so
// documents are validated at compile (and hosted submissions at
// admission) instead of failing opaquely at deploy time, and so
// "splayctl catalog" can show authors what is available without
// reading Go.

// ParamKind types one application parameter.
type ParamKind int

// Parameter kinds and the document syntax each accepts.
const (
	KindString   ParamKind = iota // any scalar
	KindBool                      // true / false
	KindInt                       // 42
	KindFloat                     // 2.5
	KindDuration                  // 30s, 100ms (wire: integer nanoseconds)
	KindSize                      // 64KB, 4MB (wire: integer bytes)
	KindRate                      // 512kbps, 10mbps (wire: bit/s number)
	KindFraction                  // 50% or 0.5 (wire: number in 0..1)
)

func (k ParamKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindDuration:
		return "duration"
	case KindSize:
		return "size"
	case KindRate:
		return "rate"
	case KindFraction:
		return "fraction"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Param is one declared application parameter. Min/Max bound numeric
// kinds when Bounded is set (durations in nanoseconds, sizes in bytes,
// rates in bit/s). Default is documentation — the app factory applies
// it; the compiler only ships keys the document sets, never defaults.
type Param struct {
	Name    string
	Kind    ParamKind
	Doc     string
	Default any
	Min     float64
	Max     float64
	Bounded bool
}

// AppSchema declares one catalog application.
type AppSchema struct {
	Name   string
	Doc    string
	Params []Param
}

// param looks a parameter up by name.
func (a AppSchema) param(name string) (Param, bool) {
	for _, p := range a.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Catalog is the set of applications a platform accepts by name.
type Catalog struct {
	order []string
	apps  map[string]AppSchema
}

// NewCatalog builds an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{apps: make(map[string]AppSchema)}
}

// Register adds an application schema; duplicates error.
func (c *Catalog) Register(a AppSchema) error {
	if a.Name == "" {
		return fmt.Errorf("config: app schema needs a name")
	}
	if _, dup := c.apps[a.Name]; dup {
		return fmt.Errorf("config: duplicate catalog app %q", a.Name)
	}
	c.order = append(c.order, a.Name)
	c.apps[a.Name] = a
	return nil
}

// Lookup returns an application's schema.
func (c *Catalog) Lookup(name string) (AppSchema, bool) {
	a, ok := c.apps[name]
	return a, ok
}

// Apps lists the registered schemas in registration order.
func (c *Catalog) Apps() []AppSchema {
	out := make([]AppSchema, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.apps[name])
	}
	return out
}

// Names lists the registered application names, sorted.
func (c *Catalog) Names() []string {
	out := append([]string(nil), c.order...)
	sort.Strings(out)
	return out
}

// compileParams turns a document's params mapping into the canonical
// wire JSON (sorted keys — json.Marshal of a map): only explicitly set
// keys travel; defaults belong to the app factory. Unknown parameters,
// wrong kinds and out-of-range values are typed errors.
func (c *Catalog) compileParams(app string, n *node, path string) ([]byte, *Error) {
	schema, ok := c.apps[app]
	if !ok {
		return nil, errf(ErrUnknownApp, path, n, "unknown application %q (catalog: %v)", app, c.Names())
	}
	if n == nil {
		return nil, nil
	}
	if n.kind != mapNode {
		return nil, errf(ErrBadValue, path, n, "params must be a mapping")
	}
	out := make(map[string]any, len(n.keys))
	for i := range n.keys {
		e := &n.keys[i]
		ppath := path + "." + e.key
		p, ok := schema.param(e.key)
		if !ok {
			return nil, &Error{Code: ErrUnknownParam, Path: ppath, Line: e.keyLine, Col: e.keyCol,
				Msg: fmt.Sprintf("app %q has no parameter %q (have %v)", app, e.key, schema.paramNames())}
		}
		v, perr := compileParamValue(p, e.val, ppath)
		if perr != nil {
			return nil, perr
		}
		out[e.key] = v
	}
	if len(out) == 0 {
		return nil, nil
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, errf(ErrBadValue, path, n, "params do not serialize: %v", err)
	}
	return data, nil
}

func (a AppSchema) paramNames() []string {
	out := make([]string, len(a.Params))
	for i, p := range a.Params {
		out[i] = p.Name
	}
	return out
}

// compileParamValue converts one scalar per its declared kind and
// checks bounds.
func compileParamValue(p Param, n *node, path string) (any, *Error) {
	var num float64
	var val any
	switch p.Kind {
	case KindString:
		s, perr := asString(n, path)
		if perr != nil {
			return nil, perr
		}
		return s, nil
	case KindBool:
		b, perr := asBool(n, path)
		if perr != nil {
			return nil, perr
		}
		return b, nil
	case KindInt:
		v, perr := asInt(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = float64(v), v
	case KindFloat:
		v, perr := asFloat(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = v, v
	case KindDuration:
		d, perr := asDuration(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = float64(d), int64(d)
	case KindSize:
		v, perr := asSize(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = float64(v), v
	case KindRate:
		v, perr := asRate(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = v, v
	case KindFraction:
		v, perr := asFraction(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = v, v
	default:
		return nil, errf(ErrBadValue, path, n, "unhandled parameter kind %v", p.Kind)
	}
	if p.Bounded && (num < p.Min || num > p.Max) {
		return nil, errf(ErrOutOfRange, path, n, "%s is outside %s..%s",
			formatParam(p.Kind, num), formatParam(p.Kind, p.Min), formatParam(p.Kind, p.Max))
	}
	return val, nil
}

// validateParamsJSON checks an already-serialized (wire JSON) parameter
// document against the schema — the hosting plane's admission path.
func (c *Catalog) validateParamsJSON(app string, raw []byte, path string) *Error {
	schema, ok := c.apps[app]
	if !ok {
		return &Error{Code: ErrUnknownApp, Path: path,
			Msg: fmt.Sprintf("unknown application %q (catalog: %v)", app, c.Names())}
	}
	if len(raw) == 0 || string(raw) == "null" {
		return nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return &Error{Code: ErrBadValue, Path: path + ".params", Msg: fmt.Sprintf("params do not parse: %v", err)}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ppath := path + ".params." + k
		p, ok := schema.param(k)
		if !ok {
			return &Error{Code: ErrUnknownParam, Path: ppath,
				Msg: fmt.Sprintf("app %q has no parameter %q (have %v)", app, k, schema.paramNames())}
		}
		if perr := validateParamJSON(p, m[k], ppath); perr != nil {
			return perr
		}
	}
	return nil
}

func validateParamJSON(p Param, raw json.RawMessage, path string) *Error {
	var num float64
	switch p.Kind {
	case KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return &Error{Code: ErrBadValue, Path: path, Msg: fmt.Sprintf("want a string, got %s", raw)}
		}
		return nil
	case KindBool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return &Error{Code: ErrBadValue, Path: path, Msg: fmt.Sprintf("want a boolean, got %s", raw)}
		}
		return nil
	default:
		if err := json.Unmarshal(raw, &num); err != nil {
			return &Error{Code: ErrBadValue, Path: path, Msg: fmt.Sprintf("want a number, got %s", raw)}
		}
		if (p.Kind == KindInt || p.Kind == KindDuration || p.Kind == KindSize) && num != float64(int64(num)) {
			return &Error{Code: ErrBadValue, Path: path, Msg: fmt.Sprintf("want an integer, got %s", raw)}
		}
	}
	if p.Bounded && (num < p.Min || num > p.Max) {
		return &Error{Code: ErrOutOfRange, Path: path,
			Msg: fmt.Sprintf("%s is outside %s..%s",
				formatParam(p.Kind, num), formatParam(p.Kind, p.Min), formatParam(p.Kind, p.Max))}
	}
	return nil
}

// formatParam renders a wire value in the kind's human unit for error
// messages and the catalog listing.
func formatParam(k ParamKind, v float64) string {
	switch k {
	case KindDuration:
		return time.Duration(v).String()
	case KindSize:
		switch {
		case v >= 1<<30 && float64(int64(v))/(1<<30) == v/(1<<30):
			return fmt.Sprintf("%gGB", v/(1<<30))
		case v >= 1<<20:
			return fmt.Sprintf("%gMB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%gKB", v/(1<<10))
		}
		return fmt.Sprintf("%gB", v)
	case KindRate:
		switch {
		case v >= 1e9:
			return fmt.Sprintf("%ggbps", v/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%gmbps", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%gkbps", v/1e3)
		}
		return fmt.Sprintf("%gbps", v)
	case KindFraction:
		return fmt.Sprintf("%g%%", v*100)
	}
	return fmt.Sprintf("%g", v)
}

// FormatDefault renders a parameter's default for the catalog listing.
func (p Param) FormatDefault() string {
	switch v := p.Default.(type) {
	case nil:
		return "-"
	case time.Duration:
		return v.String()
	case bool:
		return fmt.Sprintf("%v", v)
	case string:
		return v
	case int:
		if p.Kind == KindSize {
			return formatParam(KindSize, float64(v))
		}
		return fmt.Sprintf("%d", v)
	case float64:
		return formatParam(p.Kind, v)
	}
	return fmt.Sprintf("%v", p.Default)
}

// FormatBounds renders a parameter's bounds for the catalog listing.
func (p Param) FormatBounds() string {
	if !p.Bounded {
		return "-"
	}
	return formatParam(p.Kind, p.Min) + ".." + formatParam(p.Kind, p.Max)
}
