package rpc

import (
	"encoding/json"
	"sync"

	"github.com/splaykit/splay/internal/llenc"
)

// Fast-path JSON codec for the RPC envelopes, mirroring ctlproto's: the
// request ({"id","m","a"}) and response ({"id","e","r"}) frames implement
// llenc.FastMarshaler/FastUnmarshaler with hand-rolled encoders and
// decline-don't-guess parsers. The bytes are identical to encoding/json's
// for these structs — field order, omitempty, HTML escaping — which
// TestRPCFastCodecMatchesEncodingJSON and the fuzz targets check
// differentially, so the wire format (and with it every golden-pinned
// experiment) cannot diverge. Anything the fast path cannot reproduce
// exactly falls back to encoding/json.
//
// The decode side is lazy: the server's fast parser captures the
// argument array as one raw byte span without touching its elements;
// Args splits the span only when a handler actually reads an argument,
// and decodes only the elements it is asked for. Raw spans live in
// pooled buffers owned by the server — see the ownership rules on
// Handler and in DESIGN.md ("The message plane").

// appendArg appends one call argument exactly as encoding/json would
// encode it inside the args array. Common scalar types are hand-rolled;
// pre-encoded json.RawMessage arguments are appended verbatim when
// provably canonical; everything else takes a per-element
// encoding/json round trip (still byte-identical: element encoding does
// not depend on position). It reports false only when the element
// cannot be marshaled at all, so the caller's fallback surfaces the
// same error encoding/json would.
func appendArg(b []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), true
	case bool:
		if x {
			return append(b, "true"...), true
		}
		return append(b, "false"...), true
	case string:
		if llenc.JSONSafe(x) {
			return llenc.AppendJSONString(b, x), true
		}
	case int:
		return llenc.AppendInt(b, int64(x)), true
	case int64:
		return llenc.AppendInt(b, x), true
	case int32:
		return llenc.AppendInt(b, int64(x)), true
	case uint64:
		return llenc.AppendUint(b, x), true
	case uint:
		return llenc.AppendUint(b, uint64(x)), true
	case json.RawMessage:
		if len(x) > 0 && llenc.JSONVerbatim(x) && llenc.ValidJSON(x) {
			return append(b, x...), true
		}
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return b, false
	}
	return append(b, enc...), true
}

// encodePayload encodes a handler's result. Types with a fast codec
// (llenc.FastMarshaler, e.g. ring references) are appended by hand —
// byte-identical to json.Marshal by that interface's contract — and
// everything else, declines included, goes through encoding/json. The
// buffer is sized for a ring reference reply, so that takes one
// allocation.
func encodePayload(v any) ([]byte, error) {
	if fm, ok := v.(llenc.FastMarshaler); ok {
		if b, ok := fm.AppendJSON(make([]byte, 0, 128)); ok {
			return b, nil
		}
	}
	return json.Marshal(v)
}

// decodePayload is json.Unmarshal(data, v) for results and arguments,
// with fast paths for the payloads protocols decode on every hop:
// integer literals into *uint64 and *int, and any
// llenc.FastUnmarshaler. Whatever a fast path declines — and every other
// target type — falls back to encoding/json, so values and errors are
// exactly encoding/json's.
func decodePayload(data []byte, v any) error {
	l := llenc.Lexer{Data: data}
	switch p := v.(type) {
	case *uint64:
		if x, ok := l.Uint(); ok && l.Pos == len(data) {
			*p = x
			return nil
		}
	case *int:
		if x, ok := l.Int(); ok && l.Pos == len(data) {
			*p = x
			return nil
		}
	case llenc.FastUnmarshaler:
		if p.ParseJSON(data) {
			return nil
		}
	}
	return json.Unmarshal(data, v)
}

// AppendJSON implements llenc.FastMarshaler for the request envelope.
// On success the appended bytes equal json.Marshal(r); on false buf is
// returned with its original length (trailing capacity may be dirty).
func (r *request) AppendJSON(buf []byte) ([]byte, bool) {
	if !llenc.JSONSafe(r.Method) {
		return buf, false
	}
	b := append(buf, `{"id":`...)
	b = llenc.AppendUint(b, r.ID)
	b = append(b, `,"m":"`...)
	b = append(b, r.Method...)
	b = append(b, '"')
	if len(r.Args) > 0 {
		b = append(b, `,"a":[`...)
		for i, a := range r.Args {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendArg(b, a); !ok {
				return buf, false
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// AppendJSON implements llenc.FastMarshaler for the response envelope.
// Result bytes come from encodePayload on the server (json.Marshal's
// bytes), so they are canonical already; the verbatim scan only rejects
// what a raw handler payload could smuggle in.
func (r *response) AppendJSON(buf []byte) ([]byte, bool) {
	if !llenc.JSONSafe(r.Err) {
		return buf, false
	}
	b := append(buf, `{"id":`...)
	b = llenc.AppendUint(b, r.ID)
	if r.Err != "" {
		b = append(b, `,"e":"`...)
		b = append(b, r.Err...)
		b = append(b, '"')
	}
	if len(r.Result) > 0 {
		b = append(b, `,"r":`...)
		if llenc.JSONVerbatim(r.Result) {
			b = append(b, r.Result...)
		} else {
			enc, err := json.Marshal(r.Result)
			if err != nil {
				return buf, false
			}
			b = append(b, enc...)
		}
	}
	return append(b, '}'), true
}

// wireRequest is the server-side fast parse of a request frame.
// RawMethod and RawArgs alias the connection's read buffer and are only
// valid until the next frame is read; the serve loop looks the method up
// without converting (the map[string(b)] non-allocating pattern) and
// copies the args into a pooled Args before handing off.
type wireRequest struct {
	ID        uint64
	RawMethod []byte
	RawArgs   []byte // the "a" array, nil when absent
}

// parseRequest is the decline-don't-guess parser for request frames. On
// false the caller falls back to encoding/json. Acceptance is strictly
// narrower than encoding/json's: unknown keys, escaped method names and
// anything json.Valid rejects inside the args array all decline.
func parseRequest(data []byte) (wireRequest, bool) {
	var out wireRequest
	l := llenc.Lexer{Data: data}
	l.SkipWS()
	if !l.Consume('{') {
		return out, false
	}
	l.SkipWS()
	if l.Consume('}') {
		return out, l.End()
	}
	for {
		l.SkipWS()
		key, ok := l.RawString()
		if !ok {
			return out, false
		}
		l.SkipWS()
		if !l.Consume(':') {
			return out, false
		}
		l.SkipWS()
		switch string(key) {
		case "id":
			out.ID, ok = l.Uint()
		case "m":
			out.RawMethod, ok = l.RawString()
		case "a":
			var span []byte
			span, ok = l.Value() // strict: the lazy split must never
			// surface errors the eager path reported at envelope time
			if ok && (len(span) == 0 || span[0] != '[') {
				return out, false
			}
			out.RawArgs = span
		default:
			return out, false
		}
		if !ok {
			return out, false
		}
		l.SkipWS()
		if l.Consume(',') {
			continue
		}
		return out, l.Consume('}') && l.End()
	}
}

// parseJSON is the client-side fast parse of a response frame into r.
// The result span is copied into a fresh allocation because it outlives
// the read buffer (it is handed to the application as Result). On false
// r may be partially written; the caller resets it before falling back.
func (r *response) parseJSON(data []byte) bool {
	l := llenc.Lexer{Data: data}
	l.SkipWS()
	if !l.Consume('{') {
		return false
	}
	l.SkipWS()
	if l.Consume('}') {
		return l.End()
	}
	for {
		l.SkipWS()
		key, ok := l.RawString()
		if !ok {
			return false
		}
		l.SkipWS()
		if !l.Consume(':') {
			return false
		}
		l.SkipWS()
		switch string(key) {
		case "id":
			r.ID, ok = l.Uint()
		case "e":
			r.Err, ok = l.String()
		case "r":
			var span []byte
			span, ok = l.Value()
			r.Result = append(json.RawMessage(nil), span...)
		default:
			return false
		}
		if !ok {
			return false
		}
		l.SkipWS()
		if l.Consume(',') {
			continue
		}
		return l.Consume('}') && l.End()
	}
}

// argList is the pooled backing store of Args: the raw argument array
// (server-owned copy of the wire bytes) and its lazily split elements.
type argList struct {
	raw   []byte            // the JSON array; nil when built from pre-split elements
	elems []json.RawMessage // split elements, aliasing raw (or eager fallback copies)
	split bool
}

var argPool = sync.Pool{New: func() any { return new(argList) }}

// newArgsRaw copies the wire bytes of the argument array into a pooled
// buffer and defers all element work until a handler asks.
func newArgsRaw(raw []byte) Args {
	if len(raw) == 0 {
		return Args{}
	}
	l := argPool.Get().(*argList)
	l.raw = append(l.raw[:0], raw...)
	l.elems = l.elems[:0]
	l.split = false
	return Args{l: l}
}

// newArgsSplit wraps already-split elements (the encoding/json fallback
// path) in the same pooled shape.
func newArgsSplit(elems []json.RawMessage) Args {
	l := argPool.Get().(*argList)
	l.raw = l.raw[:0]
	l.elems = elems
	l.split = true
	return Args{l: l}
}

// release recycles the backing store. The serve loop calls it after the
// handler has returned and its result has been marshaled; the Args (and
// any raw element bytes obtained from it) are invalid afterwards.
func (a Args) release() {
	if a.l == nil {
		return
	}
	for i := range a.l.elems {
		a.l.elems[i] = nil
	}
	argPool.Put(a.l)
}

// ensureSplit materializes the element spans. The raw bytes were
// validated with json.Valid at parse time, so the structural scan
// cannot fail; the encoding/json fallback covers the impossible case
// anyway rather than guessing.
func (l *argList) ensureSplit() {
	if l.split {
		return
	}
	l.split = true
	lex := llenc.Lexer{Data: l.raw}
	if !lex.Consume('[') {
		l.fallbackSplit()
		return
	}
	lex.SkipWS()
	if lex.Consume(']') {
		if !lex.End() {
			l.fallbackSplit()
		}
		return
	}
	for {
		span, ok := lex.SkipValue()
		if !ok {
			l.fallbackSplit()
			return
		}
		l.elems = append(l.elems, json.RawMessage(span))
		lex.SkipWS()
		if lex.Consume(',') {
			continue
		}
		if lex.Consume(']') && lex.End() {
			return
		}
		l.fallbackSplit()
		return
	}
}

func (l *argList) fallbackSplit() {
	l.elems = l.elems[:0]
	var elems []json.RawMessage
	if err := json.Unmarshal(l.raw, &elems); err == nil {
		l.elems = elems
	}
}
