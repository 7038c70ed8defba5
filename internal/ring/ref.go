package ring

import (
	"fmt"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// Ref names a ring node on the wire: its identifier and address. It is
// the reference ring overlays exchange in RPC arguments and results, so
// it carries the same byte-identical-or-decline codec as the RPC
// envelopes (llenc.FastMarshaler / llenc.FastUnmarshaler). The codec
// handles exactly the canonical encoding/json form,
//
//	{"id":N,"addr":{"host":"…","port":P}}
//
// and declines everything else — whitespace, other key order or case,
// escaped or non-ASCII hosts on encode, escapes on decode, null and
// out-of-range numbers — so callers fall back to encoding/json.
type Ref struct {
	ID   uint64         `json:"id"`
	Addr transport.Addr `json:"addr"`
}

// IsZero reports whether the reference is unset.
func (r Ref) IsZero() bool { return r.Addr.IsZero() }

func (r Ref) String() string { return fmt.Sprintf("%d@%s", r.ID, r.Addr) }

// AppendJSON appends json.Marshal(r) to buf, or declines (returning buf
// unchanged in length) when the host needs escaping.
func (r Ref) AppendJSON(buf []byte) ([]byte, bool) {
	if !llenc.JSONSafe(r.Addr.Host) {
		return buf, false
	}
	b := llenc.AppendUint(append(buf, `{"id":`...), r.ID)
	b = llenc.AppendJSONString(append(b, `,"addr":{"host":`...), r.Addr.Host)
	b = llenc.AppendInt(append(b, `,"port":`...), int64(r.Addr.Port))
	return append(b, "}}"...), true
}

// Parse consumes one canonical Ref at the lexer's position, for codecs
// that embed references in larger values. On false r and the lexer
// position are unspecified; the caller declines as a whole.
func (r *Ref) Parse(l *llenc.Lexer) bool {
	var ok bool
	if !l.Lit(`{"id":`) {
		return false
	}
	if r.ID, ok = l.Uint(); !ok || !l.Lit(`,"addr":{"host":`) {
		return false
	}
	if r.Addr.Host, ok = l.String(); !ok || !l.Lit(`,"port":`) {
		return false
	}
	if r.Addr.Port, ok = l.Int(); !ok {
		return false
	}
	return l.Lit("}}")
}

// ParseJSON implements llenc.FastUnmarshaler. On false r is untouched.
func (r *Ref) ParseJSON(data []byte) bool {
	l := llenc.Lexer{Data: data}
	var v Ref
	if !v.Parse(&l) || l.Pos != len(data) {
		return false
	}
	*r = v
	return true
}

// Refs is a list of references on the wire — a successor list or
// leafset — with the same canonical-or-decline codec as Ref.
type Refs []Ref

// AppendJSON appends json.Marshal(rs) to buf. A nil list (which
// encoding/json writes as null) and any element Ref declines make the
// whole list decline.
func (rs Refs) AppendJSON(buf []byte) ([]byte, bool) {
	if rs == nil {
		return buf, false
	}
	b := append(buf, '[')
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = r.AppendJSON(b); !ok {
			return buf, false
		}
	}
	return append(b, ']'), true
}

// ParseJSON implements llenc.FastUnmarshaler. It yields a fresh list
// (empty but non-nil for [], as encoding/json does); on false rs is
// untouched.
func (rs *Refs) ParseJSON(data []byte) bool {
	l := llenc.Lexer{Data: data}
	if !l.Consume('[') {
		return false
	}
	out := make(Refs, 0, 4) // a successor list's usual length
	if !l.Consume(']') {
		for {
			var r Ref
			if !r.Parse(&l) {
				return false
			}
			out = append(out, r)
			if l.Consume(']') {
				break
			}
			if !l.Consume(',') {
				return false
			}
		}
	}
	if l.Pos != len(data) {
		return false
	}
	*rs = out
	return true
}
