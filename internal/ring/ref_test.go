package ring

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/splaykit/splay/internal/transport"
)

// sampleRefs covers the references overlays send plus the edge cases
// the encoder must reproduce or decline: HTML metacharacters, non-ASCII
// and control bytes in hosts, negative ports and the largest ID.
func sampleRefs() []Ref {
	return []Ref{
		{},
		{ID: 7, Addr: transport.Addr{Host: "n1", Port: 8000}},
		{ID: math.MaxUint64, Addr: transport.Addr{Host: "10.0.0.1", Port: 65535}},
		{ID: 1 << 52, Addr: transport.Addr{Host: "::1", Port: 0}},
		{ID: 3, Addr: transport.Addr{Host: "h", Port: -1}},
		{ID: 4, Addr: transport.Addr{Host: "h", Port: math.MinInt64}},
		{ID: 5, Addr: transport.Addr{Host: "a<b>&c", Port: 1}},
		{ID: 6, Addr: transport.Addr{Host: "ünïcode", Port: 2}},
		{ID: 8, Addr: transport.Addr{Host: "ctrl\x01\n", Port: 3}},
		{ID: 9, Addr: transport.Addr{Host: `q"uo\te`, Port: 4}},
		{ID: 10, Addr: transport.Addr{Host: "bad\xffutf8", Port: 5}},
		{ID: 11, Addr: transport.Addr{Host: "line\u2028sep", Port: 6}},
	}
}

// TestRefAppendJSONMatchesEncodingJSON is the encoder's contract:
// whenever AppendJSON claims a value its bytes equal json.Marshal's, and
// a decline leaves the buffer's length alone.
func TestRefAppendJSONMatchesEncodingJSON(t *testing.T) {
	claimed := 0
	for _, r := range sampleRefs() {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("xy")
		got, ok := r.AppendJSON(prefix)
		if !ok {
			if len(got) != len(prefix) {
				t.Errorf("%q: decline grew the buffer to %q", want, got)
			}
			continue
		}
		claimed++
		if !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("fast encode diverges:\n got  %s\n want %s", got[len(prefix):], want)
		}
	}
	if claimed < 5 {
		t.Errorf("only %d plain references took the fast path", claimed)
	}
}

func TestRefsAppendJSONMatchesEncodingJSON(t *testing.T) {
	refs := sampleRefs()
	lists := []Refs{nil, {}, refs[1:2], refs[1:5], refs[4:7], refs}
	for _, rs := range lists {
		want, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := rs.AppendJSON(nil)
		if ok && !bytes.Equal(got, want) {
			t.Errorf("fast encode diverges:\n got  %s\n want %s", got, want)
		}
		if !ok && len(got) != 0 {
			t.Errorf("%s: decline grew the buffer to %q", want, got)
		}
	}
	if got, ok := (Refs{}).AppendJSON(nil); !ok || string(got) != "[]" {
		t.Errorf("empty list: got %q, %v", got, ok)
	}
}

// checkRefParse is the parser's contract on one input: acceptance
// implies encoding/json decodes the same bytes into a zero value without
// error and to an equal value; a decline leaves the receiver untouched.
func checkRefParse(t *testing.T, data []byte) bool {
	t.Helper()
	sentinel := Ref{ID: 99, Addr: transport.Addr{Host: "sentinel", Port: 9}}
	fast := sentinel
	if !fast.ParseJSON(data) {
		if fast != sentinel {
			t.Fatalf("declined %q but wrote the receiver: %+v", data, fast)
		}
		return false
	}
	var ref Ref
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("fast parser accepted %q which encoding/json rejects: %v", data, err)
	}
	if fast != ref {
		t.Fatalf("fast parse diverges on %q: got %+v, want %+v", data, fast, ref)
	}
	return true
}

func checkRefsParse(t *testing.T, data []byte) bool {
	t.Helper()
	sentinel := Refs{{ID: 99, Addr: transport.Addr{Host: "sentinel", Port: 9}}}
	fast := sentinel
	if !fast.ParseJSON(data) {
		if len(fast) != 1 || &fast[0] != &sentinel[0] || fast[0].ID != 99 {
			t.Fatalf("declined %q but wrote the receiver: %+v", data, fast)
		}
		return false
	}
	var ref Refs
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("fast parser accepted %q which encoding/json rejects: %v", data, err)
	}
	if fast == nil || !reflect.DeepEqual([]Ref(fast), []Ref(ref)) {
		t.Fatalf("fast parse diverges on %q: got %#v, want %#v", data, fast, ref)
	}
	return true
}

// TestRefParseCanonicalOnly round-trips every encodable sample through
// the parser and pins the non-canonical inputs it must decline.
func TestRefParseCanonicalOnly(t *testing.T) {
	for _, r := range sampleRefs() {
		// Lexer.Int declines magnitudes above 2^62; so does the parser.
		inRange := r.Addr.Port >= -1<<62 && r.Addr.Port <= 1<<62
		if b, ok := r.AppendJSON(nil); ok && !checkRefParse(t, b) && inRange {
			t.Errorf("declined its own canonical encoding %s", b)
		}
	}
	for _, src := range []string{
		``, `null`, `{}`, `{"id":1}`,
		`{"id":1,"addr":{"host":"h","port":2}} `,
		` {"id":1,"addr":{"host":"h","port":2}}`,
		`{ "id":1,"addr":{"host":"h","port":2}}`,
		`{"addr":{"host":"h","port":2},"id":1}`,
		`{"ID":1,"addr":{"host":"h","port":2}}`,
		`{"id":1,"addr":{"Host":"h","port":2}}`,
		`{"id":1,"addr":{"host":"\u0068","port":2}}`,
		`{"id":1,"addr":{"host":null,"port":2}}`,
		`{"id":1,"addr":null}`,
		`{"id":18446744073709551616,"addr":{"host":"h","port":2}}`,
		`{"id":-1,"addr":{"host":"h","port":2}}`,
		`{"id":01,"addr":{"host":"h","port":2}}`,
		`{"id":1e3,"addr":{"host":"h","port":2}}`,
		`{"id":1,"addr":{"host":"h","port":9223372036854775808}}`,
		`{"id":1,"addr":{"host":"h","port":2},"x":0}`,
		`{"id":1,"addr":{"host":"h","port":2}}x`,
		"{\"id\":1,\"addr\":{\"host\":\"bad\xff\",\"port\":2}}",
	} {
		if checkRefParse(t, []byte(src)) {
			t.Errorf("accepted non-canonical %q", src)
		}
	}
}

func TestRefsParseCanonicalOnly(t *testing.T) {
	refs := sampleRefs()
	for _, rs := range []Refs{{}, refs[1:2], refs[1:5]} {
		b, ok := rs.AppendJSON(nil)
		if !ok || !checkRefsParse(t, b) {
			t.Errorf("declined canonical list %s", b)
		}
	}
	for _, src := range []string{
		``, `null`, `[`, `[ ]`, `[,]`,
		`[{"id":1,"addr":{"host":"h","port":2}},]`,
		`[{"id":1,"addr":{"host":"h","port":2}} ,{"id":2,"addr":{"host":"h","port":3}}]`,
		`[{"id":1,"addr":{"host":"h","port":2}}]]`,
		`[null]`, `[1]`,
	} {
		if checkRefsParse(t, []byte(src)) {
			t.Errorf("accepted non-canonical %q", src)
		}
	}
}

// FuzzRefParse feeds arbitrary bytes to Ref.ParseJSON under
// checkRefParse's rule. The seed corpus lives in testdata/fuzz.
func FuzzRefParse(f *testing.F) {
	f.Add([]byte(`{"id":7,"addr":{"host":"n1","port":8000}}`))
	f.Add([]byte(`{"id":18446744073709551615,"addr":{"host":"ünï","port":-3}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRefParse(t, data)
	})
}

// FuzzRefsParse is the list twin of FuzzRefParse.
func FuzzRefsParse(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"id":7,"addr":{"host":"n1","port":8000}},{"id":8,"addr":{"host":"n2","port":8000}}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRefsParse(t, data)
	})
}
