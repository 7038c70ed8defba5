package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// jsonEnvelope is the reference decode of a request frame via
// encoding/json, mirroring the serve loop's fallback path.
type jsonEnvelope struct {
	ID     uint64          `json:"id"`
	Method string          `json:"m"`
	Args   json.RawMessage `json:"a"`
}

// sampleRequests covers every call shape the protocols issue plus the
// edge cases the codec must decline into the fallback: escape-heavy
// method names, non-ASCII, large raw args, overflow-boundary ids.
func sampleRequests() []request {
	big := json.RawMessage(`{"blob":"` + strings.Repeat("x", 4096) + `"}`)
	return []request{
		{},
		{ID: 1, Method: "echo", Args: []any{"hello"}},
		{ID: 2, Method: "add", Args: []any{19, 23}},
		{ID: 3, Method: "__ping"},
		{ID: 18446744073709551615, Method: "find_successor", Args: []any{uint64(1) << 52, 0}},
		{ID: 5, Method: "notify", Args: []any{json.RawMessage(`{"id":12345,"addr":{"host":"n0","port":8000}}`)}},
		{ID: 6, Method: "rumor", Args: []any{nil, true, false}},
		{ID: 7, Method: "neg", Args: []any{-42, int64(-1 << 60)}},
		{ID: 8, Method: "floaty", Args: []any{3.25, float64(1e300)}},
		{ID: 9, Method: "structs", Args: []any{struct {
			A string `json:"a"`
			B int    `json:"b"`
		}{"x", 2}}},
		{ID: 10, Method: `esc"ape`, Args: []any{"x"}},
		{ID: 11, Method: "ünïcode"},
		{ID: 12, Method: "html<&>"},
		{ID: 13, Method: "strs", Args: []any{`needs "quotes"`, "html <&>", "ünïcode", "ctrl\x01"}},
		{ID: 14, Method: "big", Args: []any{big}},
		{ID: 15, Method: "raw-ws", Args: []any{json.RawMessage(`{ "spaced" : 1 }`)}},
		{ID: 16, Method: "spaces", Args: []any{"a string with spaces"}},
	}
}

func sampleResponses() []response {
	return []response{
		{},
		{ID: 1, Result: json.RawMessage(`"pong"`)},
		{ID: 2, Result: json.RawMessage(`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":3}`)},
		{ID: 18446744073709551615, Result: json.RawMessage(`42`)},
		{ID: 4, Err: "rpc: unknown method \"x\""},
		{ID: 5, Err: "plain error"},
		{ID: 6, Err: "html <&> error"},
		{ID: 7, Err: "ünïcode error"},
		{ID: 8, Result: json.RawMessage(`[1,2,3]`)},
		{ID: 9, Result: json.RawMessage(`"needs \"escapes\""`)},
	}
}

// TestRPCFastEncodeMatchesEncodingJSON is the byte-compatibility
// contract for the encoders: whenever AppendJSON claims an envelope its
// bytes equal json.Marshal's.
func TestRPCFastEncodeMatchesEncodingJSON(t *testing.T) {
	for i, req := range sampleRequests() {
		req := req
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("req %d: marshal: %v", i, err)
		}
		if got, ok := req.AppendJSON(nil); ok && !bytes.Equal(got, want) {
			t.Errorf("req %d: fast encode diverges:\n got  %s\n want %s", i, got, want)
		}
	}
	for i, resp := range sampleResponses() {
		resp := resp
		want, err := json.Marshal(&resp)
		if err != nil {
			t.Fatalf("resp %d: marshal: %v", i, err)
		}
		if got, ok := resp.AppendJSON(nil); ok && !bytes.Equal(got, want) {
			t.Errorf("resp %d: fast encode diverges:\n got  %s\n want %s", i, got, want)
		}
	}
}

// checkRequestParse cross-checks parseRequest against encoding/json on
// one frame: acceptance must imply an identical decode.
func checkRequestParse(t *testing.T, frame []byte) {
	t.Helper()
	fast, ok := parseRequest(frame)
	var ref jsonEnvelope
	refErr := json.Unmarshal(frame, &ref)
	if !ok {
		return // declined: the fallback's behavior is authoritative
	}
	if refErr != nil {
		t.Fatalf("fast parser accepted %q which encoding/json rejects: %v", frame, refErr)
	}
	if fast.ID != ref.ID || string(fast.RawMethod) != ref.Method {
		t.Fatalf("fast parse diverges on %q: got (%d, %q), want (%d, %q)",
			frame, fast.ID, fast.RawMethod, ref.ID, ref.Method)
	}
	if !bytes.Equal(fast.RawArgs, ref.Args) && !(len(fast.RawArgs) == 0 && len(ref.Args) == 0) {
		// encoding/json accepts "a":null as a nil RawMessage; the fast
		// parser declines null, so spans must match exactly otherwise.
		t.Fatalf("fast args span diverges on %q: got %q, want %q", frame, fast.RawArgs, ref.Args)
	}
	// The lazy split must agree element-for-element with eager decoding.
	if len(ref.Args) > 0 {
		var want []json.RawMessage
		if err := json.Unmarshal(ref.Args, &want); err != nil {
			t.Fatalf("reference split failed on %q: %v", frame, err)
		}
		args := newArgsRaw(fast.RawArgs)
		defer args.release()
		if args.Len() != len(want) {
			t.Fatalf("lazy split length %d, want %d on %q", args.Len(), len(want), frame)
		}
		for i := range want {
			var a, b any
			errA := args.Decode(i, &a)
			errB := json.Unmarshal(want[i], &b)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("lazy element %d decode disagreement on %q: %v vs %v", i, frame, errA, errB)
			}
			if errA == nil && !reflect.DeepEqual(a, b) {
				t.Fatalf("lazy element %d diverges on %q: %v vs %v", i, frame, a, b)
			}
		}
	}
}

// checkResponseParse cross-checks response.parseJSON the same way.
func checkResponseParse(t *testing.T, frame []byte) {
	t.Helper()
	var fast response
	ok := fast.parseJSON(frame)
	var ref response
	refErr := json.Unmarshal(frame, &ref)
	if !ok {
		return
	}
	if refErr != nil {
		t.Fatalf("fast parser accepted %q which encoding/json rejects: %v", frame, refErr)
	}
	if fast.ID != ref.ID || fast.Err != ref.Err || !bytes.Equal(fast.Result, ref.Result) {
		t.Fatalf("fast response parse diverges on %q:\n got  %+v\n want %+v", frame, fast, ref)
	}
}

// TestRPCFastParseMatchesEncodingJSON round-trips every sample through
// json.Marshal and cross-checks both parsers, then pins a set of
// malformed and boundary frames.
func TestRPCFastParseMatchesEncodingJSON(t *testing.T) {
	for _, req := range sampleRequests() {
		req := req
		frame, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		checkRequestParse(t, frame)
	}
	for _, resp := range sampleResponses() {
		resp := resp
		frame, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		checkResponseParse(t, frame)
	}
	for _, src := range []string{
		``, `{`, `[]`, `null`, `{"id":}`, `{"id":1.5,"m":"x"}`,
		`{"id":1,"m":"x"}y`, `{"id":01,"m":"x"}`,
		`{"id":18446744073709551615,"m":"x"}`, // uint64 max is valid
		`{"id":18446744073709551616,"m":"x"}`, // overflow must not wrap
		`{"id":1,"m":"x","a":[1,]}`,           // trailing comma is invalid
		`{"id":1,"m":"x","a":[01]}`,           // invalid number inside args
		`{"id":1,"m":"x","a":["\u00zz"]}`,     // broken escape inside args
		`{"id":1,"m":"x","a":{"k":1}}`,        // args must be an array
		`{"id":1,"m":"x","a":null}`,
		`{"id":1,"m":"x","unknown":1}`,
		`{ "id" : 1 , "m" : "x" , "a" : [ 1 , "two" ] }`, // whitespace everywhere
		`{"id":1,"e":"boom"}`, `{"id":1,"r":{"x":[1,2]}}`, `{"id":1,"r":}`,
	} {
		checkRequestParse(t, []byte(src))
		checkResponseParse(t, []byte(src))
	}
}

// TestRPCFastCodecRandomized fuzzes the contract over random envelopes
// built from a mixed alphabet, the same shape as ctlproto's randomized
// differential test.
func TestRPCFastCodecRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	alphabet := []string{"a", "Z", "0", "_", ".", " ", `"`, `\`, "<", "&", "é", "\x7f", "\n", "{", "["}
	randStr := func() string {
		var b []byte
		for n := rng.Intn(8); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	randArg := func() any {
		switch rng.Intn(7) {
		case 0:
			return randStr()
		case 1:
			return rng.Intn(1000) - 500
		case 2:
			return rng.Uint64()
		case 3:
			return rng.Float64() * 1e6
		case 4:
			return nil
		case 5:
			return rng.Intn(2) == 0
		default:
			return map[string]any{"k": randStr(), "n": rng.Intn(10)}
		}
	}
	for i := 0; i < 2000; i++ {
		req := request{ID: rng.Uint64() >> uint(rng.Intn(64)), Method: randStr()}
		for n := rng.Intn(4); n > 0; n-- {
			req.Args = append(req.Args, randArg())
		}
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := req.AppendJSON(nil); ok && !bytes.Equal(got, want) {
			t.Fatalf("case %d: fast encode diverges:\n got  %s\n want %s", i, got, want)
		}
		checkRequestParse(t, want)

		resp := response{ID: rng.Uint64() >> uint(rng.Intn(64)), Err: randStr()}
		if rng.Intn(2) == 0 {
			raw, _ := json.Marshal(randArg())
			resp.Result = raw
			resp.Err = ""
		}
		want, err = json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := resp.AppendJSON(nil); ok && !bytes.Equal(got, want) {
			t.Fatalf("case %d: fast response encode diverges:\n got  %s\n want %s", i, got, want)
		}
		checkResponseParse(t, want)
	}
}

// TestDecodePayloadIntegersMatchEncodingJSON: the *uint64 and *int fast
// paths give encoding/json's value and error on every input, declines
// included.
func TestDecodePayloadIntegersMatchEncodingJSON(t *testing.T) {
	for _, src := range []string{
		`0`, `5`, `-0`, `-1`, `1e3`, `1.0`, `00`, `01`, ` 5`, `5 `, `null`,
		`"5"`, `true`, ``, `18446744073709551615`, `18446744073709551616`,
		`4611686018427387904`, `4611686018427387905`, `-4611686018427387904`,
		`9223372036854775807`, `-9223372036854775808`, `9223372036854775808`,
	} {
		gotU, wantU := uint64(7), uint64(7)
		gotErr, wantErr := decodePayload([]byte(src), &gotU), json.Unmarshal([]byte(src), &wantU)
		if gotU != wantU || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("uint64 %q: got (%d, %v), want (%d, %v)", src, gotU, gotErr, wantU, wantErr)
		}
		gotI, wantI := 7, 7
		gotErr, wantErr = decodePayload([]byte(src), &gotI), json.Unmarshal([]byte(src), &wantI)
		if gotI != wantI || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("int %q: got (%d, %v), want (%d, %v)", src, gotI, gotErr, wantI, wantErr)
		}
	}
}

// FuzzRPCRequestParse feeds arbitrary bytes to the request parser; any
// accepted frame must decode identically via encoding/json.
func FuzzRPCRequestParse(f *testing.F) {
	f.Add([]byte(`{"id":1,"m":"echo","a":["x",3]}`))
	f.Add([]byte(`{"id":18446744073709551615,"m":"__ping"}`))
	f.Add([]byte(`{"id":18446744073709551616,"m":"overflow"}`))
	f.Add([]byte(`{"id":2,"m":"esc\u0041pe","a":[1]}`))
	f.Add([]byte(`{"id":3,"m":"deep","a":[[[[[[{"k":[1,2,{"x":null}]}]]]]]]}`))
	f.Add([]byte(`{"id":4,"m":"big","a":["` + strings.Repeat("y", 2048) + `"]}`))
	f.Add([]byte(`{ "id" : 7 , "m" : "ws" , "a" : [ true , false , null ] }`))
	f.Add([]byte(`{"id":5,"m":"x","a":[1e309]}`))
	f.Add([]byte(`{"a":[,]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestParse(t, data)
	})
}

// FuzzRPCResponseParse is the response-side twin.
func FuzzRPCResponseParse(f *testing.F) {
	f.Add([]byte(`{"id":1,"r":"pong"}`))
	f.Add([]byte(`{"id":1,"e":"boom"}`))
	f.Add([]byte(`{"id":18446744073709551615,"r":{"hops":4}}`))
	f.Add([]byte(`{"id":1,"r":["nested",["deep",{"k":1.5e-3}]]}`))
	f.Add([]byte(`{"id":1,"e":"\u00e9scaped"}`))
	f.Add([]byte(`{"id":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResponseParse(t, data)
	})
}

// FuzzRPCRequestEncode fuzzes the encoder differentially over the
// scalar argument space.
func FuzzRPCRequestEncode(f *testing.F) {
	f.Add(uint64(1), "echo", "payload", int64(42), []byte(`{"k":1}`), true)
	f.Add(uint64(1<<63), `we"ird`, "sp ace", int64(-1), []byte(` [1, 2] `), false)
	f.Add(uint64(0), "html<&>", "ünïcode", int64(1<<62), []byte(`not json`), true)
	f.Fuzz(func(t *testing.T, id uint64, method, sArg string, iArg int64, raw []byte, withRaw bool) {
		req := request{ID: id, Method: method, Args: []any{sArg, iArg}}
		if withRaw {
			req.Args = append(req.Args, json.RawMessage(raw))
		}
		want, err := json.Marshal(&req)
		if err != nil {
			// encoding/json rejects it (e.g. invalid raw); the fast
			// encoder must decline too, not emit garbage.
			if got, ok := req.AppendJSON(nil); ok {
				t.Fatalf("fast encoder accepted an unmarshalable request: %s", got)
			}
			return
		}
		if got, ok := req.AppendJSON(nil); ok && !bytes.Equal(got, want) {
			t.Fatalf("fast encode diverges:\n got  %s\n want %s", got, want)
		}
	})
}
