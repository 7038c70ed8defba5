package chord

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// sampleFindResults covers find_successor replies plus the host, port,
// ID and hop-count edges the encoder must reproduce or decline.
func sampleFindResults() []findResult {
	ref := func(id uint64, host string, port int) NodeRef {
		return NodeRef{ID: id, Addr: transport.Addr{Host: host, Port: port}}
	}
	return []findResult{
		{},
		{Node: ref(7, "n1", 8000), Hops: 3},
		{Node: ref(math.MaxUint64, "10.0.0.1", 65535), Hops: 0},
		{Node: ref(1, "h", -1), Hops: -2},
		{Node: ref(2, "a<b>&c", 1), Hops: 1},
		{Node: ref(3, "ünïcode", 2), Hops: 1},
		{Node: ref(4, "ctrl\x01", 3), Hops: 1},
		{Node: ref(5, "n2", 8000), Hops: math.MaxInt64},
	}
}

// TestFindResultAppendJSONMatchesEncodingJSON: whenever AppendJSON
// claims a reply its bytes equal json.Marshal's; declines leave the
// buffer's length alone.
func TestFindResultAppendJSONMatchesEncodingJSON(t *testing.T) {
	claimed := 0
	for _, fr := range sampleFindResults() {
		want, err := json.Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := fr.AppendJSON([]byte("xy"))
		if !ok {
			if len(got) != 2 {
				t.Errorf("%s: decline grew the buffer to %q", want, got)
			}
			continue
		}
		claimed++
		if !bytes.Equal(got[2:], want) {
			t.Errorf("fast encode diverges:\n got  %s\n want %s", got[2:], want)
		}
	}
	if claimed < 4 {
		t.Errorf("only %d plain replies took the fast path", claimed)
	}
}

// checkFindResultParse: acceptance implies encoding/json decodes the
// same bytes into a zero value without error and to an equal value; a
// decline leaves the receiver untouched.
func checkFindResultParse(t *testing.T, data []byte) bool {
	t.Helper()
	sentinel := findResult{Node: NodeRef{ID: 99, Addr: transport.Addr{Host: "sentinel", Port: 9}}, Hops: 9}
	fast := sentinel
	if !fast.ParseJSON(data) {
		if fast != sentinel {
			t.Fatalf("declined %q but wrote the receiver: %+v", data, fast)
		}
		return false
	}
	var ref findResult
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("fast parser accepted %q which encoding/json rejects: %v", data, err)
	}
	if fast != ref {
		t.Fatalf("fast parse diverges on %q: got %+v, want %+v", data, fast, ref)
	}
	return true
}

func TestFindResultParseCanonicalOnly(t *testing.T) {
	for _, fr := range sampleFindResults()[:4] {
		b, ok := fr.AppendJSON(nil)
		if !ok || !checkFindResultParse(t, b) {
			t.Errorf("declined canonical reply %s", b)
		}
	}
	for _, src := range []string{
		``, `null`, `{}`,
		`{"node":{"id":7,"addr":{"host":"n1","port":8000}}}`,
		`{"hops":3,"node":{"id":7,"addr":{"host":"n1","port":8000}}}`,
		`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":3} `,
		`{"node":{"id":7,"addr":{"host":"n1","port":8000}}, "hops":3}`,
		`{"Node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":3}`,
		`{"node":null,"hops":3}`,
		`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":null}`,
		`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":3.0}`,
		`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":9223372036854775808}`,
		`{"node":{"id":7,"addr":{"host":"\u006e1","port":8000}},"hops":3}`,
		`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":3,"x":1}`,
	} {
		if checkFindResultParse(t, []byte(src)) {
			t.Errorf("accepted non-canonical %q", src)
		}
	}
}

// TestFindResultDecodeAllocs pins the per-hop decode cost: a canonical
// find_successor reply decodes through rpc.Result with one allocation,
// the host string.
func TestFindResultDecodeAllocs(t *testing.T) {
	res := rpc.Result(`{"node":{"id":12345,"addr":{"host":"n42","port":8000}},"hops":3}`)
	var fr findResult
	allocs := testing.AllocsPerRun(100, func() {
		if err := res.Decode(&fr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("Result.Decode(&findResult) allocates %.1f times, want ≤ 1", allocs)
	}
	if fr.Node.ID != 12345 || fr.Node.Addr.Host != "n42" || fr.Hops != 3 {
		t.Errorf("decoded %+v", fr)
	}
}

// FuzzFindResultParse feeds arbitrary bytes to findResult.ParseJSON
// under checkFindResultParse's rule. The seed corpus lives in
// testdata/fuzz.
func FuzzFindResultParse(f *testing.F) {
	f.Add([]byte(`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":3}`))
	f.Add([]byte(`{"node":{"id":18446744073709551615,"addr":{"host":"ü","port":-1}},"hops":-4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFindResultParse(t, data)
	})
}
