package rpc

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/ring"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// BenchmarkRPCThroughput measures the steady-state cost of one complete
// call on a pooled connection in the simulator: client envelope encode,
// simnet delivery, server envelope decode, handler dispatch, result
// encode and client response decode. Virtual time is free, so ns/op and
// allocs/op are purely the message plane's CPU and garbage cost — the
// number that bounds every experiment's wall clock once the kernel
// itself is allocation-free. CI records it as BENCH_rpc.json.
func BenchmarkRPCThroughput(b *testing.B) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)
	sctx := core.NewAppContext(rt, nw.Node(1), core.JobInfo{Me: transport.Addr{Host: "n1", Port: 8000}}, nil)
	addr := transport.Addr{Host: "n1", Port: 8000}

	k.Go(func() {
		s := NewServer(sctx)
		s.Register("echo", func(args Args) (any, error) { return args.String(0), nil })
		s.Register("sum", func(args Args) (any, error) { return args.Int(0) + args.Int(1), nil })
		s.Register("notify", func(args Args) (any, error) { return nil, nil })
		if err := s.Start(8000); err != nil {
			b.Errorf("server: %v", err)
		}
	})
	cctx := core.NewAppContext(rt, nw.Node(0), core.JobInfo{}, nil)
	c := NewClient(cctx)
	// Warm the pooled connection and every buffer pool outside the timer.
	k.Go(func() {
		if _, err := c.Call(addr, "echo", "warmup"); err != nil {
			b.Errorf("warmup: %v", err)
		}
	})
	k.Run()

	b.ResetTimer()
	k.Go(func() {
		for i := 0; i < b.N; i++ {
			if _, err := c.Call(addr, "echo", "payload-string"); err != nil {
				b.Errorf("call: %v", err)
				return
			}
		}
	})
	k.Run()
}

// findReply has the wire shape of Chord's find_successor reply, with the
// same ring.Ref-based fast codec.
type findReply struct {
	Node ring.Ref `json:"node"`
	Hops int      `json:"hops"`
}

func (f findReply) AppendJSON(buf []byte) ([]byte, bool) {
	b, ok := f.Node.AppendJSON(append(buf, `{"node":`...))
	if !ok {
		return buf, false
	}
	b = llenc.AppendInt(append(b, `,"hops":`...), int64(f.Hops))
	return append(b, '}'), true
}

func (f *findReply) ParseJSON(data []byte) bool {
	l := llenc.Lexer{Data: data}
	var v findReply
	var ok bool
	if !l.Lit(`{"node":`) || !v.Node.Parse(&l) || !l.Lit(`,"hops":`) {
		return false
	}
	if v.Hops, ok = l.Int(); !ok || !l.Lit("}") || l.Pos != len(data) {
		return false
	}
	*f = v
	return true
}

// findSuccessor is the Chord per-hop handler shape: a uint64 key and an
// int hop count in, a findReply out.
func findSuccessor(args Args) (any, error) {
	var id uint64
	if err := args.Decode(0, &id); err != nil {
		return nil, err
	}
	return findReply{Node: ring.Ref{ID: id, Addr: transport.Addr{Host: "n42", Port: 8000}}, Hops: args.Int(1) + 1}, nil
}

// BenchmarkRPCCallShapes breaks the throughput number down by call
// shape: string echo, two-int sum, a struct arg with nil result (the
// Chord notify shape), the same struct pre-encoded with rpc.Marshal, and
// the Chord find_successor hop (uint64+int in, decoded findReply out).
func BenchmarkRPCCallShapes(b *testing.B) {
	type ref struct {
		ID   uint64         `json:"id"`
		Addr transport.Addr `json:"addr"`
	}
	preEncoded, err := Marshal(ref{ID: 12345, Addr: transport.Addr{Host: "n0", Port: 8000}})
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		name string
		call func(c *Client, addr transport.Addr) error
	}{
		{"echo-string", func(c *Client, addr transport.Addr) error {
			_, err := c.Call(addr, "echo", "payload-string")
			return err
		}},
		{"sum-ints", func(c *Client, addr transport.Addr) error {
			_, err := c.Call(addr, "sum", 19, 23)
			return err
		}},
		{"notify-struct", func(c *Client, addr transport.Addr) error {
			_, err := c.Call(addr, "notify", ref{ID: 12345, Addr: transport.Addr{Host: "n0", Port: 8000}})
			return err
		}},
		{"notify-raw", func(c *Client, addr transport.Addr) error {
			_, err := c.Call(addr, "notify", preEncoded)
			return err
		}},
		{"find-successor", func(c *Client, addr transport.Addr) error {
			res, err := c.Call(addr, "find_successor", uint64(12345), 2)
			if err != nil {
				return err
			}
			var fr findReply
			return res.Decode(&fr)
		}},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			k := sim.NewKernel()
			nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, 2, 1)
			rt := core.NewSimRuntime(k, 1)
			sctx := core.NewAppContext(rt, nw.Node(1), core.JobInfo{Me: transport.Addr{Host: "n1", Port: 8000}}, nil)
			addr := transport.Addr{Host: "n1", Port: 8000}
			k.Go(func() {
				s := NewServer(sctx)
				s.Register("echo", func(args Args) (any, error) { return args.String(0), nil })
				s.Register("sum", func(args Args) (any, error) { return args.Int(0) + args.Int(1), nil })
				s.Register("notify", func(args Args) (any, error) { return nil, nil })
				s.Register("find_successor", findSuccessor)
				if err := s.Start(8000); err != nil {
					b.Errorf("server: %v", err)
				}
			})
			cctx := core.NewAppContext(rt, nw.Node(0), core.JobInfo{}, nil)
			c := NewClient(cctx)
			k.Go(func() {
				if err := shape.call(c, addr); err != nil {
					b.Errorf("warmup: %v", err)
				}
			})
			k.Run()
			b.ResetTimer()
			k.Go(func() {
				for i := 0; i < b.N; i++ {
					if err := shape.call(c, addr); err != nil {
						b.Errorf("call: %v", err)
						return
					}
				}
			})
			k.Run()
		})
	}
}
