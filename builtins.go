package splay

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/config"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/protocols/bittorrent"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/protocols/cyclon"
	"github.com/splaykit/splay/internal/protocols/epidemic"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/rpc"
)

// The built-in applications: one table, one entry per app, holding the
// catalog schema documents and hosted submissions are validated against
// and the Env factory every fleet runs. The catalog (BuiltinCatalog),
// the standalone daemon registry (DaemonRegistry) and the Scenario
// registry are all derived from it, so an app admitted anywhere runs
// the same code everywhere.
//
// A factory honors its schema's `report` parameter: when a job sets
// report=true, the instance attaches the protocol's metric instruments
// (pure memory operations, schedule-neutral) and streams them to the
// collect plane via Env.StartReporting. Both are strictly opt-in so
// that jobs and goldens that never ask for telemetry keep their exact
// schedules and their exact per-instance footprint (the million-node
// experiments are footprint-gated).

// builtin is one built-in application.
type builtin struct {
	schema config.AppSchema
	New    Factory
}

var builtins = []builtin{
	{
		schema: config.AppSchema{
			Name: "chord",
			Doc:  "Chord DHT ring: staggered joins, periodic maintenance, optional lookup workload",
			Params: []config.Param{
				{Name: "bits", Kind: config.KindInt, Doc: "ring identifier bits (m)", Default: 24, Min: 1, Max: 52, Bounded: true},
				{Name: "fault_tolerant", Kind: config.KindBool, Doc: "successor lists + lookup retries", Default: false},
				{Name: "lookups_per_min", Kind: config.KindInt, Doc: "per-node random lookups per minute (0 = none)", Default: 0, Min: 0, Max: 600, Bounded: true},
				{Name: "report", Kind: config.KindBool, Doc: "stream chord.* and rpc.* instruments to the collect plane", Default: false},
			},
		},
		New: chordBuiltin,
	},
	{
		schema: config.AppSchema{
			Name: "pastry",
			Doc:  "Pastry prefix-routing overlay with an optional route workload",
			Params: []config.Param{
				{Name: "lookups_per_min", Kind: config.KindInt, Doc: "per-node random routes per minute (0 = none)", Default: 0, Min: 0, Max: 600, Bounded: true},
			},
		},
		New: pastryBuiltin,
	},
	{
		schema: config.AppSchema{
			Name: "cyclon",
			Doc:  "Cyclon gossip membership: periodic view shuffles with the oldest peer",
			Params: []config.Param{
				{Name: "view_size", Kind: config.KindInt, Doc: "partial view size (c)", Default: 20, Min: 1, Max: 128, Bounded: true},
				{Name: "shuffle_len", Kind: config.KindInt, Doc: "entries exchanged per shuffle (l)", Default: 8, Min: 1, Max: 64, Bounded: true},
				{Name: "shuffle_every", Kind: config.KindDuration, Doc: "gossip period", Default: 5 * time.Second,
					Min: float64(100 * time.Millisecond), Max: float64(10 * time.Minute), Bounded: true},
				{Name: "report", Kind: config.KindBool, Doc: "stream cyclon.* instruments to the collect plane", Default: false},
			},
		},
		New: cyclonBuiltin,
	},
	{
		schema: config.AppSchema{
			Name: "epidemic",
			Doc:  "epidemic broadcast: position 1 may originate a rumor, everyone forwards",
			Params: []config.Param{
				{Name: "fanout", Kind: config.KindInt, Doc: "peers infected per round", Default: 8, Min: 1, Max: 64, Bounded: true},
				{Name: "originate", Kind: config.KindBool, Doc: "position-1 instance broadcasts a rumor", Default: false},
			},
		},
		New: epidemicBuiltin,
	},
	{
		schema: config.AppSchema{
			Name: "bittorrent",
			Doc:  "BitTorrent swarm: position 1 tracks, position 2 seeds, the rest leech",
			Params: []config.Param{
				{Name: "size", Kind: config.KindSize, Doc: "torrent payload size", Default: 4 << 20,
					Min: 1 << 10, Max: 1 << 30, Bounded: true},
				{Name: "piece_size", Kind: config.KindSize, Doc: "piece size", Default: 64 << 10,
					Min: 1 << 10, Max: 64 << 20, Bounded: true},
			},
		},
		New: bittorrentBuiltin,
	},
}

// builtinFactory returns the factory of a built-in application, or nil
// when the name is not built in.
func builtinFactory(name string) Factory {
	for _, b := range builtins {
		if b.schema.Name == name {
			return b.New
		}
	}
	return nil
}

// BuiltinCatalog returns the catalog of built-in applications (chord,
// pastry, cyclon, epidemic, bittorrent): the schemas "splayctl catalog"
// prints and splayd -host admits against. Every call returns a fresh
// catalog the caller may extend with its own apps.
func BuiltinCatalog() *Catalog {
	c := config.NewCatalog()
	for _, b := range builtins {
		if err := c.Register(b.schema); err != nil {
			panic(err) // static table: duplicates are impossible
		}
	}
	return c
}

// DaemonRegistry returns the application registry a standalone splayd
// daemon runs: the registry of a scenario that lists no apps, so every
// built-in, each instance handed an Env. aggregator is where instances
// started with report=true stream their instruments, presenting key;
// the zero Addr means no collector, and such instances then fail with
// ErrNoCollector.
func DaemonRegistry(aggregator Addr, key string) *core.Registry {
	var collect *collectTarget
	if aggregator != (Addr{}) {
		every, _ := Collect{}.reportDefaults()
		collect = &collectTarget{addr: aggregator, key: key, every: every}
	}
	reg, _ := Scenario{}.buildRegistry(collect, nil) // no specs: cannot fail
	return reg
}

// decodeParams decodes a job's parameters into p; empty params keep
// the zero value (the factory's defaults).
func decodeParams(app string, params []byte, p any) error {
	if len(params) == 0 {
		return nil
	}
	if err := json.Unmarshal(params, p); err != nil {
		return fmt.Errorf("%s app: %w", app, err)
	}
	return nil
}

// chordParams configures the "chord" built-in.
type chordParams struct {
	Bits          uint `json:"bits"`
	FaultTolerant bool `json:"fault_tolerant"`
	LookupsPerMin int  `json:"lookups_per_min"`
	Report        bool `json:"report"`
}

func (p chordParams) config() chord.Config {
	cfg := chord.DefaultConfig()
	if p.FaultTolerant {
		cfg = chord.FaultTolerantConfig()
	}
	if p.Bits > 0 {
		cfg.Bits = p.Bits
	}
	return cfg
}

func chordBuiltin(params []byte) (App, error) {
	var p chordParams
	if err := decodeParams("chord", params, &p); err != nil {
		return nil, err
	}
	return AppFunc(func(env *Env) error {
		ctx := env.AppContext()
		n, err := chord.New(ctx, p.config())
		if err != nil {
			return err
		}
		if p.Report {
			n.SetInstruments(chord.NewInstruments(env.Metrics()))
			n.SetRPCInstruments(rpc.NewInstruments(env.Metrics()))
		}
		if err := n.Start(); err != nil {
			return err
		}
		if p.Report {
			if err := env.StartReporting(); err != nil {
				return err
			}
		}
		// Staggered joins, one second apart, as in §5.2's descriptor.
		ctx.Sleep(time.Duration(ctx.Job.Position) * time.Second)
		if ctx.Job.Position > 1 && len(ctx.Job.Nodes) > 0 {
			if err := n.Join(ctx.Job.Nodes[0]); err != nil {
				ctx.Log.Printf("chord join failed: %v", err)
			}
		}
		n.StartMaintenance()
		if p.LookupsPerMin > 0 {
			ctx.Periodic(time.Minute/time.Duration(p.LookupsPerMin), func() {
				key := ctx.Rand().Uint64()
				if res, err := n.Lookup(key); err == nil {
					ctx.Log.Printf("lookup %d -> %s in %d hops (%s)", key, res.Node, res.Hops, res.RTT)
				}
			})
		}
		env.RunUntilKilled()
		n.Stop()
		return nil
	}), nil
}

// pastryParams configures the "pastry" built-in.
type pastryParams struct {
	LookupsPerMin int `json:"lookups_per_min"`
}

func pastryBuiltin(params []byte) (App, error) {
	var p pastryParams
	if err := decodeParams("pastry", params, &p); err != nil {
		return nil, err
	}
	return AppFunc(func(env *Env) error {
		ctx := env.AppContext()
		n := pastry.New(ctx, pastry.DefaultConfig())
		if err := n.Start(); err != nil {
			return err
		}
		ctx.Sleep(time.Duration(ctx.Job.Position) * time.Second)
		if ctx.Job.Position > 1 && len(ctx.Job.Nodes) > 0 {
			if err := n.Join(ctx.Job.Nodes[0]); err != nil {
				ctx.Log.Printf("pastry join failed: %v", err)
			}
		}
		n.StartMaintenance()
		if p.LookupsPerMin > 0 {
			ctx.Periodic(time.Minute/time.Duration(p.LookupsPerMin), func() {
				key := pastry.ID(ctx.Rand().Uint64())
				if res, err := n.Route(key); err == nil {
					ctx.Log.Printf("route %s -> %s in %d hops (%s)", key, res.Root, res.Hops, res.RTT)
				}
			})
		}
		env.RunUntilKilled()
		n.Stop()
		return nil
	}), nil
}

// cyclonParams configures the "cyclon" built-in. ShuffleEvery is
// wire-encoded as nanoseconds, like every duration in job parameters.
type cyclonParams struct {
	ViewSize     int   `json:"view_size"`
	ShuffleLen   int   `json:"shuffle_len"`
	ShuffleEvery int64 `json:"shuffle_every"`
	Report       bool  `json:"report"`
}

func (p cyclonParams) config() cyclon.Config {
	cfg := cyclon.DefaultConfig()
	if p.ViewSize > 0 {
		cfg.ViewSize = p.ViewSize
	}
	if p.ShuffleLen > 0 {
		cfg.ShuffleLen = p.ShuffleLen
	}
	if p.ShuffleEvery > 0 {
		cfg.ShuffleEvery = time.Duration(p.ShuffleEvery)
	}
	return cfg
}

func cyclonBuiltin(params []byte) (App, error) {
	var p cyclonParams
	if err := decodeParams("cyclon", params, &p); err != nil {
		return nil, err
	}
	return AppFunc(func(env *Env) error {
		ctx := env.AppContext()
		n := cyclon.New(ctx, p.config())
		if p.Report {
			n.SetInstruments(cyclon.NewInstruments(env.Metrics()))
		}
		if err := n.Start(ctx.Job.Nodes); err != nil {
			return err
		}
		if p.Report {
			if err := env.StartReporting(); err != nil {
				return err
			}
		}
		env.RunUntilKilled()
		n.Stop()
		return nil
	}), nil
}

// epidemicParams configures the "epidemic" built-in.
type epidemicParams struct {
	Fanout    int  `json:"fanout"`
	Originate bool `json:"originate"` // position-1 instance broadcasts
}

func (p epidemicParams) config() epidemic.Config {
	cfg := epidemic.DefaultConfig()
	if p.Fanout > 0 {
		cfg.Fanout = p.Fanout
	}
	return cfg
}

func epidemicBuiltin(params []byte) (App, error) {
	var p epidemicParams
	if err := decodeParams("epidemic", params, &p); err != nil {
		return nil, err
	}
	return AppFunc(func(env *Env) error {
		ctx := env.AppContext()
		n := epidemic.New(ctx, p.config(), ctx.Job.Nodes)
		if err := n.Start(); err != nil {
			return err
		}
		if p.Originate && ctx.Job.Position == 1 {
			ctx.After(10*time.Second, func() {
				n.Broadcast("rumor-1", []byte("hello from the rendez-vous"))
			})
		}
		env.RunUntilKilled()
		n.Stop()
		return nil
	}), nil
}

// bittorrentParams configures the "bittorrent" built-in: position 1
// runs the tracker, position 2 the initial seed, everyone else leeches.
type bittorrentParams struct {
	Size      int `json:"size"`
	PieceSize int `json:"piece_size"`
}

func (p bittorrentParams) torrent(name string) bittorrent.Torrent {
	t := bittorrent.Torrent{Name: name, Size: p.Size, PieceSize: p.PieceSize}
	if t.Size <= 0 {
		t.Size = 4 << 20
	}
	if t.PieceSize <= 0 {
		t.PieceSize = 64 << 10
	}
	return t
}

func bittorrentBuiltin(params []byte) (App, error) {
	var p bittorrentParams
	if err := decodeParams("bittorrent", params, &p); err != nil {
		return nil, err
	}
	return AppFunc(func(env *Env) error {
		ctx := env.AppContext()
		if ctx.Job.Position == 1 {
			tr := bittorrent.NewTracker(ctx)
			if err := tr.Start(); err != nil {
				return err
			}
			env.RunUntilKilled()
			return nil
		}
		if len(ctx.Job.Nodes) == 0 {
			return fmt.Errorf("bittorrent app: no tracker address")
		}
		peer := bittorrent.NewPeer(ctx, p.torrent(ctx.Job.JobID), ctx.Job.Nodes[0], ctx.Job.Position == 2, bittorrent.DefaultConfig())
		if err := peer.Start(); err != nil {
			return err
		}
		for !ctx.Killed() {
			ctx.Sleep(5 * time.Second)
			if peer.Complete() {
				ctx.Log.Printf("download complete (%d pieces)", peer.Pieces())
				break
			}
		}
		for !ctx.Killed() { // keep seeding
			ctx.Sleep(10 * time.Second)
		}
		peer.Stop()
		return nil
	}), nil
}
