package splay

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/splaykit/splay/internal/churn"
	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/logging"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// AppSpec names one application a Scenario deploys: either a built-in
// (chord, pastry, cyclon, epidemic, bittorrent — Name alone), an inline
// App, or a Factory building the App from JSON job parameters.
type AppSpec struct {
	// Name registers the application and names it in job descriptors.
	Name string
	// App is an inline implementation (ignores Params).
	App App
	// New builds the implementation from Params. Factories must
	// tolerate nil params (daemons probe with nil before reserving).
	New Factory
	// Params is the JSON parameter document shipped with the job.
	Params []byte
	// Nodes is how many instances to deploy.
	Nodes int
	// Superset is the selection over-probe factor (0 = the controller
	// default, 1.25).
	Superset float64
	// FullList ships the whole deployment list as job.nodes instead of
	// a single rendez-vous node.
	FullList bool
	// Env tunes the capability grant and extra sandbox limits every
	// instance of this application receives.
	Env EnvConfig
	// Port is the instance port used when a churn trace instantiates
	// the application directly (no daemon grants one); default 9000.
	Port int
}

// Collect declares what a Scenario's observability plane gathers while
// the experiment runs.
type Collect struct {
	// Metrics runs an aggregator (on a dedicated monitoring host in
	// simulation, on an ephemeral loopback port live) and lets
	// instances stream instrument deltas to it via Env.StartReporting.
	// The controller's own instruments report over the same wire.
	Metrics bool
	// ReportEvery is the per-node delta report period (default 5s).
	ReportEvery time.Duration
	// Key authenticates metric streams (default "splay").
	Key string
	// MetricsPort is the aggregator's port on the simulated monitoring
	// host (default 7000); live testbeds always bind ephemerally.
	MetricsPort int
	// Logs receives daemon and instance log lines (nil discards).
	Logs io.Writer
}

// Scenario is the declarative description of one experiment: a testbed,
// the applications to deploy on it, optional churn, and what to collect.
// Run executes it end to end; Start returns a Session for experiments
// that interleave custom phases (static convergence, measurement
// windows, live watch rows) with the provisioned system.
//
// The same Scenario runs on a simulated testbed in virtual time or on a
// live testbed on real sockets; application code sees the same Env
// either way.
type Scenario struct {
	// Name labels the scenario (job IDs, logs).
	Name string
	// Seed fixes all randomness (0 = 2009 in simulation, wall-clock
	// live).
	Seed int64
	// Testbed is where to provision: PlanetLab(n), ModelNet(n),
	// Uniform(n, rtt, bps) or Live(n).
	Testbed Testbed
	// Apps are the applications to deploy.
	Apps []AppSpec
	// Churn drives population dynamics from a script or trace
	// (simulated testbeds only); it instantiates Apps[0] per slot.
	Churn ChurnSpec
	// Collect configures the observability plane.
	Collect Collect
	// Faults is the declarative fault schedule: timed injections plus
	// closed-loop trigger rules, armed right after deployment. The zero
	// plan injects nothing and leaves every schedule untouched.
	Faults FaultPlan
	// Assert are metric predicates the run must satisfy; violations
	// surface from Run as a typed *AssertionError alongside the still
	// valid Result. Trigger rules and assertions read the aggregated
	// telemetry and therefore need Collect.Metrics.
	Assert []Assertion
	// Settle is the daemon connect window before deployments begin
	// (default 45 simulated seconds; live, a 10s readiness deadline
	// polled on the controller's registry).
	Settle time.Duration
	// Duration is Run's workload window after deployment (default 30s).
	Duration time.Duration
	// RegisterTimeout bounds deployment probing (0 = the controller
	// default, 30s; heavy-tailed testbeds want 60s).
	RegisterTimeout time.Duration
	// ControllerPort overrides the daemon-connection port (default
	// 5555 simulated, ephemeral live).
	ControllerPort int
	// Workers sets how many OS threads may drive a simulated testbed's
	// kernel. It is a performance knob only: a scenario's result is a
	// pure function of Seed and the scenario itself, never of Workers or
	// GOMAXPROCS (invariant 9, DESIGN.md). Plain scenarios at large
	// populations provision a sharded kernel — the partition count comes
	// from autoParts, a pure function of the host population, so the
	// schedule can never depend on Workers — and 0 gives every partition
	// its own thread. Small populations and scenarios with collection,
	// faults or assertions run a single partition, where extra workers
	// are parked.
	Workers int
}

// Session is a provisioned scenario: controller started, daemons
// connected (or the churn trace replaying), collection plane up. It
// hands experiments the handles the declarative surface cannot know
// about — deployments, virtual-time control, and the aggregated view.
type Session struct {
	sc   Scenario
	seed int64
	live bool

	k      *sim.Kernel
	pk     *sim.ParKernel // drives k (partition 0) plus any further partitions (simulated testbeds)
	nw     *simnet.Network
	netIns simnet.Instruments
	hasNet bool

	rt      core.Runtime
	node    transport.Node // the controller's host (reporter dialing)
	ctl     *controller.Controller
	agg     *metrics.Aggregator
	reg     *core.Registry
	collect *collectTarget
	host    *Host

	ex    *churn.Executor
	insts []*core.Instance // churn slots

	// Fault plane (see faultplane.go). slots track every provisioned
	// daemon in both worlds; the rest exists only when the scenario
	// declares faults or assertions.
	slots    []*daemonSlot
	nHosts   int // simulated host count (partition/degrade masks)
	ctlAddr  transport.Addr
	rpcRules *faults.RPCRules
	frng     *rand.Rand
	eng      *faults.Engine
	act      *actuators

	startErr error
	stopped  atomic.Bool
}

// Start provisions the scenario and returns a Session. The caller owns
// it and must Stop it (Run does both).
func (sc Scenario) Start(ctx context.Context) (*Session, error) {
	if sc.Testbed == nil {
		return nil, errors.New("splay: scenario needs a testbed")
	}
	switch tb := sc.Testbed.(type) {
	case *simTestbed:
		return sc.startSim(tb)
	case *liveTestbed:
		return sc.startLive(ctx, tb)
	}
	return nil, fmt.Errorf("splay: unknown testbed %T", sc.Testbed)
}

// Run executes the scenario end to end: provision, deploy every app,
// run the workload window, stop the jobs, and return the result.
func (sc Scenario) Run(ctx context.Context) (*Result, error) {
	sess, err := sc.Start(ctx)
	if err != nil {
		return nil, err
	}
	defer sess.Stop()
	res := &Result{Metrics: sess.Telemetry()}
	if !sc.Churn.Enabled() {
		for _, spec := range sc.Apps {
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			job, err := sess.Deploy(spec).Wait()
			if err != nil {
				return nil, err
			}
			if job.State != JobRunning {
				return nil, fmt.Errorf("splay: job %s is %s: %s", job.ID, job.State, job.Err)
			}
			res.Jobs = append(res.Jobs, job)
		}
	}
	// Arm the fault plan with the deployed system as its time origin:
	// +0 on the plan's clock is "deployment just finished".
	if err := sess.ArmFaults(); err != nil {
		return nil, err
	}
	dur := sc.Duration
	if dur <= 0 {
		dur = 30 * time.Second
	}
	sess.RunFor(dur)
	for _, job := range res.Jobs {
		sess.StopJob(job.ID) //nolint:errcheck // best-effort teardown
	}
	// Assertion failures are results, not provisioning errors: the
	// Result still carries the telemetry that explains them.
	if err := sess.CheckAssertions(); err != nil {
		return res, err
	}
	return res, nil
}

// startSim provisions on the simulation kernel. The sequence of kernel
// events is pinned by the experiment goldens (ctlplane, obsplane):
// aggregator first (when collecting), then controller, then daemons
// staggered 2ms apart by host index, then the settle window.
func (sc Scenario) startSim(tb *simTestbed) (*Session, error) {
	seed := sc.Seed
	if seed == 0 {
		seed = 2009
	}
	s := &Session{sc: sc, seed: seed}
	if sc.Churn.Enabled() {
		s.pk = sim.NewParKernel(1, sc.Workers, 0)
		s.k = s.pk.Sub(0)
		return sc.startSimChurn(s, tb)
	}

	collecting := sc.Collect.Metrics
	mon := 0
	if collecting {
		mon = 1 // host 1 is the dedicated monitoring host
	}
	total := tb.daemons + 1 + mon
	s.nHosts = total
	model, proc := tb.build(total, seed)

	// Partition count: a pure function of the host population (never of
	// Workers — invariant 9), restricted to plain scenarios. Collection,
	// logging, faults and assertions keep their established
	// single-partition planes: the aggregator, fault actuators and shared
	// loggers all assume one kernel owns every host.
	parts := 1
	lookahead := time.Duration(0)
	if !collecting && sc.Collect.Logs == nil && sc.Faults.Empty() && len(sc.Assert) == 0 {
		if p := autoParts(total); p > 1 {
			if md, ok := model.(simnet.MinDelayModel); ok && md.MinDelay() > 0 {
				parts, lookahead = p, md.MinDelay()
			}
		}
	}
	workers := sc.Workers
	if workers == 0 {
		workers = parts // auto: one thread per partition
	}
	s.pk = sim.NewParKernel(parts, workers, lookahead)
	s.k = s.pk.Sub(0)
	var nw *simnet.Network
	if parts > 1 {
		var err error
		nw, err = simnet.NewPartitioned(s.pk, model, total, seed)
		if err != nil {
			return nil, err
		}
	} else {
		nw = simnet.New(s.k, model, total, seed)
	}
	if proc != nil {
		nw.SetProcDelay(proc)
	}
	// One runtime per partition, seeded like the sharded experiments
	// (runChordPar): partition 0 draws the plain seed, so single-partition
	// scenarios keep their exact historical schedules.
	rts := make([]*core.SimRuntime, parts)
	for p := range rts {
		rts[p] = core.NewSimRuntime(s.pk.Sub(p), seed+int64(p))
	}
	rt := rts[0]
	s.nw, s.rt = nw, rt

	var dmnIns daemon.Instruments
	if collecting {
		// Network-global instruments: the ground truth monitoring
		// overhead is measured against.
		netReg := metrics.NewRegistry()
		s.netIns = simnet.NewInstruments(netReg)
		s.hasNet = true
		nw.SetInstruments(s.netIns)

		every, key := sc.Collect.reportDefaults()
		port := sc.Collect.MetricsPort
		if port == 0 {
			port = 7000
		}
		var agg *metrics.Aggregator
		s.k.Go(func() {
			var err error
			agg, err = metrics.NewAggregator(nw.Node(1), port, s.k.Go)
			if err == nil {
				agg.Authorize(key)
			}
		})
		s.pk.Run()
		if agg == nil {
			return nil, errors.New("splay: aggregator failed to start")
		}
		s.agg = agg
		s.collect = &collectTarget{
			addr:  transport.Addr{Host: simnet.HostName(1), Port: port},
			key:   key,
			every: every,
		}
	}

	cfg := controller.DefaultConfig()
	if sc.ControllerPort != 0 {
		cfg.Port = sc.ControllerPort
	}
	if sc.RegisterTimeout > 0 {
		cfg.RegisterTimeout = sc.RegisterTimeout
	}
	ctl := controller.New(rt, nw.Node(0), cfg)
	s.ctl = ctl
	s.node = nw.Node(0)
	if collecting {
		// Controller instruments plus fleet-wide daemon accounting
		// share one registry, reported over the wire like every
		// application stream.
		ctlReg := metrics.NewRegistry()
		ctl.SetInstruments(controller.NewInstruments(ctlReg))
		dmnIns = daemon.NewInstruments(ctlReg)
		// One instrument set is shared by the whole fleet: the counters
		// sum correctly but the per-daemon jobs gauge would just be
		// clobbered by whichever daemon Set it last — disable it.
		dmnIns.Jobs = nil
		aggAddr, key, every := s.collect.addr, s.collect.key, s.collect.every
		s.k.Go(func() {
			s.startErr = ctl.Start()
			if s.startErr != nil {
				return
			}
			ctlRep, err := metrics.DialReporter(nw.Node(0), aggAddr, ctlReg,
				metrics.ReporterConfig{Key: key, Node: "ctl"})
			if err != nil {
				s.startErr = err
				return
			}
			for {
				s.k.Sleep(every)
				if s.stopped.Load() {
					return
				}
				ctlRep.Flush() //nolint:errcheck // monitoring is best effort
			}
		})
	} else {
		s.k.Go(func() { s.startErr = ctl.Start() })
	}

	// The RPC fault filter exists only for non-empty plans: an unarmed
	// filter would still sit on every call path, and schedule neutrality
	// wants the default client untouched.
	if !sc.Faults.Empty() {
		s.rpcRules = faults.NewRPCRules(seed)
	}
	reg, err := sc.buildRegistry(s.collect, s.rpcRules)
	if err != nil {
		return nil, err
	}
	s.reg = reg

	lg := sc.simLogger(rt)
	ctlAddr := transport.Addr{Host: simnet.HostName(0), Port: cfg.Port}
	s.ctlAddr = ctlAddr
	base := 1 + mon
	for i := base; i < base+tb.daemons; i++ {
		host := i
		// A daemon lives on its host's kernel partition with that
		// partition's runtime; with one partition this is the plain
		// historical wiring.
		part := nw.Host(host).Part()
		drt := rts[part]
		dcfg := daemon.DefaultConfig(simnet.HostName(host))
		if !sc.Faults.Empty() {
			// Fault-plane sessions survive their own faults: daemons
			// redial a lost controller session with jittered backoff.
			dcfg.Reconnect = true
		}
		mk := func() *daemon.Daemon {
			d := daemon.New(drt, nw.Node(host), reg, dcfg, lg)
			if collecting {
				d.SetInstruments(dmnIns)
			}
			return d
		}
		d := mk()
		s.slots = append(s.slots, &daemonSlot{host: host, name: dcfg.Name, mk: mk, d: d})
		s.pk.GoAfter(part, time.Duration(host)*2*time.Millisecond, func() {
			d.Connect(ctlAddr) //nolint:errcheck // expiry is the monitor's job
		})
	}
	// Connect window plus one full ping rotation, so selection has
	// measured responsiveness for every daemon.
	settle := sc.Settle
	if settle <= 0 {
		settle = 45 * time.Second
	}
	s.pk.RunFor(settle)
	if s.startErr != nil {
		return nil, s.startErr
	}
	if got := ctl.Daemons(); got != tb.daemons {
		return nil, fmt.Errorf("splay: only %d/%d daemons connected", got, tb.daemons)
	}
	return s, nil
}

// autoParts picks a simulated testbed's kernel partition count from its
// host population. It must stay a pure function of that population —
// never of Workers, GOMAXPROCS or the machine — because partitioning is
// schedule-visible (hosts land on partitions, cross-partition traffic
// rides lookahead barriers) while invariant 9 promises results depend
// only on the scenario itself. Thresholds follow the sharded
// experiments: a couple thousand hosts fit one event loop comfortably;
// past that, shards keep the per-loop event rate flat.
func autoParts(hosts int) int {
	switch {
	case hosts >= 32768:
		return 8
	case hosts >= 8192:
		return 4
	case hosts >= 2048:
		return 2
	default:
		return 1
	}
}

// startSimChurn provisions a churn-driven population: no controller —
// the trace is the deployment, instantiating Apps[0] per slot.
func (sc Scenario) startSimChurn(s *Session, tb *simTestbed) (*Session, error) {
	if len(sc.Apps) != 1 {
		return nil, fmt.Errorf("splay: a churn scenario drives exactly one app (have %d)", len(sc.Apps))
	}
	if !sc.Faults.Empty() || len(sc.Assert) > 0 {
		// The fault plane actuates through the controller and daemon
		// slots; a churn trace is its own population schedule.
		return nil, errors.New("splay: fault plans drive controller-provisioned scenarios, not churn traces")
	}
	if sc.Collect.Metrics {
		// Not wired yet: rejecting beats Env.StartReporting failing
		// invisibly inside every churned-in instance.
		return nil, errors.New("splay: churn scenarios do not collect metrics yet")
	}
	slots := sc.Churn.Slots()
	model, proc := tb.build(slots, s.seed)
	nw := simnet.New(s.k, model, slots, s.seed)
	if proc != nil {
		nw.SetProcDelay(proc)
	}
	rt := core.NewSimRuntime(s.k, s.seed)
	s.nw, s.rt = nw, rt
	reg, err := sc.buildRegistry(nil, nil)
	if err != nil {
		return nil, err
	}
	s.reg = reg
	spec := sc.Apps[0]
	port := spec.Port
	if port == 0 {
		port = 9000
	}
	lg := sc.simLogger(rt)
	s.insts = make([]*core.Instance, slots)
	ctl := churn.NodeControlFuncs{
		Start: func(slot int) {
			nw.Host(slot).SetDown(false)
			app, err := reg.New(spec.Name, spec.Params)
			if err != nil {
				return
			}
			job := core.JobInfo{
				JobID:    sc.Name,
				Me:       transport.Addr{Host: simnet.HostName(slot), Port: port},
				Position: slot + 1,
			}
			s.insts[slot] = core.StartInstance(rt, nw.Node(slot), job, lg, app)
		},
		Stop: func(slot int) {
			if inst := s.insts[slot]; inst != nil {
				inst.Kill()
				s.insts[slot] = nil
			}
			nw.Host(slot).SetDown(true)
		},
	}
	s.ex = churn.NewExecutor(rt, sc.Churn.trace, ctl)
	s.k.Go(s.ex.Run)
	return s, nil
}

// startLive provisions controller and daemons in-process on loopback
// sockets: the quickstart path.
func (sc Scenario) startLive(ctx context.Context, tb *liveTestbed) (*Session, error) {
	if sc.Churn.Enabled() {
		return nil, errors.New("splay: churn is only supported on simulated testbeds")
	}
	seed := sc.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Session{sc: sc, seed: seed, live: true}
	rt := core.NewLiveRuntime(seed)
	s.rt = rt
	node := livenet.NewNode(tb.host)
	cfg := controller.DefaultConfig()
	cfg.Port = controller.PortEphemeral
	if sc.ControllerPort != 0 {
		cfg.Port = sc.ControllerPort
	}
	if sc.RegisterTimeout > 0 {
		cfg.RegisterTimeout = sc.RegisterTimeout
	}
	ctl := controller.New(rt, node, cfg)
	s.ctl = ctl
	s.node = node

	var dmnIns daemon.Instruments
	if sc.Collect.Metrics {
		every, key := sc.Collect.reportDefaults()
		// The aggregator gets its own loopback address: the controller
		// host is blacklisted for applications, the monitoring plane
		// must not be.
		aggNode := livenet.NewNode("127.0.2.1")
		agg, err := metrics.NewAggregator(aggNode, sc.Collect.MetricsPort, func(fn func()) { go fn() })
		if err != nil {
			return nil, fmt.Errorf("splay: aggregator: %w", err)
		}
		agg.Authorize(key)
		s.agg = agg
		s.collect = &collectTarget{addr: agg.Addr(), key: key, every: every}
		ctlReg := metrics.NewRegistry()
		ctl.SetInstruments(controller.NewInstruments(ctlReg))
		dmnIns = daemon.NewInstruments(ctlReg)
		dmnIns.Jobs = nil
		go func() {
			rep, err := metrics.DialReporter(node, s.collect.addr, ctlReg,
				metrics.ReporterConfig{Key: key, Node: "ctl"})
			if err != nil {
				return
			}
			for !s.stopped.Load() {
				time.Sleep(every)
				if rep.Flush() != nil {
					rep.Reconnect() //nolint:errcheck // retried next period
				}
			}
		}()
	}

	if err := ctl.Start(); err != nil {
		s.Stop()
		return nil, err
	}
	ctlAddr := ctl.Addr()
	s.ctlAddr = ctlAddr
	if !sc.Faults.Empty() {
		s.rpcRules = faults.NewRPCRules(seed)
	}
	reg, err := sc.buildRegistry(s.collect, s.rpcRules)
	if err != nil {
		s.Stop()
		return nil, err
	}
	s.reg = reg

	for i := 0; i < tb.daemons; i++ {
		// Distinct loopback addresses per daemon (names must be unique
		// per controller session), each with its own probed port range
		// so several daemons and unrelated processes coexist on one
		// machine.
		name := fmt.Sprintf("%s.%d", tb.daemonIP, i+1)
		dcfg := daemon.DefaultConfig(name)
		dcfg.PortLow = tb.basePort + i*tb.portSpan
		dcfg.PortHigh = dcfg.PortLow + tb.portSpan - 1
		dcfg.ProbePorts = true
		if !sc.Faults.Empty() {
			dcfg.Reconnect = true
		}
		var lg core.Logger
		if sc.Collect.Logs != nil {
			lg = logging.New(&logging.WriterSink{W: sc.Collect.Logs}, name, dcfg.Key, nil)
		}
		mk := func() *daemon.Daemon {
			return daemon.New(rt, livenet.NewNode(name), reg, dcfg, lg)
		}
		d := mk()
		if err := d.Connect(ctlAddr); err != nil {
			s.Stop()
			return nil, err
		}
		s.slots = append(s.slots, &daemonSlot{host: -1, name: name, mk: mk, d: d})
	}
	// Readiness: poll the controller's registry instead of sleeping an
	// arbitrary delay and hoping the daemons made it.
	settle := sc.Settle
	if settle <= 0 {
		settle = 10 * time.Second
	}
	deadline := time.Now().Add(settle)
	for ctl.Daemons() < tb.daemons {
		if ctx != nil && ctx.Err() != nil {
			s.Stop()
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			got := ctl.Daemons()
			s.Stop()
			return nil, fmt.Errorf("splay: only %d/%d daemons connected after %s", got, tb.daemons, settle)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return s, nil
}

// reportDefaults resolves the collection plane's period and key.
func (c Collect) reportDefaults() (every time.Duration, key string) {
	every, key = c.ReportEvery, c.Key
	if every <= 0 {
		every = 5 * time.Second
	}
	if key == "" {
		key = "splay"
	}
	return every, key
}

// simLogger builds the daemons'/instances' logger from Collect.Logs,
// stamped with virtual time. Nil writer, nil logger.
func (sc Scenario) simLogger(rt core.Runtime) core.Logger {
	if sc.Collect.Logs == nil {
		return nil
	}
	name := sc.Name
	if name == "" {
		name = "scenario"
	}
	return logging.New(&logging.WriterSink{W: sc.Collect.Logs}, name, name, rt.Now)
}

// buildRegistry assembles the deployable application registry:
// Env-wrapped factories for the scenario's specs (a spec that names a
// built-in and brings no implementation runs the built-in), then every
// built-in the specs do not shadow, so a hosted fleet runs whatever its
// catalog admits. A duplicate spec name surfaces as an error.
func (sc Scenario) buildRegistry(collect *collectTarget, rules *faults.RPCRules) (*core.Registry, error) {
	reg := core.NewRegistry()
	named := make(map[string]bool, len(sc.Apps))
	for _, spec := range sc.Apps {
		if spec.Name == "" {
			return nil, errors.New("splay: app spec needs a name")
		}
		if spec.App == nil && spec.New == nil {
			if spec.New = builtinFactory(spec.Name); spec.New == nil {
				return nil, fmt.Errorf("splay: app %q is not built in and has no implementation", spec.Name)
			}
		}
		if err := reg.Register(spec.Name, makeFactory(spec, collect, rules)); err != nil {
			return nil, fmt.Errorf("splay: %w", err)
		}
		named[spec.Name] = true
	}
	for _, b := range builtins {
		if !named[b.schema.Name] {
			reg.MustRegister(b.schema.Name, makeFactory(AppSpec{Name: b.schema.Name, New: b.New}, collect, rules))
		}
	}
	return reg, nil
}

// makeFactory wraps an SDK app (or factory) as an engine factory that
// hands instances a capability-scoped Env.
func makeFactory(spec AppSpec, collect *collectTarget, rules *faults.RPCRules) core.Factory {
	return func(params json.RawMessage) (core.App, error) {
		app := spec.App
		if spec.New != nil {
			a, err := spec.New(params)
			if err != nil {
				return nil, err
			}
			app = a
		}
		if app == nil {
			return nil, fmt.Errorf("splay: app %q has no implementation", spec.Name)
		}
		return core.AppFunc(func(ctx *core.AppContext) error {
			return app.Run(newEnv(ctx, spec.Env, collect, rules))
		}), nil
	}
}

// Deploy submits one application for deployment and returns immediately;
// Wait drives the run until the job is placed. The submission runs as a
// kernel task in simulation, a goroutine live — exactly the shape every
// experiment hand-wired before this API existed.
func (s *Session) Deploy(spec AppSpec) *Deployment {
	dep := &Deployment{sess: s, done: make(chan struct{})}
	if s.ctl == nil {
		dep.err = errors.New("splay: churn scenarios deploy through the trace, not the controller")
		close(dep.done)
		return dep
	}
	js := controller.JobSpec{
		App: spec.Name, Params: spec.Params, Nodes: spec.Nodes,
		Superset: spec.Superset, FullList: spec.FullList,
	}
	framesBefore := s.ctl.FramesSent()
	submit := func() {
		dep.submittedAt = s.rt.Now()
		job, err := s.ctl.Submit(js)
		// Snapshot the frame counter at completion so steady-state ping
		// traffic after the deployment does not pollute the load figure.
		dep.frames = s.ctl.FramesSent() - framesBefore
		dep.job, dep.err = job, err
		close(dep.done)
	}
	if s.k != nil {
		s.k.Go(submit)
	} else {
		go submit()
	}
	return dep
}

// Deployment is one in-flight (or completed) job submission.
type Deployment struct {
	sess        *Session
	done        chan struct{}
	job         *JobStatus
	err         error
	submittedAt time.Time
	frames      int64
}

func (d *Deployment) finished() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// SubmittedAt is the (virtual or real) time the submission entered the
// controller — the zero of per-instance deployment delay. It is set
// before any instance starts, so application code may read it.
func (d *Deployment) SubmittedAt() time.Time { return d.submittedAt }

// Frames is the controller command-frame load this deployment cost
// (valid after Wait).
func (d *Deployment) Frames() int64 { return d.frames }

// Wait drives the run until the submission completes: up to 30 windows
// of 10 simulated seconds, or five real minutes live. It returns the
// job's status; callers decide whether non-running states are fatal.
func (d *Deployment) Wait() (*JobStatus, error) {
	if d.sess.k != nil {
		for i := 0; i < 30 && !d.finished(); i++ {
			d.sess.pk.RunFor(10 * time.Second)
		}
		if !d.finished() {
			return nil, errors.New("splay: deployment did not finish within the run window")
		}
	} else {
		select {
		case <-d.done:
		case <-time.After(5 * time.Minute):
			return nil, errors.New("splay: deployment timed out")
		}
	}
	return d.job, d.err
}

// RunFor advances the scenario: d of virtual time in simulation, a real
// sleep live.
func (s *Session) RunFor(d time.Duration) {
	if s.k != nil {
		s.pk.RunFor(d)
	} else {
		time.Sleep(d)
	}
}

// Go starts fn as a driver task (kernel task in simulation, goroutine
// live). Driver tasks may Sleep and call into deployed instances.
func (s *Session) Go(fn func()) {
	if s.k != nil {
		s.k.Go(fn)
	} else {
		go fn()
	}
}

// GoAfter schedules fn as a driver task after d.
func (s *Session) GoAfter(d time.Duration, fn func()) {
	if s.k != nil {
		s.k.GoAfter(d, fn)
	} else {
		time.AfterFunc(d, func() { fn() })
	}
}

// Sleep parks the calling driver task.
func (s *Session) Sleep(d time.Duration) { s.rt.Sleep(d) }

// Now returns the scenario's current (virtual or real) time.
func (s *Session) Now() time.Time { return s.rt.Now() }

// Seed is the resolved random seed.
func (s *Session) Seed() int64 { return s.seed }

// Partitions reports how many kernel partitions the simulated testbed
// provisioned (see autoParts); 0 on live testbeds. The count is part of
// the scenario's schedule; Workers never is.
func (s *Session) Partitions() int {
	if s.pk == nil {
		return 0
	}
	return s.pk.Parts()
}

// Daemons reports the connected daemon population (under churn, the
// currently alive slot count).
func (s *Session) Daemons() int {
	if s.ctl != nil {
		return s.ctl.Daemons()
	}
	if s.ex != nil {
		return s.ex.Alive()
	}
	return 0
}

// Telemetry returns the aggregated metric view, nil when the scenario
// collects none.
func (s *Session) Telemetry() *Telemetry {
	if s.agg == nil {
		return nil
	}
	return &Telemetry{agg: s.agg}
}

// NetBytes is the total stream payload the simulated network carried —
// the denominator of the monitoring byte share (0 live: the real network
// is not ours to meter).
func (s *Session) NetBytes() uint64 {
	if !s.hasNet {
		return 0
	}
	return s.netIns.StreamBytes.Total()
}

// StopJob terminates a deployed job everywhere. In simulation the stop
// protocol runs as a kernel task and the kernel is driven until the
// daemons acknowledged.
func (s *Session) StopJob(id string) error {
	if s.ctl == nil {
		return errors.New("splay: no controller in a churn scenario")
	}
	if s.k == nil {
		return s.ctl.StopJob(id)
	}
	var err error
	done := false
	s.k.Go(func() {
		err = s.ctl.StopJob(id)
		done = true
	})
	for i := 0; i < 30 && !done; i++ {
		s.pk.RunFor(10 * time.Second)
	}
	if !done {
		return errors.New("splay: job stop did not finish within the run window")
	}
	return err
}

// Stop tears the session down: churn replay, controller, daemons,
// aggregator, and any churn-started instances. Idempotent.
func (s *Session) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	if s.ex != nil {
		s.ex.Stop()
	}
	for _, inst := range s.insts {
		if inst != nil {
			inst.Kill()
		}
	}
	if s.eng != nil {
		s.eng.Stop()
	}
	if s.host != nil && s.live {
		// Kill hosted jobs while the controller still answers; simulated
		// sessions halt with their kernel.
		s.host.svc.Close()
	}
	if s.ctl != nil {
		s.ctl.Stop()
	}
	for _, sl := range s.slots {
		// Simulated daemons need no teardown (the kernel stopped with
		// the session); live ones hold real sockets.
		if s.live && sl.d != nil {
			sl.d.Close()
		}
	}
	if s.agg != nil {
		s.agg.Close()
	}
}
