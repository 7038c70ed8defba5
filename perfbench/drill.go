package main

import (
	"context"
	"fmt"
	"time"

	splay "github.com/splaykit/splay"
)

// chaos-drill: a scenario document in the shape of
// examples/faultdrill/scenario.yaml, scaled up, loaded with
// splay.LoadScenario and driven step by step.
const (
	drillDaemons = 250
	drillNodes   = 200
	// drillWindow is the measured phase in simulated time.
	drillWindow = 500 * time.Second
	// drillJoins lets the staggered joins (one per second by position)
	// finish before the fault plan's clock starts. With a partition that
	// cuts the ring while it is still forming, a drill's cost varies
	// twofold from seed to seed.
	drillJoins = (drillNodes + 10) * time.Second
	// drillDrain lets the last report period reach the aggregator.
	drillDrain = 11 * time.Second
)

// drillDocument is the chaos-drill scenario for one seed.
func drillDocument(seed int64) []byte {
	return fmt.Appendf(nil, `name: chaos-drill
seed: %d

testbed:
  kind: modelnet
  daemons: %d

register_timeout: 60s
duration: %s

collect:
  metrics: true
  report_every: 5s
  key: drill

apps:
  - app: chord
    nodes: %d
    params:
      bits: 40
      fault_tolerant: true
      lookups_per_min: 6
      report: true

faults:
  eval_every: 5s
  events:
    - at: 60s
      kind: partition
      fraction: 50%%
  rules:
    - name: heal-on-failures
      when: total(chord.failed_lookups) > 10
      for: 10s
      do: heal

assert:
  - name: partition-bites
    eventually: total(chord.failed_lookups) > 0
  - name: lookups-reconverge
    converges: rate(chord.failed_lookups) < 0.5
`, seed, drillDaemons, drillWindow, drillNodes)
}

func drillRound(seed int64, m *meter) (*round, error) {
	r := newRound()

	t0 := time.Now()
	sc, err := splay.LoadScenario(drillDocument(seed))
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	t1 := time.Now()
	sess, err := sc.Start(context.Background())
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	defer sess.Stop() // idempotent; the success path stops it explicitly to time teardown
	t2 := time.Now()
	dep := sess.Deploy(sc.Apps[0])
	job, err := dep.Wait()
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	t3 := time.Now()
	if job.State != splay.JobRunning || len(job.Deployed) != drillNodes {
		return nil, fmt.Errorf("job %s is %s with %d of %d instances: %s",
			job.ID, job.State, len(job.Deployed), drillNodes, job.Err)
	}
	r.Setup = t3.Sub(t0)
	r.span("config.compile_s", t1.Sub(t0).Seconds())
	r.span("provision_s", t2.Sub(t1).Seconds())
	r.span("deploy_s", t3.Sub(t2).Seconds())

	tel := sess.Telemetry()
	// The plan's clock starts on a converged ring: the partition comes
	// 60s after arming, the rest of the window covers heal and recovery.
	m.begin(r)
	sess.RunFor(drillJoins)
	err = sess.ArmFaults()
	if err == nil {
		sess.RunFor(drillWindow - drillJoins)
		sess.RunFor(drillDrain)
		err = sess.CheckAssertions()
	}
	lookups := tel.Counter("chord.lookups")
	m.end(int(lookups))
	r.span("run_s", r.Wall.Seconds())
	if err != nil {
		return nil, fmt.Errorf("drill: %w", err)
	}

	fires := sess.Firings()
	if len(fires) != 1 {
		return nil, fmt.Errorf("heal rule fired %d times, want exactly once", len(fires))
	}
	if got := tel.Nodes(); got != drillNodes+1 {
		return nil, fmt.Errorf("%d streams reported, want %d instances plus the controller", got, drillNodes+1)
	}
	failed := tel.Counter("chord.failed_lookups")
	frames, bytes := tel.Received()
	c := r.Counts
	c["chord.lookups"] = float64(lookups)
	c["chord.failed_lookups"] = float64(failed)
	c["failed_share"] = float64(failed) / float64(lookups)
	c["rpc.calls"] = float64(tel.Counter("rpc.calls"))
	c["rpc.errors"] = float64(tel.Counter("rpc.errors"))
	c["rpc.timeouts"] = float64(tel.Counter("rpc.timeouts"))
	c["rpc.calls_per_lookup"] = c["rpc.calls"] / float64(lookups-failed)
	c["metrics.frames"] = float64(frames)
	c["metrics.bytes"] = float64(bytes)
	c["simnet.bytes"] = float64(sess.NetBytes())
	c["ctl.frames"] = float64(tel.Counter("ctl.frames"))
	c["ctl.deploy_frames"] = float64(dep.Frames())
	c["faults.firings"] = float64(len(fires))
	c["bytes_per_instance"] = float64(r.PeakHeap) / drillNodes

	t4 := time.Now()
	sess.Stop()
	r.span("teardown_s", time.Since(t4).Seconds())
	return r, nil
}
