package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	splay "github.com/splaykit/splay"
)

// hosted-submit: a resident Live(4) fleet behind Session.Host, served by
// httptest, with one closed-loop splay.Connect client per tenant.
const (
	hostedDaemons   = 4
	hostedJobNodes  = 2
	hostedCycles    = 500 // per client and round
	hostedPoll      = 200 * time.Microsecond
	hostedApp       = "idle"
	hostedCycleWait = 30 * time.Second // a cycle stuck this long fails the run
)

// hostedTenants are the two accounts; each runs one client.
var hostedTenants = []splay.HostTenant{
	{Name: "alpha", Key: "key-alpha"},
	{Name: "beta", Key: "key-beta"},
}

// hostedSubmissions are one client's inputs for a round: alternately a
// scenario document (compiled at admission) and canonical wire JSON,
// starting with the form seed's parity picks.
func hostedSubmissions(seed int64, tenant string, n int) ([][]byte, error) {
	subs := make([][]byte, n)
	for i := range subs {
		name := fmt.Sprintf("%s-%d", tenant, i)
		jobSeed := seed*1_000_003 + int64(i)
		if (int64(i)+seed)%2 == 0 {
			subs[i] = fmt.Appendf(nil,
				"name: %s\nseed: %d\nduration: 1h\napps:\n  - app: %s\n    nodes: %d\n",
				name, jobSeed, hostedApp, hostedJobNodes)
			continue
		}
		data, err := splay.Scenario{
			Name:     name,
			Seed:     jobSeed,
			Apps:     []splay.AppSpec{{Name: hostedApp, Nodes: hostedJobNodes}},
			Duration: time.Hour,
		}.Marshal()
		if err != nil {
			return nil, err
		}
		subs[i] = data
	}
	return subs, nil
}

// hostedCatalog admits the built-ins plus the fleet's own app.
func hostedCatalog() (*splay.Catalog, error) {
	cat := splay.BuiltinCatalog()
	if err := cat.Register(splay.AppSchema{Name: hostedApp, Doc: "holds its nodes until killed"}); err != nil {
		return nil, err
	}
	return cat, nil
}

func hostedRound(seed int64, m *meter) (*round, error) {
	r := newRound()
	inputs := make([][][]byte, len(hostedTenants))
	for i, t := range hostedTenants {
		subs, err := hostedSubmissions(seed, t.Name, hostedCycles)
		if err != nil {
			return nil, err
		}
		inputs[i] = subs
	}
	cat, err := hostedCatalog()
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	sess, err := splay.Scenario{
		Name:    "resident",
		Testbed: splay.Live(hostedDaemons),
		Apps: []splay.AppSpec{{
			Name: hostedApp,
			App:  splay.AppFunc(func(*splay.Env) error { return nil }),
		}},
	}.Start(context.Background())
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	defer sess.Stop()
	host, err := sess.Host(splay.HostConfig{Tenants: hostedTenants, Catalog: cat})
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	srv := httptest.NewServer(host.Handler())
	defer srv.Close()
	r.Setup = time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	clients := make([]*client, len(hostedTenants))
	for i, t := range hostedTenants {
		clients[i] = &client{remote: splay.Connect(srv.URL, t.Key), tenant: t.Name}
	}
	var wg sync.WaitGroup
	m.begin(r)
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.err = cl.loop(ctx, inputs[i])
		}()
	}
	wg.Wait()
	done := 0
	for _, cl := range clients {
		done += len(cl.placeMS)
	}
	m.end(done)
	for _, cl := range clients {
		if cl.err != nil {
			return nil, fmt.Errorf("tenant %s: %w", cl.tenant, cl.err)
		}
		for i := range cl.placeMS {
			r.span(opSpan, cl.submitMS[i]+cl.placeMS[i])
			r.span("host.submit_ms", cl.submitMS[i])
			r.span("host.place_ms", cl.placeMS[i])
			r.span("host.kill_ms", cl.killMS[i])
			r.span("host.release_ms", cl.releaseMS[i])
		}
		u, err := cl.remote.Usage(ctx, cl.tenant)
		if err != nil {
			return nil, fmt.Errorf("tenant %s usage: %w", cl.tenant, err)
		}
		if u.RunningNodes != 0 || u.RunningJobs != 0 || u.TotalJobs != hostedCycles {
			return nil, fmt.Errorf("tenant %s usage after the round: %+v", cl.tenant, u)
		}
	}
	return r, nil
}

// client is one tenant's closed loop: submit, wait until running, kill,
// wait until the tenant holds no nodes.
type client struct {
	remote *splay.Remote
	tenant string
	err    error

	submitMS, placeMS, killMS, releaseMS []float64
}

func (c *client) loop(ctx context.Context, subs [][]byte) error {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, data := range subs {
		t0 := time.Now()
		view, err := c.remote.SubmitRaw(ctx, data)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		t1 := time.Now()
		for view.State != splay.HostRunning {
			if view.State.Terminal() {
				return fmt.Errorf("job %s settled as %s: %s", view.ID, view.State, view.Error)
			}
			if time.Since(t1) > hostedCycleWait {
				return fmt.Errorf("job %s still %s after %s", view.ID, view.State, hostedCycleWait)
			}
			time.Sleep(hostedPoll)
			id := view.ID
			if view, err = c.remote.Job(ctx, id); err != nil {
				return fmt.Errorf("job %s: %w", id, err)
			}
		}
		t2 := time.Now()
		if err := c.remote.Kill(ctx, view.ID); err != nil {
			return fmt.Errorf("kill %s: %w", view.ID, err)
		}
		t3 := time.Now()
		for {
			u, err := c.remote.Usage(ctx, c.tenant)
			if err != nil {
				return fmt.Errorf("usage: %w", err)
			}
			if u.RunningNodes == 0 {
				break
			}
			if time.Since(t3) > hostedCycleWait {
				return errors.New("nodes not released after kill")
			}
			time.Sleep(hostedPoll)
		}
		t4 := time.Now()
		c.submitMS = append(c.submitMS, ms(t1.Sub(t0)))
		c.placeMS = append(c.placeMS, ms(t2.Sub(t1)))
		c.killMS = append(c.killMS, ms(t3.Sub(t2)))
		c.releaseMS = append(c.releaseMS, ms(t4.Sub(t3)))
	}
	return nil
}
