package splay_test

// Hosting plane at the SDK surface: a live loopback fleet hosts two
// tenants submitting concurrently over the real HTTP API through
// splay.Connect (run under -race in CI's hostplane job), plus the
// submit-to-start latency benchmark behind BENCH_host.json.

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
)

// residentScenario provisions the platform fleet: n live daemons and a
// registry holding the "idler" app hosted submissions reference.
func residentScenario(n int) splay.Scenario {
	return splay.Scenario{
		Name:    "resident",
		Testbed: splay.Live(n),
		Apps: []splay.AppSpec{{
			Name: "idler",
			App:  splay.AppFunc(func(env *splay.Env) error { return nil }),
		}},
	}
}

// hostedJob builds a submission referencing the platform's app by name.
func hostedJob(name string, nodes int, dur time.Duration) splay.Scenario {
	return splay.Scenario{
		Name:     name,
		Apps:     []splay.AppSpec{{Name: "idler", Nodes: nodes}},
		Duration: dur,
	}
}

func TestHostPlaneLiveLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	sess, err := residentScenario(6).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	host, err := sess.Host(splay.HostConfig{
		Tenants: []splay.HostTenant{
			{Name: "alice", Key: "ka", Quota: splay.HostQuota{MaxNodes: 4}},
			{Name: "bob", Key: "kb"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(host.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Two tenants run overlapping jobs through the wire API.
	var wg sync.WaitGroup
	results := make([]splay.HostResult, 2)
	errs := make([]error, 2)
	for i, sub := range []struct{ key, name string }{{"ka", "a"}, {"kb", "b"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := splay.Connect(srv.URL, sub.key)
			cl.Poll = 50 * time.Millisecond
			results[i], errs[i] = cl.Run(ctx, hostedJob(sub.name, 2, 2*time.Second))
		}()
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].State != splay.HostDone {
			t.Errorf("job %d state = %s, want done: %s", i, results[i].State, results[i].Error)
		}
		if len(results[i].Apps) != 1 || results[i].Apps[0].Deployed != 2 {
			t.Errorf("job %d placement = %+v", i, results[i].Apps)
		}
	}

	// Quota exhaustion is a typed error over the wire, not a hang.
	alice := splay.Connect(srv.URL, "ka")
	if _, err := alice.Submit(ctx, hostedJob("big", 5, time.Second)); err == nil {
		t.Error("over-quota submission accepted")
	} else {
		var herr *splay.HostError
		if !errors.As(err, &herr) || string(herr.Code) != "quota" {
			t.Errorf("over-quota error = %v, want HostError quota", err)
		}
	}
	// So is a bad key.
	if _, err := splay.Connect(srv.URL, "nope").Jobs(ctx); err == nil {
		t.Error("bad key accepted")
	} else {
		var herr *splay.HostError
		if !errors.As(err, &herr) || string(herr.Code) != "auth" {
			t.Errorf("bad-key error = %v, want HostError auth", err)
		}
	}
	// Usage reflects the finished runs.
	u, err := alice.Usage(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if u.TotalJobs != 1 || u.RunningJobs != 0 {
		t.Errorf("alice usage = %+v, want 1 total job and nothing running (rejects are never admitted)", u)
	}
}

// runJobTasks counts the goroutines parked in a hosted job's task.
func runJobTasks() int {
	buf := make([]byte, 1<<22)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "hosting.(*Service).runJob(")
}

// TestHostKillEndsRunningJobLive kills a running one-hour job on a live
// fleet and checks that the job's hosting task ends with the kill
// instead of waiting out the declared hour (one leaked goroutine per
// killed job). The job runs a built-in the resident scenario does not
// list: a hosted fleet runs every app its catalog admits.
func TestHostKillEndsRunningJobLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	sess, err := residentScenario(2).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	host, err := sess.Host(splay.HostConfig{
		Tenants: []splay.HostTenant{{Name: "carol", Key: "kc"}},
		Catalog: splay.BuiltinCatalog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runJobTasks()
	job, err := host.SubmitRaw("kc", []byte("name: hour\nduration: 1h\napps:\n  - app: cyclon\n    nodes: 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.State != splay.HostRunning {
		if job.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never ran: %+v", job)
		}
		time.Sleep(10 * time.Millisecond)
		if job, err = host.Job("kc", job.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := host.Kill("kc", job.ID); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runJobTasks() > before {
		if time.Now().After(deadline) {
			t.Fatal("killed job's hosting task still waits out its duration")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := host.Result("kc", job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != splay.HostKilled {
		t.Errorf("state = %s, want killed", res.State)
	}
}

// BenchmarkHostSubmitLatency measures submit-to-start over the live
// hosting plane: the time from POST /jobs to the job reporting running.
func BenchmarkHostSubmitLatency(b *testing.B) {
	sess, err := residentScenario(4).Start(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Stop()
	host, err := sess.Host(splay.HostConfig{
		Tenants: []splay.HostTenant{{Name: "bench", Key: "kbench"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := hostedJob("bench", 2, time.Hour).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := host.SubmitRaw("kbench", data)
		if err != nil {
			b.Fatal(err)
		}
		for {
			jv, err := host.Job("kbench", view.ID)
			if err != nil {
				b.Fatal(err)
			}
			if jv.State == splay.HostRunning || jv.State.Terminal() {
				if jv.State != splay.HostRunning {
					b.Fatalf("job %s settled as %s: %s", jv.ID, jv.State, jv.Error)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
		b.StopTimer()
		if err := host.Kill("kbench", view.ID); err != nil {
			b.Fatal(err)
		}
		// Wait for the nodes to come back so the next round starts clean.
		for {
			u, err := host.Usage("kbench", "bench")
			if err != nil {
				b.Fatal(err)
			}
			if u.RunningNodes == 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		b.StartTimer()
	}
}
