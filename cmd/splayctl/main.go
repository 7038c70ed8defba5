// Command splayctl runs the SPLAY controller: it accepts daemon
// connections, exposes the web-services API for job submission,
// orchestrates deployments (§3.1), and hosts the observability plane's
// aggregator so instrumented applications can stream metric reports.
//
// Usage:
//
//	splayctl [-port 5555] [-http 8080] [-host 127.0.0.1] [-tls]
//	         [-metrics-port 5556] [-metrics-key splay]
//	splayctl watch [-every 2s] [-key k -job id] http://host:8080
//	splayctl faults inject [-kind crash|partition] [-count n] [-fraction f] http://host:8080
//	splayctl faults heal http://host:8080
//	splayctl submit -key k [-app chord] [-nodes 10] [-duration 30s] [-wait] http://host:8080
//	splayctl jobs -key k [-job id] http://host:8080
//	splayctl kill -key k -job id http://host:8080
//	splayctl usage -key k -tenant name http://host:8080
//	splayctl apply [-host http://host:8080 -key k [-wait]] scenario.yaml
//	splayctl validate scenario.yaml [more.yaml ...]
//	splayctl catalog
//
// Submit jobs with the splay CLI or plain HTTP:
//
//	curl -X POST localhost:8080/jobs -d '{"app":"chord","nodes":10}'
//
// Watch mode polls a running splayctl's /metrics endpoint and renders
// the aggregator's live population view — the in-flight counterpart of
// the log collector. With -job it instead follows one hosted job's
// lifecycle until it settles.
//
// Fault mode drives the controller's live actuators: "inject -kind
// crash" drops daemon control sessions (daemons started with reconnect
// redial with backoff), "inject -kind partition" blacklists a fraction
// of the population — the controller pushes the blacklist to every
// daemon, whose sandboxes then refuse traffic to the cut side — and
// "heal" clears the blacklist.
//
// The hosting subcommands (submit, jobs, kill, usage, watch -job)
// speak to a hosting plane — splayd -host, or any Session.Host
// handler — as the tenant owning -key. Submissions are serialized
// Scenarios: built from -app/-nodes/-params/-duration, or shipped
// from -file / -f (use "-" for stdin). A -file that is a scenario
// document (splay.IsConfigDocument) is compiled client-side against
// the built-in catalog, so typed errors surface before any network
// round-trip and what travels is always the canonical wire form.
// Every subcommand bounds each HTTP request with -timeout and exits
// non-zero on any error.
//
// The config-plane subcommands need no running controller: "apply"
// compiles a scenario document and runs it — in-process on a fresh
// simulated (or live) testbed, or hosted when -host names a platform
// — "validate" type-checks documents against the catalog, and
// "catalog" prints the catalog itself: every built-in application
// with its typed parameters, defaults and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/metrics"
)

func main() {
	port := flag.Int("port", 5555, "daemon connection port")
	httpPort := flag.Int("http", 8080, "web-services API port (0 disables)")
	host := flag.String("host", "127.0.0.1", "advertised controller host")
	useTLS := flag.Bool("tls", false, "secure daemon connections with TLS")
	metricsPort := flag.Int("metrics-port", 5556, "metric report port (0 disables the aggregator)")
	metricsKey := flag.String("metrics-key", "splay", "key metric streams must present")
	flag.Parse()

	if cmd := flag.Arg(0); cmd != "" {
		var err error
		switch cmd {
		case "watch":
			err = watchCmd(flag.Args()[1:])
		case "faults":
			err = faultsCmd(flag.Args()[1:])
		case "submit", "jobs", "kill", "usage":
			err = hostCmd(cmd, flag.Args()[1:])
		case "apply":
			err = applyCmd(flag.Args()[1:])
		case "validate":
			err = validateCmd(flag.Args()[1:])
		case "catalog":
			err = catalogCmd()
		default:
			err = fmt.Errorf("unknown command %q (want watch, faults, submit, jobs, kill, usage, apply, validate or catalog)", cmd)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "splayctl %s: %v\n", cmd, err)
			os.Exit(1)
		}
		return
	}

	rt := core.NewLiveRuntime(1)
	node := livenet.NewNode(*host)
	if *useTLS {
		cfg, err := livenet.SelfSignedTLS(*host)
		if err != nil {
			log.Fatalf("splayctl: tls: %v", err)
		}
		node.TLS = cfg
	}
	cfg := controller.DefaultConfig()
	cfg.Port = *port
	ctl := controller.New(rt, node, cfg)

	// The observability plane: instrumented applications stream delta
	// reports here; /metrics serves the merged live view. The
	// controller's own instruments feed the same aggregator directly
	// (it is in-process, no stream needed).
	var agg *metrics.Aggregator
	if *metricsPort != 0 {
		reg := metrics.NewRegistry()
		ctl.SetInstruments(controller.NewInstruments(reg))
		var err error
		agg, err = metrics.NewAggregator(node, *metricsPort, func(fn func()) { go fn() })
		if err != nil {
			log.Fatalf("splayctl: aggregator: %v", err)
		}
		agg.Authorize(*metricsKey)
		// Bridge the local registry into the aggregate view over
		// loopback, so /metrics shows controller and application series
		// through one plane.
		go func() {
			rep, err := metrics.DialReporter(node, agg.Addr(), reg,
				metrics.ReporterConfig{Key: *metricsKey, Node: "ctl"})
			if err != nil {
				log.Printf("splayctl: metrics self-report: %v", err)
				return
			}
			for {
				time.Sleep(5 * time.Second)
				if err := rep.Flush(); err != nil {
					// Reconnect keeps the delta state, so the stream
					// resumes with increments after a transient failure.
					log.Printf("splayctl: metrics self-report: %v (redialing)", err)
					if err := rep.Reconnect(); err != nil {
						log.Printf("splayctl: metrics self-report: %v", err)
					}
				}
			}
		}()
		log.Printf("splayctl: metric aggregator on :%d (key %q)", *metricsPort, *metricsKey)
	}

	if err := ctl.Start(); err != nil {
		log.Fatalf("splayctl: %v", err)
	}
	log.Printf("splayctl: listening for daemons on :%d (tls=%v)", *port, *useTLS)

	if *httpPort == 0 {
		select {}
	}
	mux := http.NewServeMux()
	if agg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(agg.Snapshot()) //nolint:errcheck
		})
	}
	mux.HandleFunc("/daemons", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int{"daemons": ctl.Daemons()}) //nolint:errcheck
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var req struct {
				App      string          `json:"app"`
				Nodes    int             `json:"nodes"`
				Params   json.RawMessage `json:"params"`
				Superset float64         `json:"superset"`
				FullList bool            `json:"full_list"`
			}
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			job, err := ctl.Submit(controller.JobSpec{
				App: req.App, Nodes: req.Nodes, Params: req.Params,
				Superset: req.Superset, FullList: req.FullList,
			})
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			writeJob(w, job)
		case http.MethodGet:
			id := r.URL.Query().Get("id")
			job, ok := ctl.Job(id)
			if !ok {
				http.Error(w, "unknown job", http.StatusNotFound)
				return
			}
			writeJob(w, job)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/jobs/stop", func(w http.ResponseWriter, r *http.Request) {
		if err := ctl.StopJob(r.URL.Query().Get("id")); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintln(w, "stopped")
	})
	// Fault drills — the live counterparts of the scenario SDK's fault
	// plan, driven over HTTP so chaos tooling needs no Go. Crash drops
	// daemon control sessions (reconnect-enabled daemons redial with
	// backoff); partition blacklists part of the population, which the
	// controller pushes to every daemon's sandbox; heal clears it.
	mux.HandleFunc("/faults/inject", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Kind     string  `json:"kind"`
			Count    int     `json:"count"`
			Fraction float64 `json:"fraction"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		names := ctl.DaemonNames()
		sort.Strings(names)
		n := req.Count
		if n <= 0 && req.Fraction > 0 {
			n = int(req.Fraction * float64(len(names)))
		}
		if n <= 0 || n > len(names) {
			http.Error(w, fmt.Sprintf("need a count (or fraction) selecting 1..%d daemons", len(names)),
				http.StatusBadRequest)
			return
		}
		victims := names[:n]
		switch req.Kind {
		case "crash":
			dropped := make([]string, 0, n)
			for _, name := range victims {
				if ctl.DropDaemon(name) {
					dropped = append(dropped, name)
				}
			}
			json.NewEncoder(w).Encode(map[string]any{"kind": "crash", "dropped": dropped}) //nolint:errcheck
		case "partition":
			ctl.SetBlacklist(victims)
			json.NewEncoder(w).Encode(map[string]any{"kind": "partition", "blacklisted": victims}) //nolint:errcheck
		default:
			http.Error(w, "kind must be crash or partition", http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/faults/heal", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		ctl.SetBlacklist(nil)
		json.NewEncoder(w).Encode(map[string]any{"healed": true, "daemons": ctl.Daemons()}) //nolint:errcheck
	})
	log.Printf("splayctl: web-services API on :%d", *httpPort)
	if err := http.ListenAndServe(fmt.Sprintf(":%d", *httpPort), mux); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// postJSON issues one POST bounded by timeout and returns the response
// body; non-2xx statuses become errors carrying the body.
func postJSON(url string, body []byte, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body) //nolint:errcheck // best-effort error body
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// faultsCmd drives a running controller's fault endpoints: inject
// (crash or partition) and heal.
func faultsCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("need an action (inject or heal)")
	}
	action, rest := args[0], args[1:]
	fs := flag.NewFlagSet("faults "+action, flag.ExitOnError)
	kind := fs.String("kind", "crash", "fault to inject: crash or partition")
	count := fs.Int("count", 0, "number of daemons to hit")
	fraction := fs.Float64("fraction", 0, "population fraction to hit (alternative to -count)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	fs.Parse(rest) //nolint:errcheck // ExitOnError
	url := fs.Arg(0)
	if url == "" {
		return fmt.Errorf("%s: need a controller URL (e.g. http://127.0.0.1:8080)", action)
	}
	var out []byte
	var err error
	switch action {
	case "inject":
		body, _ := json.Marshal(map[string]any{ //nolint:errcheck // static shape
			"kind": *kind, "count": *count, "fraction": *fraction,
		})
		out, err = postJSON(url+"/faults/inject", body, *timeout)
	case "heal":
		out, err = postJSON(url+"/faults/heal", nil, *timeout)
	default:
		return fmt.Errorf("unknown action %q (want inject or heal)", action)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", action, err)
	}
	fmt.Print(string(out))
	return nil
}

// watchCmd polls a controller's /metrics view, or — with -key and
// -job — one hosted job's lifecycle until it settles.
func watchCmd(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	every := fs.Duration("every", 2*time.Second, "poll interval")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	key := fs.String("key", "", "tenant key (hosted job watch)")
	jobID := fs.String("job", "", "hosted job to follow until it settles")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	url := fs.Arg(0)
	if url == "" {
		return fmt.Errorf("need a controller URL (e.g. http://127.0.0.1:8080)")
	}
	if *jobID != "" {
		return watchJob(url, *key, *jobID, *every, *timeout)
	}
	for {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
		if err != nil {
			cancel()
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			return err
		}
		var snaps []metrics.SeriesSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snaps)
		resp.Body.Close()
		cancel()
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		fmt.Printf("%s — %d series\n", time.Now().Format(time.TimeOnly), len(snaps))
		fmt.Printf("  %-28s %-12s %6s %12s %12s %12s %12s\n",
			"series", "kind", "nodes", "total/sum", "mean", "p50", "p90")
		for _, s := range snaps {
			switch s.Kind {
			case "counter":
				fmt.Printf("  %-28s %-12s %6d %12d\n", s.Name, s.Kind, s.Nodes, s.Total)
			case "gauge":
				fmt.Printf("  %-28s %-12s %6d %12d\n", s.Name, s.Kind, s.Nodes, s.Sum)
			default:
				fmt.Printf("  %-28s %-12s %6d %12d %12.1f %12d %12d\n",
					s.Name, s.Kind, s.Nodes, s.Count, s.Mean, s.P50, s.P90)
			}
		}
		fmt.Println()
		time.Sleep(*every)
	}
}

// watchJob follows one hosted job, printing a row per state change
// until the job settles; a terminal state other than done is an error.
func watchJob(url, key, id string, every, timeout time.Duration) error {
	cl := splay.Connect(url, key)
	last := ""
	for {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		job, err := cl.Job(ctx, id)
		cancel()
		if err != nil {
			return err
		}
		if line := fmt.Sprintf("%s %s nodes=%d", job.ID, job.State, job.Nodes); line != last {
			fmt.Printf("%s  %s\n", time.Now().Format(time.TimeOnly), line)
			last = line
		}
		if job.State.Terminal() {
			if job.State != splay.HostDone {
				return fmt.Errorf("job %s settled as %s: %s", job.ID, job.State, job.Error)
			}
			return nil
		}
		time.Sleep(every)
	}
}

// hostCmd speaks to a hosting plane (splayd -host, or any Session.Host
// handler) as the tenant owning -key: submit serialized scenarios,
// list jobs, kill one, read usage.
func hostCmd(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	key := fs.String("key", "", "tenant key")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	jobID := fs.String("job", "", "job id (jobs: show one; kill: required)")
	tenant := fs.String("tenant", "", "tenant to account (usage)")
	app := fs.String("app", "chord", "application to deploy (submit)")
	nodes := fs.Int("nodes", 10, "instances to deploy (submit)")
	params := fs.String("params", "", "JSON parameter document for the app (submit)")
	name := fs.String("name", "", "job name (submit)")
	seed := fs.Int64("seed", 0, "scenario seed (submit; 0 = platform default)")
	duration := fs.Duration("duration", 30*time.Second, "workload window (submit)")
	file := fs.String("file", "", "submit this scenario — wire JSON, or a document compiled client-side (\"-\" = stdin)")
	fs.StringVar(file, "f", "", "shorthand for -file")
	wait := fs.Bool("wait", false, "poll until the job settles and print its result (submit)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	url := fs.Arg(0)
	if url == "" {
		return fmt.Errorf("need a hosting URL (e.g. http://127.0.0.1:8080)")
	}
	if *key == "" {
		return fmt.Errorf("need a tenant -key")
	}
	cl := splay.Connect(url, *key)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	switch cmd {
	case "submit":
		var data []byte
		var err error
		switch {
		case *file == "-":
			data, err = io.ReadAll(os.Stdin)
		case *file != "":
			data, err = os.ReadFile(*file)
		default:
			sc := splay.Scenario{
				Name: *name, Seed: *seed, Duration: *duration,
				Apps: []splay.AppSpec{{Name: *app, Nodes: *nodes, Params: []byte(*params)}},
			}
			data, err = sc.Marshal()
		}
		if err != nil {
			return err
		}
		if splay.IsConfigDocument(data) {
			// Compile here, not server-side: typed *ConfigErrors carry
			// the document position, and the wire bytes that travel are
			// exactly what a handwritten Scenario would marshal.
			data, err = splay.CompileConfig(data)
			if err != nil {
				return err
			}
		}
		return submitData(cl, data, *timeout, *wait)
	case "jobs":
		if *jobID != "" {
			job, err := cl.Job(ctx, *jobID)
			if err != nil {
				return err
			}
			return printJSON(job)
		}
		jobs, err := cl.Jobs(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-10s %6s  %-20s %s\n", "id", "state", "nodes", "apps", "error")
		for _, j := range jobs {
			fmt.Printf("%-12s %-10s %6d  %-20s %s\n",
				j.ID, j.State, j.Nodes, strings.Join(j.Apps, ","), j.Error)
		}
		return nil
	case "kill":
		if *jobID == "" {
			return fmt.Errorf("need a -job id")
		}
		if err := cl.Kill(ctx, *jobID); err != nil {
			return err
		}
		fmt.Printf("killed %s\n", *jobID)
		return nil
	case "usage":
		if *tenant == "" {
			return fmt.Errorf("need a -tenant name")
		}
		u, err := cl.Usage(ctx, *tenant)
		if err != nil {
			return err
		}
		return printJSON(u)
	}
	return fmt.Errorf("unknown hosting command %q", cmd)
}

// submitData ships wire scenario bytes to a hosting plane and, with
// wait, polls until the job settles and prints its result. Every HTTP
// request is individually bounded by timeout.
func submitData(cl *splay.Remote, data []byte, timeout time.Duration, wait bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	job, err := cl.SubmitRaw(ctx, data)
	cancel()
	if err != nil {
		return err
	}
	if !wait {
		return printJSON(job)
	}
	fmt.Fprintf(os.Stderr, "submitted %s (%s), waiting\n", job.ID, job.State)
	for {
		time.Sleep(time.Second)
		pctx, pcancel := context.WithTimeout(context.Background(), timeout)
		j, err := cl.Job(pctx, job.ID)
		pcancel()
		if err != nil {
			return err
		}
		if !j.State.Terminal() {
			continue
		}
		rctx, rcancel := context.WithTimeout(context.Background(), timeout)
		res, err := cl.Result(rctx, job.ID)
		rcancel()
		if err != nil {
			return err
		}
		if err := printJSON(res); err != nil {
			return err
		}
		if res.State != splay.HostDone {
			return fmt.Errorf("job %s settled as %s: %s", res.ID, res.State, res.Error)
		}
		return nil
	}
}

// applyCmd runs a scenario document. Without -host it compiles and
// executes the document in-process — the full no-Go path: testbed,
// deployment, faults, assertions — and prints the deployed jobs plus
// the aggregated metric view. With -host it compiles client-side and
// submits the canonical wire bytes to a hosting plane as -key's
// tenant.
func applyCmd(args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	hostURL := fs.String("host", "", "submit to this hosting URL instead of running in-process")
	key := fs.String("key", "", "tenant key (with -host)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout (with -host)")
	wait := fs.Bool("wait", false, "poll until the hosted job settles (with -host)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	path := fs.Arg(0)
	if path == "" {
		return fmt.Errorf("need a scenario document (e.g. examples/quickstart/scenario.yaml)")
	}
	if *hostURL != "" {
		if *key == "" {
			return fmt.Errorf("need a tenant -key with -host")
		}
		data, err := readDoc(path)
		if err != nil {
			return err
		}
		if splay.IsConfigDocument(data) {
			if data, err = splay.CompileConfig(data); err != nil {
				return err
			}
		}
		return submitData(splay.Connect(*hostURL, *key), data, *timeout, *wait)
	}
	sc, err := splay.LoadScenarioFile(path)
	if err != nil {
		return err
	}
	res, err := sc.Run(context.Background())
	if res != nil {
		for _, j := range res.Jobs {
			fmt.Printf("job %-10s %-8s %d instances\n", j.ID, j.State, len(j.Deployed))
		}
		if res.Metrics != nil {
			frames, bytes := res.Metrics.Received()
			fmt.Printf("telemetry: %d nodes, %d frames, %d bytes\n",
				res.Metrics.Nodes(), frames, bytes)
			for _, s := range res.Metrics.Snapshot() {
				switch s.Kind {
				case "counter":
					fmt.Printf("  %-28s %12d\n", s.Name, s.Total)
				case "gauge":
					fmt.Printf("  %-28s %12d\n", s.Name, s.Sum)
				default:
					fmt.Printf("  %-28s %12d  p50=%d p90=%d\n", s.Name, s.Count, s.P50, s.P90)
				}
			}
		}
	}
	return err
}

// validateCmd type-checks scenario documents against the built-in
// catalog without running anything; any invalid document makes the
// exit status non-zero.
func validateCmd(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() == 0 {
		return fmt.Errorf("need at least one scenario document")
	}
	bad := 0
	for _, path := range fs.Args() {
		data, err := readDoc(path)
		if err == nil {
			err = splay.ValidateConfig(data)
		}
		if err != nil {
			bad++
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d documents invalid", bad, fs.NArg())
	}
	return nil
}

// catalogCmd prints the built-in app catalog: what a document may
// reference, each parameter's kind, default and bounds.
func catalogCmd() error {
	for i, app := range splay.BuiltinCatalog().Apps() {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s — %s\n", app.Name, app.Doc)
		fmt.Printf("  %-16s %-9s %-10s %-22s %s\n", "param", "kind", "default", "bounds", "doc")
		for _, p := range app.Params {
			fmt.Printf("  %-16s %-9s %-10s %-22s %s\n",
				p.Name, p.Kind, p.FormatDefault(), p.FormatBounds(), p.Doc)
		}
	}
	return nil
}

// readDoc reads one document argument ("-" = stdin).
func readDoc(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// printJSON renders one API object for scripts: indented, stable keys.
func printJSON(v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func writeJob(w http.ResponseWriter, job *controller.JobStatus) {
	out := map[string]any{
		"id": job.ID, "state": job.State.String(), "error": job.Err,
	}
	var nodes []string
	for _, a := range job.Deployed {
		nodes = append(nodes, a.String())
	}
	out["nodes"] = nodes
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}
