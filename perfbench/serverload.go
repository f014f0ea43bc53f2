package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"ioguard/internal/experiments"
	"ioguard/internal/server"
	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// The server workload: a closed loop of serverClients clients against
// an in-process server.New on a loopback listener, with default
// batcher and job-store settings. Each client repeats whole rounds of
// serverRound operations: synchronous POST /v1/trials requests and,
// at one position of the round, an asynchronous POST /v1/sweeps whose
// results it waits for.
const (
	serverClients = 2
	serverRound   = 8
	syncTrials    = 4
	sweepTrials   = 16
	serverSystem  = "ioguard-70"
	serverVMs     = 2
	serverUtil    = 0.5
	serverHPs     = 1
	// sampleEvery picks the requests whose first streamed result is
	// recomputed by a direct system.Run after the timed phase.
	sampleEvery = 16
	// grace is how long past the timed phase in-flight requests may
	// run before the hard deadline cancels them.
	grace = 60 * time.Second
)

// liveServer is one started trial server and its listener.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	addr   string
	served chan error
	client *http.Client
}

// startServer starts a server on a loopback port and returns once
// GET /healthz answers, with the time that took.
func startServer(ctx context.Context) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("server: listen: %w", err)
	}
	l := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serverClients}},
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	if err := l.health(ctx); err != nil {
		return nil, 0, errors.Join(err, l.stop())
	}
	return l, time.Since(t0), nil
}

func (l *liveServer) url(path string) string { return "http://" + l.addr + path }

func (l *liveServer) health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.url("/healthz"), nil)
	if err != nil {
		return err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return fmt.Errorf("server: healthz: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("server: healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: healthz answered %s", resp.Status)
	}
	return nil
}

// stop closes the listener and the open connections, then drains and
// stops the batcher and the job store, and checks that all of it is
// gone: the port refuses connections and no work is queued or in
// flight.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if err := l.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("server: shutdown: %w", err))
		l.hs.Close()
	}
	if err := <-l.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("server: serve: %w", err))
	}
	l.srv.Close()
	l.client.CloseIdleConnections()
	if conn, err := net.DialTimeout("tcp", l.addr, time.Second); err == nil {
		conn.Close()
		errs = append(errs, fmt.Errorf("server: %s still accepts connections after stop", l.addr))
	}
	if st := l.srv.Batcher().Stats(); st.Queued != 0 || st.ExecutedTrials != st.AcceptedTrials {
		errs = append(errs, fmt.Errorf("server: batcher holds work after stop: queued %d, executed %d of %d",
			st.Queued, st.ExecutedTrials, st.AcceptedTrials))
	}
	if st := l.srv.Jobs().Stats(); st.Queued != 0 || st.Finished != st.Accepted {
		errs = append(errs, fmt.Errorf("server: job store holds work after stop: queued %d, finished %d of %d",
			st.Queued, st.Finished, st.Accepted))
	}
	return errors.Join(errs...)
}

// resultLine is the part of a streamed result line the client reads.
type resultLine struct {
	Index    int    `json:"index"`
	Seed     int64  `json:"seed"`
	Rendered string `json:"rendered"`
	Error    string `json:"error"`
	Timing   struct {
		QueueWaitMs float64 `json:"queue_wait_ms"`
		ExecMs      float64 `json:"exec_ms"`
		BatchSize   int     `json:"batch_size"`
	} `json:"timing"`
}

// sample is one streamed result kept for the rendered check.
type sample struct {
	reqSeed, trialSeed int64
	mode               system.MetricsMode
	rendered           string
}

// clientLog is what one client observed.
type clientLog struct {
	attempted, failed int64
	trials            int64 // result lines received
	trialMs           []float64
	requestMs         []float64
	sweepMs           []float64
	queueWaitMs       []float64
	execMs            []float64
	overheadMs        []float64
	batchSize         []float64
	samples           []sample
	errs              []string
}

func (c *clientLog) failf(format string, args ...any) {
	c.failed++
	if len(c.errs) < maxProblems {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// requestSeed gives every request of a run its own workload seed.
func requestSeed(seed int64, client, k int) int64 {
	return 1 + (seed&0xffff)*1_000_000 + int64(client)*100_000 + int64(k)
}

func requestBody(seed int64, trials int, mode system.MetricsMode) []byte {
	// Marshal cannot fail on this struct of strings and numbers.
	b, _ := json.Marshal(server.TrialRequest{
		System:       serverSystem,
		VMs:          serverVMs,
		Util:         serverUtil,
		Hyperperiods: serverHPs,
		Seed:         seed,
		Trials:       trials,
		Metrics:      mode.String(),
	})
	return b
}

// readLines reads an NDJSON result stream, calling fn with each line
// and the time since start at which it arrived.
func readLines(r io.Reader, start time.Time, fn func(resultLine, time.Duration) error) (int, error) {
	n := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		at := time.Since(start)
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return n, fmt.Errorf("bad result line: %w", err)
		}
		if line.Error != "" {
			return n, fmt.Errorf("trial %d failed: %s", line.Index, line.Error)
		}
		n++
		if err := fn(line, at); err != nil {
			return n, err
		}
	}
	return n, sc.Err()
}

// syncRequest runs one POST /v1/trials and records its timings.
func (l *liveServer) syncRequest(ctx context.Context, log *clientLog, reqSeed int64, keep bool, tr *tracer, id int64) {
	sp := tr.begin("server.request", -1, id)
	defer tr.end(sp)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url("/v1/trials"), bytes.NewReader(requestBody(reqSeed, syncTrials, system.MetricsExact)))
	if err != nil {
		log.failf("request %d: %v", id, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		log.failf("request %d: %v", id, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		log.failf("request %d: %s", id, resp.Status)
		return
	}
	n, err := readLines(resp.Body, start, func(line resultLine, at time.Duration) error {
		t := line.Timing
		log.trialMs = append(log.trialMs, ms(at))
		log.queueWaitMs = append(log.queueWaitMs, t.QueueWaitMs)
		log.execMs = append(log.execMs, t.ExecMs)
		log.overheadMs = append(log.overheadMs, ms(at)-t.QueueWaitMs-t.ExecMs)
		log.batchSize = append(log.batchSize, float64(t.BatchSize))
		if keep && line.Index == 0 {
			log.samples = append(log.samples, sample{reqSeed, line.Seed, system.MetricsExact, line.Rendered})
		}
		return nil
	})
	log.trials += int64(n)
	if err != nil || n != syncTrials {
		log.failf("request %d: streamed %d of %d trials (%v)", id, n, syncTrials, err)
		return
	}
	log.requestMs = append(log.requestMs, ms(time.Since(start)))
}

// sweep submits one POST /v1/sweeps and waits for its results.
func (l *liveServer) sweep(ctx context.Context, log *clientLog, reqSeed int64, keep bool, tr *tracer, id int64) {
	sp := tr.begin("server.sweep", -1, id)
	defer tr.end(sp)
	start := time.Now()
	sub := tr.begin("server.sweep.submit", sp, id)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url("/v1/sweeps"), bytes.NewReader(requestBody(reqSeed, sweepTrials, system.MetricsStream)))
	if err != nil {
		tr.end(sub)
		log.failf("sweep %d: %v", id, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		tr.end(sub)
		log.failf("sweep %d: %v", id, err)
		return
	}
	var st server.SweepStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(sub)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		log.failf("sweep %d: submit answered %s (%v)", id, resp.Status, err)
		return
	}
	wait := tr.begin("server.sweep.wait", sp, id)
	defer tr.end(wait)
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, l.url("/v1/sweeps/"+st.ID+"/results?wait=1"), nil)
	if err != nil {
		log.failf("sweep %d: %v", id, err)
		return
	}
	resp, err = l.client.Do(req)
	if err != nil {
		log.failf("sweep %d: %v", id, err)
		return
	}
	defer resp.Body.Close()
	n, err := readLines(resp.Body, start, func(line resultLine, _ time.Duration) error {
		if keep && line.Index == 0 {
			log.samples = append(log.samples, sample{reqSeed, line.Seed, system.MetricsStream, line.Rendered})
		}
		return nil
	})
	log.trials += int64(n)
	if resp.StatusCode != http.StatusOK || err != nil || n != sweepTrials {
		log.failf("sweep %d: %s, %d of %d results (%v)", id, resp.Status, n, sweepTrials, err)
		return
	}
	log.sweepMs = append(log.sweepMs, ms(time.Since(start)))
}

// runClient repeats whole rounds until the timed phase has passed.
// Its sweep sits at a different position of the round than the other
// client's, so the two do not submit sweeps in step.
func (l *liveServer) runClient(ctx context.Context, seed int64, client int, until time.Time, tr *tracer) *clientLog {
	log := &clientLog{}
	sweepAt := client * serverRound / serverClients
	k := 0
	for round := 0; round == 0 || time.Now().Before(until); round++ {
		for op := 0; op < serverRound; op++ {
			if ctx.Err() != nil {
				return log
			}
			reqSeed := requestSeed(seed, client, k)
			keep := k%sampleEvery == 0
			id := int64(client)<<32 | int64(k)
			log.attempted++
			if op == sweepAt {
				l.sweep(ctx, log, reqSeed, keep, tr, id)
			} else {
				l.syncRequest(ctx, log, reqSeed, keep, tr, id)
			}
			k++
		}
	}
	return log
}

// checkSamples recomputes each kept result with a direct system.Run
// through experiments.BuilderFor at the echoed seed and requires the
// server's rendered block to match it byte for byte.
func checkSamples(samples []sample, p *problems) {
	build, err := experiments.BuilderFor(serverSystem)
	if err != nil {
		p.addf("BuilderFor(%q): %v", serverSystem, err)
		return
	}
	for _, s := range samples {
		ts, err := workload.Generate(workload.Config{VMs: serverVMs, TargetUtil: serverUtil, Seed: s.reqSeed})
		if err != nil {
			p.addf("sample seed %d: %v", s.reqSeed, err)
			continue
		}
		res, err := system.Run(build, system.Trial{
			VMs: serverVMs, Tasks: ts, Horizon: ts.Hyperperiod() * serverHPs, Seed: s.trialSeed, Metrics: s.mode,
		})
		if err != nil {
			p.addf("sample seed %d: direct run: %v", s.trialSeed, err)
			continue
		}
		if want := experiments.RenderTrial(serverSystem, res); want != s.rendered {
			p.addf("request seed %d trial seed %d (%s): server rendered\n%s\ndirect run rendered\n%s",
				s.reqSeed, s.trialSeed, s.mode, s.rendered, want)
		}
	}
}

// serverRun is the measured part of the server workload: the load
// phase against one live server, which it always stops.
type serverRun struct {
	srv       *server.Server
	addr      string
	logs      []*clientLog
	wall      time.Duration
	mem       memDelta
	batches   int64
	stopError error
}

func loadServer(seed int64, seconds time.Duration, tr *tracer) (*serverRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), seconds+grace)
	defer cancel()
	l, _, err := startServer(ctx)
	if err != nil {
		return nil, err
	}
	run := &serverRun{srv: l.srv, addr: l.addr, logs: make([]*clientLog, serverClients)}
	before := memSnapshot()
	start := time.Now()
	until := start.Add(seconds)
	var wg sync.WaitGroup
	for c := 0; c < serverClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run.logs[c] = l.runClient(ctx, seed, c, until, tr)
		}(c)
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.mem = memSince(before)
	run.batches = l.srv.Batcher().Stats().Batches
	run.stopError = l.stop()
	return run, nil
}

func runServer(seed int64, seconds time.Duration, tr *tracer) (*outcome, error) {
	setup, err := repeatMedian(15, 200, 300*time.Millisecond, func() (time.Duration, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		l, d, err := startServer(ctx)
		if err != nil {
			return 0, err
		}
		return d, l.stop()
	})
	if err != nil {
		return nil, err
	}
	run, err := loadServer(seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]metric{}}
	var p problems
	all := &clientLog{}
	for _, c := range run.logs {
		out.attempted += c.attempted
		out.failed += c.failed
		all.trials += c.trials
		all.trialMs = append(all.trialMs, c.trialMs...)
		all.requestMs = append(all.requestMs, c.requestMs...)
		all.sweepMs = append(all.sweepMs, c.sweepMs...)
		all.queueWaitMs = append(all.queueWaitMs, c.queueWaitMs...)
		all.execMs = append(all.execMs, c.execMs...)
		all.overheadMs = append(all.overheadMs, c.overheadMs...)
		all.batchSize = append(all.batchSize, c.batchSize...)
		all.samples = append(all.samples, c.samples...)
		for _, e := range c.errs {
			p.addf("%s", e)
		}
	}
	if run.stopError != nil {
		p.addf("%v", run.stopError)
	}
	checkSamples(all.samples, &p)
	out.problems = p

	m := out.metrics
	if tr == nil {
		m["setup_s"] = metric{setup.Seconds(), "s"}
		m["trials_per_s"] = metric{float64(all.trials) / run.wall.Seconds(), "trials/s"}
		m["trial_ms_p90"] = metric{percentile(all.trialMs, 90), "ms"}
		m["request_ms_p50"] = metric{percentile(all.requestMs, 50), "ms"}
		m["request_ms_p90"] = metric{percentile(all.requestMs, 90), "ms"}
		m["sweep_ms_p50"] = metric{median(all.sweepMs), "ms"}
		m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
		fmt.Printf("samples: trial_ms over %d streamed trials, request_ms over %d requests, sweep_ms over %d sweeps; %d results rechecked\n",
			len(all.trialMs), len(all.requestMs), len(all.sweepMs), len(all.samples))
	} else {
		var mean float64
		for _, b := range all.batchSize {
			mean += b / float64(len(all.batchSize))
		}
		m["server.queue_wait_ms_p50"] = metric{median(all.queueWaitMs), "ms"}
		m["server.exec_ms_p50"] = metric{median(all.execMs), "ms"}
		m["server.overhead_ms_p50"] = metric{median(all.overheadMs), "ms"}
		m["server.batch_size_mean"] = metric{mean, "trials"}
		m["server.batches"] = metric{float64(run.batches), "count"}
		runtimeMetrics(run.mem, all.trials, m)
		printShares(tr.selfTimes(), run.wall)
		fmt.Fprintf(os.Stderr, "traced trials_per_s %.4f\n", float64(all.trials)/run.wall.Seconds())
	}
	if out.metrics, err = finish(m, tr != nil); err != nil {
		return nil, err
	}
	return out, nil
}
