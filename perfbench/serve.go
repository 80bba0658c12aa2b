package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"memlife/internal/telemetry"
)

// daemon is one `memlife serve` process on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process has exited and been reaped
	log  *tailBuffer
}

// tailBuffer keeps the last lines the daemon wrote to stderr, for
// error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, s)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// startDaemon starts `bin serve` on a free loopback port with its store
// in dir and returns once /healthz answers "ok", together with the time
// that took (the serve-mix set-up time).
func startDaemon(bin, dir string) (*daemon, float64, error) {
	// One shard worker leaves a core for the request path; see README.md.
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-store", dir, "-job-workers", "1", "-shard-workers", "1")
	// Should the benchmark die without stopping it, the daemon drains
	// and exits instead of outliving the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), log: &tailBuffer{}}
	addr := make(chan string, 1) // one send at most; never blocks the reader
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.log.add(line)
			if i := strings.Index(line, "serving on http://"); i >= 0 && !sent {
				rest := line[i+len("serving on http://"):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				addr <- rest
				sent = true
			}
		}
		cmd.Wait() //nolint:errcheck // exit status is irrelevant once the daemon has been asked to stop
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, 0, fmt.Errorf("daemon exited before serving:\n%s", d.log)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, 0, errors.New("daemon did not announce its address within 60s")
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok" {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("daemon /healthz did not answer ok within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	hc.CloseIdleConnections()
	return d, time.Since(t0).Seconds(), nil
}

// stop asks the daemon to drain (SIGTERM) and waits for it to exit,
// killing it if the drain takes longer than a minute.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-d.done
	}
}

// peakRSSMB returns the daemon's peak resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// vmHWM reads the VmHWM (peak RSS) line of a /proc status file, in MB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// client is one keep-alive connection to the daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobEnvelope is the part of the daemon's job representation the
// benchmark reads.
type jobEnvelope struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// do sends one request and returns the status and body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// envelope sends a request answered with a job envelope.
func (c *client) envelope(method, path string, body []byte) (int, jobEnvelope, error) {
	st, b, err := c.do(method, path, body)
	var env jobEnvelope
	if err == nil && st/100 == 2 {
		err = json.Unmarshal(b, &env)
	}
	return st, env, err
}

func (c *client) submit(spec []byte) (int, jobEnvelope, error) {
	return c.envelope(http.MethodPost, fmt.Sprintf("/v1/jobs?seeds=%d", jobSeeds), spec)
}

func (c *client) metrics() (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	st, b, err := c.do(http.MethodGet, "/metrics/json", nil)
	if err != nil {
		return snap, err
	}
	if st != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics/json: status %d", st)
	}
	err = json.Unmarshal(b, &snap)
	return snap, err
}

// histogram returns the count and sum of one histogram of snap.
func histogram(snap telemetry.Snapshot, name string) (int64, float64) {
	for _, h := range snap.Histograms {
		if h.Name == name {
			return h.Count, h.Sum
		}
	}
	return 0, 0
}

func docDigest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:8])
}

// jobSample is the client-side timeline of one fresh job.
type jobSample struct {
	runSeed   int64
	submit    float64 // POST round trip, s
	queueWait float64 // POST until the job was first seen running, s
	run       float64 // first seen running until done, s
	total     float64 // POST until done, s
	doc       []byte
}

// pollInterval is how often a waiting client polls a job's state.
const pollInterval = 10 * time.Millisecond

// runJob submits a job spec that has no stored result, waits until the
// daemon reports it done, and fetches its result document. The job is
// closed-loop: the caller submits the next one only after this returns.
func runJob(ctx context.Context, c *client, runSeed int64) (jobSample, error) {
	s := jobSample{runSeed: runSeed}
	t0 := time.Now()
	st, env, err := c.submit(jobSpec(runSeed))
	s.submit = time.Since(t0).Seconds()
	if err != nil {
		return s, fmt.Errorf("job run.seed=%d: submit: %w", runSeed, err)
	}
	if st != http.StatusAccepted {
		return s, fmt.Errorf("job run.seed=%d: submit status %d (want 202 for a fresh spec)", runSeed, st)
	}
	var running time.Time
	for env.State != "done" {
		switch env.State {
		case "queued":
		case "running":
			if running.IsZero() {
				running = time.Now()
			}
		default:
			return s, fmt.Errorf("job run.seed=%d: state %q: %s", runSeed, env.State, env.Error)
		}
		select {
		case <-ctx.Done():
			return s, ctx.Err()
		case <-time.After(pollInterval):
		}
		st, env, err = c.envelope(http.MethodGet, "/v1/jobs/"+env.ID, nil)
		if err != nil || st != http.StatusOK {
			return s, fmt.Errorf("job run.seed=%d: poll: status %d: %v", runSeed, st, err)
		}
	}
	done := time.Now()
	if running.IsZero() {
		running = done
	}
	s.total = done.Sub(t0).Seconds()
	s.queueWait = running.Sub(t0).Seconds()
	s.run = done.Sub(running).Seconds()
	st, s.doc, err = c.do(http.MethodGet, "/v1/results/"+env.ID, nil)
	if err != nil || st != http.StatusOK {
		return s, fmt.Errorf("job run.seed=%d: result: status %d: %v", runSeed, st, err)
	}
	return s, nil
}

// hitSample is one cache-hit request pair.
type hitSample struct {
	post, get float64 // s
}

// hit re-submits a stored spec, expects a cache hit, and GETs the
// result; the document must equal want byte for byte.
func hit(c *client, spec, want []byte) (hitSample, error) {
	var h hitSample
	t0 := time.Now()
	st, env, err := c.submit(spec)
	h.post = time.Since(t0).Seconds()
	if err != nil {
		return h, fmt.Errorf("hit: submit: %w", err)
	}
	if st != http.StatusOK || !env.Cached {
		return h, fmt.Errorf("hit: submit status %d cached=%v (want 200, cached)", st, env.Cached)
	}
	t1 := time.Now()
	st, doc, err := c.do(http.MethodGet, "/v1/results/"+env.ID, nil)
	h.get = time.Since(t1).Seconds()
	if err != nil || st != http.StatusOK {
		return h, fmt.Errorf("hit: result: status %d: %v", st, err)
	}
	if !bytes.Equal(doc, want) {
		return h, errors.New("hit: result document differs from the stored one")
	}
	return h, nil
}

// serveRun is everything one serve session measured.
type serveRun struct {
	setups  []float64 // daemon start until /healthz, s
	prime   jobSample
	jobs    []jobSample
	jobLat  latencies // fresh-job round trips; a failed job is a miss
	hits    []hitSample
	hitLat  latencies // hit POST+GET; a refused or failed request is a miss
	errs    []string
	rssMB   float64
	simS    float64 // daemon-side wall time per fresh job, s
	shardS  float64 // mean campaign shard time, s
	fsyncMS float64 // mean checkpoint fsync, ms
}

func (r *serveRun) fail(err error) { r.errs = append(r.errs, err.Error()) }

// serveSession runs the serve-mix traffic against fresh daemons in
// workdir: set-up (starts timed startups times; the last daemon stays
// up), a priming job, then for window two closed-loop connections —
// A submits fresh jobs one at a time, B re-submits the primed spec and
// GETs its result — until A has finished its last job and B has at
// least minHits samples. A window of zero submits no fresh jobs.
func serveSession(ctx context.Context, bin, workdir string, seed int64, startups int, window time.Duration, minHits int, refs *refTable) (*serveRun, error) {
	r := &serveRun{}
	var d *daemon
	defer func() { d.stop() }()
	for i := 0; i < startups; i++ {
		dir := fmt.Sprintf("%s/store-%d", workdir, i)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var (
			setup float64
			err   error
		)
		d, setup, err = startDaemon(bin, dir)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup)
		if i < startups-1 {
			d.stop()
		}
	}

	seeds := jobRunSeeds(seed)
	a, b := newClient(d.base), newClient(d.base)
	defer a.close()
	defer b.close()
	var err error
	r.prime, err = runJob(ctx, a, seeds[0])
	if err != nil {
		return nil, fmt.Errorf("priming job: %w\n%s", err, d.log)
	}
	if err := refs.checkJob(seeds[0], r.prime.doc); err != nil {
		r.fail(err)
	}
	before, err := a.metrics()
	if err != nil {
		return nil, err
	}

	win := newWindow(window)
	aDone := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r while both connections run
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(aDone)
		var totals []float64
		for _, rs := range seeds[1:] {
			if window <= 0 || !win.another(totals) || ctx.Err() != nil {
				return
			}
			s, err := runJob(ctx, a, rs)
			if err == nil {
				err = refs.checkJob(rs, s.doc)
			}
			mu.Lock()
			r.jobLat.record(s.total, err)
			totals = append(totals, s.total)
			if err != nil {
				r.fail(err)
			} else {
				r.jobs = append(r.jobs, s)
			}
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		spec := jobSpec(seeds[0])
		for n := 0; ctx.Err() == nil; n++ {
			select {
			case <-aDone:
				if n >= minHits {
					return
				}
			default:
			}
			h, err := hit(b, spec, r.prime.doc)
			mu.Lock()
			r.hitLat.record(h.post+h.get, err)
			if err != nil {
				r.fail(err)
			} else {
				r.hits = append(r.hits, h)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	after, err := a.metrics()
	if err != nil {
		return nil, err
	}
	if len(r.jobs) > 0 {
		c0, s0 := histogram(before, "server/job_ns")
		c1, s1 := histogram(after, "server/job_ns")
		if c1 > c0 {
			r.simS = (s1 - s0) / float64(c1-c0) / 1e9
		}
	}
	if c, s := histogram(after, "campaign/shard_ns"); c > 0 {
		r.shardS = s / float64(c) / 1e9
	}
	if c, s := histogram(after, "campaign/checkpoint_fsync_ns"); c > 0 {
		r.fsyncMS = s / float64(c) / 1e6
	}
	r.rssMB, err = d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	return r, nil
}
