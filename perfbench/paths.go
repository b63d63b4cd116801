package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parmonc"
	"parmonc/internal/cluster"
	"parmonc/internal/core"
	"parmonc/internal/obs"
	"parmonc/internal/runmgr"
	"parmonc/internal/store"
	"parmonc/internal/workload"
)

// The four execution paths, each configured as its CLI verb configures
// it by default.
const (
	pathInproc = "inproc" // parmonc run
	pathCoord  = "coord"  // parmonc coord + 2× parmonc worker
	pathLocal  = "local"  // parmonc serve -local-workers 2
	pathTCP    = "tcp"    // parmonc serve + 2× parmonc worker -service
)

// pathNames is the order paths run in; coord goes first because its
// job length is fixed by a 10 s timer (see README.md).
var pathNames = []string{pathCoord, pathInproc, pathLocal, pathTCP}

// workers is the worker count of every path: one per core of the
// 2-core reference host, as `parmonc run` picks by default there.
const workers = 2

// job is one submission: a resolved workload plus the run shape.
type job struct {
	name      string // registry name the service resolves (a traced wrapper in trace mode)
	id        workload.Identity
	values    workload.Values
	factory   core.Factory
	scenario  string
	maxsv     int64
	passEvery int64
}

// outcome is what one run reported back through its path's public
// entry points.
type outcome struct {
	path  string
	seq   uint64
	want  int64 // the run's maxsv
	runID string

	state string
	err   string
	n     int64

	mean, absErr, variance []float64

	sent, done time.Time // client send; path-reported completion

	// Service paths only.
	submitRTT time.Duration
	queueWait time.Duration // StartedAt − SubmittedAt
	exec      time.Duration // FinishedAt − StartedAt
	leases    runmgr.LeaseCounters

	// inproc and coord only.
	pushes int64

	// coord only.
	leasesGranted, leasesReissued, heartbeats int64
	tail                                      time.Duration // target reached → Wait returned
}

func (o outcome) ok() bool { return o.state == "done" && o.n == o.want && o.err == "" }

func (o outcome) elapsed() time.Duration { return o.done.Sub(o.sent) }

// runInproc executes one run the way `parmonc run -workers 2` does:
// RunFactory with the CLI's default pass/averaging periods, worker
// snapshots and journal, in a fresh working directory.
func runInproc(ctx context.Context, root string, j job, seq uint64) outcome {
	o := outcome{path: pathInproc, seq: seq, want: j.maxsv, runID: fmt.Sprintf("inproc-%d", seq)}
	dir := runDir(root, o.runID)
	d, err := store.Open(dir)
	if err != nil {
		o.err = err.Error()
		return o
	}
	journal, err := obs.OpenJournal(d.JournalPath())
	if err != nil {
		o.err = err.Error()
		return o
	}
	defer journal.Close()
	cfg := parmonc.Config{
		Nrow:                j.id.Nrow,
		Ncol:                j.id.Ncol,
		MaxSamples:          j.maxsv,
		SeqNum:              seq,
		Workers:             workers,
		PassPeriod:          time.Minute,
		AverPeriod:          2 * time.Minute,
		WorkDir:             dir,
		SaveWorkerSnapshots: true,
		Workload:            j.id.Name,
		Fingerprint:         j.id.Fingerprint(),
		Scenario:            j.scenario,
		Journal:             journal,
	}
	o.sent = time.Now()
	res, err := parmonc.RunFactory(ctx, cfg, j.factory)
	o.done = time.Now()
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.state = "done"
	if res.Interrupted {
		o.state = "canceled"
	}
	o.setReport(res.Report)
	o.pushes = res.Metrics.Pushes
	return o
}

func (o *outcome) setReport(rep parmonc.Report) {
	o.n = rep.N
	o.mean = append([]float64(nil), rep.Mean...)
	o.absErr = append([]float64(nil), rep.AbsErr...)
	o.variance = append([]float64(nil), rep.Var...)
}

// newCoordinator brings up the single-job coordinator of `parmonc
// coord` with its CLI defaults on a loopback port. It is set-up, not
// run time: the job exists once it returns.
func newCoordinator(root string, j job, seq uint64) (*parmonc.Coordinator, *obs.Journal, error) {
	dir := runDir(root, fmt.Sprintf("coord-%d", seq))
	d, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	journal, err := obs.OpenJournal(d.JournalPath())
	if err != nil {
		return nil, nil, err
	}
	spec := parmonc.JobSpec{
		SeqNum:     seq,
		Nrow:       j.id.Nrow,
		Ncol:       j.id.Ncol,
		MaxSamples: j.maxsv,
		Params:     parmonc.DefaultParams(),
		Gamma:      3,
		PassEvery:  j.passEvery,
		Workload:   j.id,
		Heartbeat:  10 * time.Second,
	}
	cfg := parmonc.CoordinatorConfig{
		WorkDir:             dir,
		AverPeriod:          2 * time.Minute,
		MissBudget:          3,
		SaveWorkerSnapshots: true,
		DrainTimeout:        2 * time.Second,
		Journal:             journal,
	}
	c, err := parmonc.NewCoordinator(spec, cfg, "127.0.0.1:0")
	if err != nil {
		journal.Close()
		return nil, nil, err
	}
	return c, journal, nil
}

// runDirs numbers working directories so that no two runs share one.
var runDirs atomic.Int64

func runDir(root, name string) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d", name, runDirs.Add(1)))
}

// startCoord starts one job on a fresh coordinator with two TCP
// workers and returns once the coordinator's Status reports the target
// reached: the run is timed from starting the workers until then. The
// job winds down in the background: Wait returns only once every
// worker has deregistered, which a worker that found no lease to
// acquire does after a full Heartbeat (10 s) backoff. finish waits for
// that and completes the outcome; outcome.tail is the wind-down.
func startCoord(ctx context.Context, root string, j job, seq uint64) (o outcome, finish func() outcome) {
	o = outcome{path: pathCoord, seq: seq, want: j.maxsv, runID: fmt.Sprintf("coord-%d", seq)}
	c, journal, err := newCoordinator(root, j, seq)
	if err != nil {
		o.err = err.Error()
		return o, func() outcome { return o }
	}
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	o.sent = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = parmonc.RunWorkerOpts(wctx, c.Addr(), j.factory, parmonc.WorkerOptions{})
		}(w)
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	tick := time.NewTicker(time.Millisecond)
wait:
	for !c.Status().TargetReached {
		select {
		case <-tick.C:
		case <-exited:
			break wait
		case <-ctx.Done():
			break wait
		}
	}
	tick.Stop()
	o.done = time.Now()
	return o, func() outcome {
		defer journal.Close()
		defer c.Close()
		defer cancel()
		rep, err := c.Wait(ctx)
		o.tail = time.Since(o.done)
		if err != nil {
			cancel()
		}
		<-exited
		st := c.Status()
		o.pushes = st.Metrics.Pushes
		o.leasesGranted, o.leasesReissued, o.heartbeats = st.LeasesGranted, st.LeasesReissued, st.Heartbeats
		if err == nil {
			err = errors.Join(errs...)
		}
		if err != nil {
			o.err = err.Error()
			return o
		}
		o.state = "done"
		o.setReport(rep)
		return o
	}
}

// service is one `parmonc serve` stack: manager (with the service
// registry and journal on), fleet listener, control API, two workers.
type service struct {
	kind    string
	m       *runmgr.Manager
	journal *obs.Journal
	srv     *obs.Server
	cancel  context.CancelFunc
	wait    func() []runmgr.FleetWorkerReport
	reports []runmgr.FleetWorkerReport
	closed  bool
}

// startService brings a service up with `serve`'s default flags and
// returns once both workers are attached. wrap, if non-nil, wraps the
// fleet listener (trace mode counts RPCs on it).
func startService(ctx context.Context, kind, dir string, wrap func(net.Listener) net.Listener) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	journal, err := obs.OpenJournalRotating(filepath.Join(dir, "service.events.jsonl"), 64<<20)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	m, err := runmgr.New(runmgr.Config{
		DataRoot:        dir,
		MaxActive:       4,
		MaxQueued:       16,
		MaxRealizations: 100_000_000,
		AverPeriod:      2 * time.Minute,
		LeaseTimeout:    30 * time.Second,
		JournalMaxBytes: 64 << 20,
		PullWait:        30 * time.Second,
		Registry:        reg,
		Journal:         journal,
		Recover:         runmgr.RecoverStrict,
	})
	if err != nil {
		journal.Close()
		return nil, err
	}
	s := &service{kind: kind, m: m, journal: journal}
	fail := func(err error) (*service, error) {
		s.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	if err := m.ServeFleet(ln); err != nil {
		ln.Close()
		return fail(err)
	}
	api := m.Handler()
	s.srv, err = obs.Serve("127.0.0.1:0", obs.ServerConfig{
		Registry: reg,
		Journal:  journal,
		Status:   func() any { return m.Status() },
		Routes:   map[string]http.Handler{"/runs": api, "/runs/": api},
	})
	if err != nil {
		return fail(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	switch kind {
	case pathLocal:
		g := m.StartLocalWorkers(wctx, workers, runmgr.FleetWorkerConfig{})
		s.wait = func() []runmgr.FleetWorkerReport {
			reps, _ := g.Wait() // workers end with the manager; their reports carry the counts
			return reps
		}
	case pathTCP:
		var wg sync.WaitGroup
		reps := make([]runmgr.FleetWorkerReport, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				reps[w], _ = runmgr.RunFleetWorker(wctx, ln.Addr().String(), runmgr.FleetWorkerConfig{
					Retry:         cluster.DefaultRetryPolicy(),
					PullWait:      10 * time.Second,
					FlushInterval: 50 * time.Millisecond,
					MaxBatch:      64,
				})
			}(w)
		}
		s.wait = func() []runmgr.FleetWorkerReport { wg.Wait(); return reps }
	default:
		return fail(fmt.Errorf("unknown service kind %q", kind))
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Status().Workers < workers {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("%s service: workers did not attach within 10s", kind))
		}
		time.Sleep(200 * time.Microsecond)
	}
	return s, nil
}

// close stops the workers, then the service, so that the workers'
// reports (kept in s.reports) count no reconnects caused by shutdown.
// Closing twice is harmless.
func (s *service) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.cancel != nil {
		s.cancel()
	}
	if s.wait != nil {
		s.reports = s.wait()
		s.wait = nil
	}
	s.m.Close()
	if s.srv != nil {
		s.srv.Close()
	}
	s.journal.Close()
}

// client is one load-generator client of the control API: one
// keep-alive connection, as a CLI session would hold.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// submit POSTs one run; the outcome carries the send time and the
// submit round trip.
func (c *client) submit(j job, seq uint64) (outcome, error) {
	sub := runmgr.Submission{
		Scenario:   workload.Spec{Workload: j.name, Params: j.values},
		MaxSamples: j.maxsv,
		SeqNum:     seq,
		PassEvery:  j.passEvery,
	}
	o := outcome{seq: seq, want: j.maxsv, sent: time.Now()}
	var st runmgr.RunStatus
	err := c.do(http.MethodPost, "/runs", sub, &st)
	o.submitRTT = time.Since(o.sent)
	o.runID = st.ID
	return o, err
}

// poll fetches a run's status; when it is terminal it fills o from the
// status and the report and returns true.
func (c *client) poll(o *outcome) (bool, error) {
	var st runmgr.RunStatus
	if err := c.do(http.MethodGet, "/runs/"+o.runID, nil, &st); err != nil {
		return false, err
	}
	if !st.State.Terminal() {
		return false, nil
	}
	o.state, o.err, o.leases = string(st.State), st.Error, st.Leases
	if st.FinishedAt != nil {
		o.done = *st.FinishedAt
		if st.StartedAt != nil {
			o.queueWait = st.StartedAt.Sub(st.SubmittedAt)
			o.exec = st.FinishedAt.Sub(*st.StartedAt)
		}
	}
	if st.State != runmgr.StateDone {
		return true, nil
	}
	var rep runmgr.ReportPayload
	if err := c.do(http.MethodGet, "/runs/"+o.runID+"/report", nil, &rep); err != nil {
		return true, err
	}
	o.n = rep.N
	o.mean, o.absErr, o.variance = floats(rep.Mean), floats(rep.AbsErr), floats(rep.Var)
	return true, nil
}

func floats(xs []runmgr.JSONFloat) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// pollEvery is the completion-poll period. Latency and throughput use
// the server's FinishedAt, so the period does not quantize them; it
// only bounds how soon a closed-loop client sends its next run.
const pollEvery = 10 * time.Millisecond

// runService submits one run and polls it to completion.
func runService(ctx context.Context, c *client, kind string, j job, seq uint64) outcome {
	o, err := c.submit(j, seq)
	o.path = kind
	if err != nil {
		o.err = err.Error()
		o.done = time.Now()
		return o
	}
	for {
		done, err := c.poll(&o)
		if err != nil {
			o.err = err.Error()
			return o
		}
		if done {
			return o
		}
		select {
		case <-ctx.Done():
			o.err = ctx.Err().Error()
			return o
		case <-time.After(pollEvery):
		}
	}
}
