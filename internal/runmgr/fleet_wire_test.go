package runmgr

// Wire-efficiency suite for the fleet protocol: the coordinator-side
// long-poll, the coalesced PushBatch path, backpressure, and the
// benchmarks that pin the RPC-per-realization budget.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/workload"
)

// windowSnap builds one valid push-window snapshot of n realizations.
func windowSnap(tb testing.TB, nrow, ncol int, n int64) stat.Snapshot {
	tb.Helper()
	acc := stat.New(nrow, ncol)
	out := make([]float64, nrow*ncol)
	for i := range out {
		out[i] = 0.5
	}
	for i := int64(0); i < n; i++ {
		if err := acc.AddTimed(out, time.Microsecond); err != nil {
			tb.Fatal(err)
		}
	}
	return acc.Snapshot()
}

// rpcPassEvery is the push-window size of the RPC-counting run.
const rpcPassEvery = 25

// runFleetCountingRPCs completes one hosted run on a local fleet of
// workers that long-poll for 1s and flush every 10ms, and returns the
// coordinator RPCs spent per merged realization.
func runFleetCountingRPCs(tb testing.TB, workers int) float64 {
	tb.Helper()
	cfg := Config{DataRoot: tb.TempDir(), AverPeriod: 20 * time.Millisecond}
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := m.StartLocalWorkers(ctx, workers, FleetWorkerConfig{
		PullWait:      time.Second,
		FlushInterval: 10 * time.Millisecond,
	})
	const maxsv = 4000
	st, err := m.Submit(Submission{
		Scenario:   workload.Spec{Workload: "pi"},
		MaxSamples: maxsv,
		PassEvery:  rpcPassEvery,
		LeaseSize:  500,
	})
	if err != nil {
		tb.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		s, err := m.Run(st.ID)
		if err != nil {
			tb.Fatal(err)
		}
		if s.State == StateDone {
			break
		}
		if s.State.Terminal() {
			tb.Fatalf("run ended %s: %s", s.State, s.Error)
		}
		if time.Now().After(deadline) {
			tb.Fatalf("run stuck in %s", s.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	calls := m.fleetCalls.Load()
	cancel()
	if _, err := g.Wait(); err != nil {
		tb.Fatal(err)
	}
	return float64(calls) / float64(maxsv)
}

// TestFleetRPCReduction pins the batched + long-polled protocol's
// budget: at most 1/(2·PassEvery) coordinator RPCs per merged
// realization. Pushing every window in its own RPC costs at least
// 1/PassEvery, so this is the "≥2× fewer RPCs than per-window pushes"
// contract as an absolute bound.
func TestFleetRPCReduction(t *testing.T) {
	batched := runFleetCountingRPCs(t, 4)
	bound := 1 / (2 * float64(rpcPassEvery))
	t.Logf("rpcs/realization: batched %.4f, bound %.4f", batched, bound)
	if batched > bound {
		t.Fatalf("batched protocol spends %.4f RPCs/realization, want ≤ %.4f (half of one RPC per window)", batched, bound)
	}
}

// TestNegativeWaitsRejected: the long-poll hold and the push cadence
// have no negative mode. The service refuses a negative PullWait at
// New, and a fleet worker refuses a negative PullWait or FlushInterval
// before it attaches — on the local transport through FleetGroup.Wait,
// over TCP before dialing. Each error names the field.
func TestNegativeWaitsRejected(t *testing.T) {
	cfg := testConfig(t)
	cfg.PullWait = -time.Second
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "PullWait") {
		t.Fatalf("New with negative PullWait: %v, want an error naming PullWait", err)
	}
	m := newManager(t, testConfig(t))
	for field, wcfg := range map[string]FleetWorkerConfig{
		"PullWait":      {PullWait: -time.Second},
		"FlushInterval": {FlushInterval: -time.Millisecond},
	} {
		_, local := m.StartLocalWorkers(context.Background(), 1, wcfg).Wait()
		_, tcp := RunFleetWorker(context.Background(), "127.0.0.1:1", wcfg)
		for transport, err := range map[string]error{"local": local, "tcp": tcp} {
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s worker with negative %s: %v, want an error naming %s", transport, field, err, field)
			}
		}
	}
	if n := m.fleetCalls.Load(); n != 0 {
		t.Fatalf("rejected local workers made %d fleet calls", n)
	}
}

// TestIdleFleetPullRate: an 8-worker fleet with nothing to do must
// cost at most 2 Pull RPC/s/worker — the long-poll parks each worker
// for the wait window instead of letting it spin on the poll timer.
func TestIdleFleetPullRate(t *testing.T) {
	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 8
	window := 2 * time.Second
	g := m.StartLocalWorkers(ctx, workers, FleetWorkerConfig{PullWait: time.Second})
	time.Sleep(window)
	pulls := m.pullCalls.Load()
	cancel()
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	budget := int64(2 * workers * int(window/time.Second)) // 2 RPC/s/worker
	if pulls > budget {
		t.Fatalf("idle fleet issued %d pulls in %v (budget %d): long-poll not parking", pulls, window, budget)
	}
	if pulls < workers {
		t.Fatalf("only %d pulls from %d workers — fleet never polled at all", pulls, workers)
	}
}

// TestLongPollWakeOnSubmit: a pull parked in the long-poll is granted
// work as soon as a submission makes some — not at its deadline.
func TestLongPollWakeOnSubmit(t *testing.T) {
	m := newManager(t, testConfig(t))
	at, err := m.attach(AttachArgs{ClientID: "longpoll"})
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan PullReply, 1)
	go func() {
		pr, _ := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch, Wait: 10 * time.Second})
		parked <- pr
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case pr := <-parked:
		t.Fatalf("pull answered %+v before any work existed", pr)
	default:
	}
	t0 := time.Now()
	if _, err := m.Submit(piSubmission(2000, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case pr := <-parked:
		if !pr.Granted {
			t.Fatalf("woken pull got %+v, want a grant", pr)
		}
		if el := time.Since(t0); el > 2*time.Second {
			t.Fatalf("submission took %v to wake the parked pull", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pull still parked long after submission")
	}
}

// TestPushBatchOrdering: a batch carrying several in-order windows of
// one lease merges entirely — the per-lease done ledger accepts the
// same strictly-increasing sequence it would see unbatched.
func TestPushBatchOrdering(t *testing.T) {
	m := newManager(t, testConfig(t))
	if _, err := m.Submit(piSubmission(100_000, 1)); err != nil {
		t.Fatal(err)
	}
	at, err := m.attach(AttachArgs{ClientID: "order"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("pull: %+v, %v", pr, err)
	}
	task := pr.Task
	snap := windowSnap(t, task.Nrow, task.Ncol, task.PassEvery)
	var entries []PushEntry
	for i := int64(1); i <= 4; i++ {
		entries = append(entries, PushEntry{
			RunID: task.RunID, LeaseID: task.Lease.ID, Done: i * task.PassEvery, Snap: snap,
		})
	}
	rep, err := m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	for i, er := range rep.Entries {
		if er.Err != "" || er.Fenced || er.Final {
			t.Fatalf("entry %d rejected: %+v", i, er)
		}
	}
	st, err := m.Run(task.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * task.PassEvery; st.N != want {
		t.Fatalf("merged N = %d after batch, want %d", st.N, want)
	}
	// A replayed (duplicate) batch must dedup to nothing: same absolute
	// substream positions, already merged.
	rep, err = m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	for i, er := range rep.Entries {
		if er.Err != "" {
			t.Fatalf("replayed entry %d errored: %q", i, er.Err)
		}
	}
	if st, _ = m.Run(task.RunID); st.N != 4*task.PassEvery {
		t.Fatalf("duplicate batch changed N to %d", st.N)
	}
}

// TestPushBatchBackpressure: when a run's collector saves take longer
// than the averaging period, batched pushes answer a positive
// RetryAfter so workers stretch their cadence. The clock is a stepping
// fake — every read advances it 30ms, so each save cycle "takes" at
// least one step against a 1ms averaging period.
func TestPushBatchBackpressure(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	cfg := testConfig(t)
	cfg.AverPeriod = time.Millisecond
	cfg.Now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(30 * time.Millisecond)
		return now
	}
	m := newManager(t, cfg)
	if _, err := m.Submit(piSubmission(100_000, 1)); err != nil {
		t.Fatal(err)
	}
	at, err := m.attach(AttachArgs{ClientID: "bp"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("pull: %+v, %v", pr, err)
	}
	task := pr.Task
	snap := windowSnap(t, task.Nrow, task.Ncol, task.PassEvery)
	var rep PushBatchReply
	for i := int64(1); i <= 3; i++ {
		rep, err = m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: []PushEntry{{
			RunID: task.RunID, LeaseID: task.Lease.ID, Done: i * task.PassEvery, Snap: snap,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if e := rep.Entries[0]; e.Err != "" || e.Fenced {
			t.Fatalf("push %d rejected: %+v", i, e)
		}
	}
	if rep.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v with lagging saves, want > 0", rep.RetryAfter)
	}
	if rep.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want capped at 1s", rep.RetryAfter)
	}
}

// TestDetachReissuesLeases: canceling the fleet workers' context —
// from inside realization cancelAt of one worker's lease — stops each
// worker at its next realization boundary, abandons the window in
// flight without pushing any part of it, detaches, and reissues every
// lease from its done ledger, which sits on a PassEvery boundary. The
// lease timeout is an hour, so any reissue observed here can only have
// come from the detach. Coalesced pushes may still hold completed
// windows when the context ends, so the canceling lease's ledger may
// sit below its last boundary, never above it.
func TestDetachReissuesLeases(t *testing.T) {
	// Coalesced pushes are the fleet worker's only push mode.
	t.Run("coalesced", func(t *testing.T) {
		const passEvery, cancelAt = 1000, 2500
		cfg := testConfig(t)
		cfg.LeaseTimeout = time.Hour
		m := newManager(t, cfg)
		st, err := m.Submit(Submission{
			Scenario:   workload.Spec{Workload: "test_probe"},
			MaxSamples: 10_000_000,
			PassEvery:  passEvery,
			LeaseSize:  500_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		var canceler uint64 // processor whose realization canceled
		setProbe(t, func(c rng.Coord) {
			if c.Realization == cancelAt {
				once.Do(func() {
					canceler = c.Processor
					cancel()
				})
			}
		})
		g := m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})
		exited := make(chan error, 1)
		go func() {
			_, err := g.Wait()
			exited <- err
		}()
		select {
		case err := <-exited:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("fleet workers did not exit after the cancel")
		}
		s, err := m.Run(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.Leases.Outstanding != 0 {
			t.Fatalf("%d leases still outstanding after all workers detached", s.Leases.Outstanding)
		}
		if s.Leases.Reissued == 0 {
			t.Fatal("no lease reissued on detach — remainder would wait out the 1h timeout")
		}

		// Every lease's done ledger is where its remainder starts.
		m.mu.Lock()
		ledger := map[uint64]uint64{}
		var sum uint64
		for _, l := range m.runs[st.ID].pending {
			ledger[l.Proc] = l.Start
			sum += l.Start
		}
		m.mu.Unlock()
		if sum != uint64(s.N) {
			t.Fatalf("merged N = %d, but the done ledgers sum to %d: a partial window was pushed", s.N, sum)
		}
		for proc, done := range ledger {
			if done%passEvery != 0 {
				t.Fatalf("proc %d: done ledger %d is not on a PassEvery boundary", proc, done)
			}
		}
		last := uint64(cancelAt / passEvery * passEvery)
		if got := ledger[canceler]; got > last {
			t.Fatalf("canceling proc %d: done ledger %d, want the last boundary %d before realization %d",
				canceler, got, last, cancelAt)
		}
	})
}

// TestRunsAPIMethodDispatch: every /runs route enforces its method set
// with 405 + Allow, and every error answer — including unknown routes —
// is the same JSON envelope {"error": "..."}.
func TestRunsAPIMethodDispatch(t *testing.T) {
	m := newManager(t, testConfig(t))
	st, err := m.Submit(piSubmission(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handler()
	cases := []struct {
		name      string
		method    string
		path      string
		wantCode  int
		wantAllow string
	}{
		{"put runs", http.MethodPut, "/runs", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"delete collection", http.MethodDelete, "/runs", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"patch runs", http.MethodPatch, "/runs", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"post run id", http.MethodPost, "/runs/" + st.ID, http.StatusMethodNotAllowed, "DELETE, GET, HEAD"},
		{"put run id", http.MethodPut, "/runs/" + st.ID, http.StatusMethodNotAllowed, "DELETE, GET, HEAD"},
		{"post report", http.MethodPost, "/runs/" + st.ID + "/report", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"delete report", http.MethodDelete, "/runs/" + st.ID + "/report", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"unknown route", http.MethodGet, "/nope", http.StatusNotFound, ""},
		{"trailing slash", http.MethodGet, "/runs/", http.StatusNotFound, ""},
		{"get runs ok", http.MethodGet, "/runs", http.StatusOK, ""},
		{"get run ok", http.MethodGet, "/runs/" + st.ID, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
			if rec.Code != tc.wantCode {
				t.Fatalf("%s %s = %d, want %d (body %q)", tc.method, tc.path, rec.Code, tc.wantCode, rec.Body.String())
			}
			if got := rec.Header().Get("Allow"); got != tc.wantAllow {
				t.Fatalf("Allow = %q, want %q", got, tc.wantAllow)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
				t.Fatalf("Content-Type = %q, want JSON", ct)
			}
			if tc.wantCode >= 400 {
				var envelope struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
					t.Fatalf("error body %q is not the JSON envelope (err %v)", rec.Body.String(), err)
				}
			}
		})
	}
}

// BenchmarkFleetRPCPerRealization measures coordinator RPCs per merged
// realization for the batched + long-polled protocol, reported as
// rpcs/real alongside the usual ns/op.
func BenchmarkFleetRPCPerRealization(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total += runFleetCountingRPCs(b, 4)
		}
		b.ReportMetric(total/float64(b.N), "rpcs/real")
	})
}

// BenchmarkPushBatch drives the coordinator's batch-merge entry point
// directly: 16 in-order windows per RPC against one long lease.
func BenchmarkPushBatch(b *testing.B) {
	cfg := Config{DataRoot: b.TempDir(), MaxRealizations: 100_000_000}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	const (
		maxsv     = int64(80_000_000)
		passEvery = int64(100)
		perBatch  = 16
	)
	at, err := m.attach(AttachArgs{ClientID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	// One huge lease per run keeps grant traffic off the hot path; when
	// a long -benchtime drains it, submit a fresh run and keep going
	// (the re-lease cost is amortized over tens of thousands of ops).
	newTask := func() Task {
		if _, err := m.Submit(Submission{
			Scenario:   workload.Spec{Workload: "pi"},
			MaxSamples: maxsv,
			PassEvery:  passEvery,
			LeaseSize:  maxsv,
		}); err != nil {
			b.Fatal(err)
		}
		pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
		if err != nil || !pr.Granted {
			b.Fatalf("pull: %+v, %v", pr, err)
		}
		return pr.Task
	}
	task := newTask()
	snap := windowSnap(b, task.Nrow, task.Ncol, passEvery)
	batchesLeft := task.Lease.Count / passEvery / perBatch
	entries := make([]PushEntry, perBatch)
	done := int64(0)
	// Warm the merge path (collector shards, journal buffers) so a
	// low-N run measures steady-state batch application, not setup.
	for k := range entries {
		done += passEvery
		entries[k] = PushEntry{RunID: task.RunID, LeaseID: task.Lease.ID, Done: done, Snap: snap}
	}
	if _, err := m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: entries}); err != nil {
		b.Fatal(err)
	}
	batchesLeft--
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batchesLeft == 0 {
			task = newTask()
			batchesLeft = task.Lease.Count / passEvery / perBatch
			done = 0
		}
		batchesLeft--
		for k := range entries {
			done += passEvery
			entries[k] = PushEntry{RunID: task.RunID, LeaseID: task.Lease.ID, Done: done, Snap: snap}
		}
		rep, err := m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: entries})
		if err != nil {
			b.Fatal(err)
		}
		if e := rep.Entries[0]; e.Err != "" || e.Fenced || e.Final {
			b.Fatalf("batch %d rejected: %+v", i, e)
		}
	}
	b.ReportMetric(float64(perBatch), "windows/op")
}
