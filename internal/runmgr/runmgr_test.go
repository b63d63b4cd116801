package runmgr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/obs"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/workload"
	_ "parmonc/internal/workload/builtin"
)

// probeHook, when set, runs at the start of every realization of the
// test-only "test_probe" workload with the realization's coordinate.
var probeHook atomic.Pointer[func(rng.Coord)]

func init() {
	workload.Register(workload.Definition{
		Name:        "test_probe",
		Description: "pi with a per-realization test hook",
		Schema:      workload.Schema{Version: 1},
		Dims:        func(workload.Values) (int, int) { return 1, 1 },
		Factory: func(workload.Values) (core.Factory, error) {
			return func(int) (core.Realization, error) {
				return func(src *rng.Stream, out []float64) error {
					if h := probeHook.Load(); h != nil {
						(*h)(src.Coord())
					}
					x, y := src.Float64(), src.Float64()
					if x*x+y*y < 1 {
						out[0] = 1
					}
					return nil
				}, nil
			}, nil
		},
	})
}

// setProbe installs h as the probe hook until the test ends.
func setProbe(t *testing.T, h func(rng.Coord)) {
	t.Helper()
	probeHook.Store(&h)
	t.Cleanup(func() { probeHook.Store(nil) })
}

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		DataRoot:   t.TempDir(),
		AverPeriod: 20 * time.Millisecond,
	}
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func piSubmission(maxsv int64, seq uint64) Submission {
	return Submission{
		Scenario:   workload.Spec{Workload: "pi"},
		MaxSamples: maxsv,
		SeqNum:     seq,
		PassEvery:  100,
		LeaseSize:  1000,
	}
}

// waitState polls until the run reaches a terminal state or the state
// in want, failing the test on timeout.
func waitState(t *testing.T, m *Manager, id string, want State, timeout time.Duration) RunStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := m.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("run %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s after %v, want %s", id, st.State, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, testConfig(t))
	cases := []struct {
		name string
		sub  Submission
		frag string
	}{
		{"no workload", Submission{MaxSamples: 100}, "no workload name"},
		{"unknown workload", Submission{Scenario: workload.Spec{Workload: "nosuch"}, MaxSamples: 100}, "nosuch"},
		{"no target", Submission{Scenario: workload.Spec{Workload: "pi"}}, "positive realization target"},
		{"bad param", Submission{Scenario: workload.Spec{Workload: "pi", Params: workload.Values{"bogus": 1}}, MaxSamples: 100}, "bogus"},
		{"negative pass-every", Submission{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 100, PassEvery: -1}, "pass-every"},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.sub); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.frag)
		}
	}
}

func TestSubmitBudget(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRealizations = 5000
	m := newManager(t, cfg)
	if _, err := m.Submit(piSubmission(5001, 1)); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget submit: err = %v", err)
	}
	if _, err := m.Submit(piSubmission(5000, 2)); err != nil {
		t.Fatalf("at-budget submit: %v", err)
	}
}

func TestAdmissionQueueBounds(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxActive = 1
	cfg.MaxQueued = 2
	m := newManager(t, cfg)

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := m.Submit(piSubmission(2000, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := m.Submit(piSubmission(2000, 9)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: err = %v, want ErrQueueFull", err)
	}
	if st, _ := m.Run(ids[0]); st.State != StateAdmitted {
		t.Fatalf("first run is %s, want admitted", st.State)
	}
	for _, id := range ids[1:] {
		if st, _ := m.Run(id); st.State != StateQueued {
			t.Fatalf("run %s is %s, want queued", id, st.State)
		}
	}

	// Canceling the active run frees its slot to the head of the queue,
	// and the freed queue slot accepts a new submission.
	if _, err := m.Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Run(ids[1]); st.State != StateAdmitted {
		t.Fatalf("after cancel, second run is %s, want admitted", st.State)
	}
	if _, err := m.Submit(piSubmission(2000, 9)); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
}

func TestSeqNumAssignment(t *testing.T) {
	m := newManager(t, testConfig(t))
	a, err := m.Submit(Submission{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(Submission{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if a.SeqNum == b.SeqNum {
		t.Fatalf("auto-assigned subsequences collide: %d", a.SeqNum)
	}
	// An explicit number already in use is rejected: two hosted runs
	// must never share base random numbers.
	if _, err := m.Submit(piSubmission(1000, a.SeqNum)); err == nil {
		t.Fatalf("duplicate explicit seqnum %d accepted", a.SeqNum)
	}
	c, err := m.Submit(piSubmission(1000, 77))
	if err != nil {
		t.Fatal(err)
	}
	if c.SeqNum != 77 {
		t.Fatalf("explicit seqnum: got %d, want 77", c.SeqNum)
	}
	// Auto-assignment skips explicitly taken numbers.
	d, err := m.Submit(Submission{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, prev := range []uint64{a.SeqNum, b.SeqNum, 77} {
		if d.SeqNum == prev {
			t.Fatalf("auto seqnum %d collides with used %d", d.SeqNum, prev)
		}
	}
}

// TestFairSharePull drives the scheduler directly through the fleet
// protocol: with two active runs, consecutive grants alternate between
// them (grant to the run with the fewest outstanding leases).
func TestFairSharePull(t *testing.T) {
	m := newManager(t, testConfig(t))
	a, err := m.Submit(piSubmission(4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(piSubmission(4000, 2))
	if err != nil {
		t.Fatal(err)
	}
	at, err := m.attach(AttachArgs{Hostname: "test"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 4; i++ {
		pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Granted {
			t.Fatalf("pull %d: nothing granted", i)
		}
		got = append(got, pr.Task.RunID)
	}
	want := []string{a.ID, b.ID, a.ID, b.ID}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

// TestProtocolNack: a worker that cannot serve a run is excluded from
// it and the lease window is regranted intact to another worker.
func TestProtocolNack(t *testing.T) {
	m := newManager(t, testConfig(t))
	st, err := m.Submit(piSubmission(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := m.attach(AttachArgs{Hostname: "w1"})
	w2, _ := m.attach(AttachArgs{Hostname: "w2"})

	pr, err := m.pullTask(context.Background(), PullArgs{Worker: w1.Worker, Epoch: w1.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("pull: granted=%v err=%v", pr.Granted, err)
	}
	first := pr.Task.Lease
	if err := m.nackTask(NackArgs{Worker: w1.Worker, Epoch: w1.Epoch, RunID: st.ID, LeaseID: first.ID, Reason: "not linked here"}); err != nil {
		t.Fatal(err)
	}
	// The nacking worker never sees this run again.
	if pr, _ := m.pullTask(context.Background(), PullArgs{Worker: w1.Worker, Epoch: w1.Epoch}); pr.Granted {
		t.Fatalf("nacking worker was granted %s again", pr.Task.RunID)
	}
	// Another worker gets the same window back under a fresh grant ID.
	pr2, err := m.pullTask(context.Background(), PullArgs{Worker: w2.Worker, Epoch: w2.Epoch})
	if err != nil || !pr2.Granted {
		t.Fatalf("pull from w2: granted=%v err=%v", pr2.Granted, err)
	}
	re := pr2.Task.Lease
	if re.Proc != first.Proc || re.Start != first.Start || re.Count != first.Count {
		t.Fatalf("reissued lease %+v, want window of %+v", re, first)
	}
	if re.ID == first.ID {
		t.Fatalf("reissued lease kept grant ID %d", re.ID)
	}
	rs, _ := m.Run(st.ID)
	if rs.Leases.Nacks != 1 || rs.Leases.Reissued != 1 {
		t.Fatalf("counters = %+v, want 1 nack, 1 reissue", rs.Leases)
	}
}

// TestProtocolFail: a definitive realization failure fails the run and
// saves partial results.
func TestProtocolFail(t *testing.T) {
	m := newManager(t, testConfig(t))
	st, err := m.Submit(piSubmission(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := m.attach(AttachArgs{Hostname: "w"})
	pr, _ := m.pullTask(context.Background(), PullArgs{Worker: w.Worker, Epoch: w.Epoch})
	if !pr.Granted {
		t.Fatal("no grant")
	}
	if err := m.failTask(FailArgs{Worker: w.Worker, Epoch: w.Epoch, RunID: st.ID, LeaseID: pr.Task.Lease.ID, Reason: "boom"}); err != nil {
		t.Fatal(err)
	}
	rs, _ := m.Run(st.ID)
	if rs.State != StateFailed || !strings.Contains(rs.Error, "boom") {
		t.Fatalf("run = %s (%q), want failed/boom", rs.State, rs.Error)
	}
	// The failed run's slot is free again.
	if next, err := m.Submit(piSubmission(1000, 2)); err != nil {
		t.Fatal(err)
	} else if s, _ := m.Run(next.ID); s.State != StateAdmitted {
		t.Fatalf("post-failure submit is %s, want admitted", s.State)
	}
}

// TestFleetCallsFenceEpochZero: service epochs start at 1, so a fleet
// call carrying epoch 0 comes from no incarnation this service ever
// ran. Every kind of call is fenced or ignored, counted by the
// stale-epoch metric, and leaves the run exactly as it was.
func TestFleetCallsFenceEpochZero(t *testing.T) {
	cfg := testConfig(t)
	cfg.Registry = obs.NewRegistry()
	m := newManager(t, cfg)
	st, err := m.Submit(piSubmission(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.attach(AttachArgs{Hostname: "w"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := m.pullTask(context.Background(), PullArgs{Worker: w.Worker, Epoch: w.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("pull: granted=%v err=%v", pr.Granted, err)
	}
	task := pr.Task
	snap := windowSnap(t, task.Nrow, task.Ncol, task.PassEvery)
	cases := []struct {
		name string
		call func() error
	}{
		{"pull", func() error {
			pr, err := m.pullTask(context.Background(), PullArgs{Worker: w.Worker})
			if err == nil && (!pr.Reattach || pr.Granted) {
				err = fmt.Errorf("reply %+v, want Reattach", pr)
			}
			return err
		}},
		{"push batch", func() error {
			rep, err := m.pushBatch(PushBatchArgs{Worker: w.Worker, Entries: []PushEntry{{
				RunID: task.RunID, LeaseID: task.Lease.ID, Done: task.PassEvery, Snap: snap,
			}}})
			if err == nil && rep.Entries[0] != (PushEntryReply{Fenced: true}) {
				err = fmt.Errorf("entry verdict %+v, want Fenced", rep.Entries[0])
			}
			return err
		}},
		{"nack", func() error {
			return m.nackTask(NackArgs{Worker: w.Worker, RunID: task.RunID, LeaseID: task.Lease.ID, Reason: "zombie"})
		}},
		{"fail", func() error {
			return m.failTask(FailArgs{Worker: w.Worker, RunID: task.RunID, LeaseID: task.Lease.ID, Reason: "zombie"})
		}},
		{"detach", func() error { return m.detach(DetachArgs{Worker: w.Worker}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := cfg.Registry.Snapshot()["parmonc_fleet_stale_epoch_total"]
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
			if d := cfg.Registry.Snapshot()["parmonc_fleet_stale_epoch_total"] - before; d != 1 {
				t.Errorf("stale-epoch count rose by %v, want 1", d)
			}
			rs, err := m.Run(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			want := LeaseCounters{Total: rs.Leases.Total, Granted: 1, Outstanding: 1, Pending: rs.Leases.Total - 1}
			if rs.State != StateRunning || rs.N != 0 || rs.Leases != want {
				t.Errorf("run is %s with N %d, leases %+v; want running, N 0, leases %+v", rs.State, rs.N, rs.Leases, want)
			}
			m.mu.Lock()
			attached := m.workers[w.Worker] != nil
			m.mu.Unlock()
			if !attached {
				t.Error("worker detached")
			}
		})
	}
}

// TestLocalWorkersRunToCompletion: the end-to-end happy path on the
// in-process transport, including the final report.
func TestLocalWorkersRunToCompletion(t *testing.T) {
	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := m.StartLocalWorkers(ctx, 3, FleetWorkerConfig{})

	st, err := m.Submit(piSubmission(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateDone, 30*time.Second)
	if final.N != 5000 {
		t.Fatalf("final N = %d, want 5000", final.N)
	}
	if final.Leases.Completed != int64(final.Leases.Total) || final.Leases.Outstanding != 0 || final.Leases.Pending != 0 {
		t.Fatalf("lease counters not drained: %+v", final.Leases)
	}
	rep, err := m.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 5000 || len(rep.Mean) != rep.Nrow*rep.Ncol {
		t.Fatalf("report N=%d dims=%dx%d len=%d", rep.N, rep.Nrow, rep.Ncol, len(rep.Mean))
	}
	// π/4 ≈ 0.785: the estimate should at least be in the ballpark.
	if rep.Mean[0] < 0.7 || rep.Mean[0] > 0.9 {
		t.Fatalf("pi estimate %g out of range", float64(rep.Mean[0]))
	}
	cancel()
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStopRuleCompletesEarly: a run with a relative-error target
// finishes as done before exhausting its realization budget.
func TestStopRuleCompletesEarly(t *testing.T) {
	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})

	st, err := m.Submit(Submission{
		Scenario:     workload.Spec{Workload: "pi"},
		MaxSamples:   2_000_000,
		SeqNum:       1,
		PassEvery:    100,
		LeaseSize:    10_000,
		TargetRelErr: 25, // generous: satisfied after ~a thousand samples
		MinSamples:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateDone, 60*time.Second)
	if final.N < 1000 {
		t.Fatalf("stopped below the sample floor: N = %d", final.N)
	}
	if final.N >= 2_000_000 {
		t.Fatalf("stop rule never fired: N = %d", final.N)
	}
}

// TestManagerCloseCancelsRuns: Close drives every live run terminal
// and stops local workers via the Stop flag.
func TestManagerCloseCancelsRuns(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxActive = 1
	m := newManager(t, cfg)
	a, err := m.Submit(piSubmission(1_000_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(piSubmission(1_000_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, err := m.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Fatalf("run %s is %s after Close, want canceled", id, st.State)
		}
	}
	if _, err := m.Submit(piSubmission(1000, 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v", err)
	}
}

// TestFleetPanicFailsLeaseWorkerKeepsPulling: a realization that
// panics fails its lease, and so its run, with a reason naming the
// panic and the realization's absolute index in its processor
// subsequence; the fleet worker survives and serves the next run.
func TestFleetPanicFailsLeaseWorkerKeepsPulling(t *testing.T) {
	const passEvery, panicAt = 100, 150
	m := newManager(t, testConfig(t))
	st, err := m.Submit(Submission{
		Scenario:   workload.Spec{Workload: "test_probe"},
		MaxSamples: 1000,
		PassEvery:  passEvery,
		LeaseSize:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A first worker pushes the lease's first window and detaches, so
	// the remainder is reissued from realization passEvery: the
	// panicking realization's absolute index then differs from its
	// index within the reissued lease.
	first, err := m.attach(AttachArgs{Hostname: "first"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := m.pullTask(context.Background(), PullArgs{Worker: first.Worker, Epoch: first.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("first worker got no grant: %+v, %v", pr, err)
	}
	l := pr.Task.Lease
	stream, err := rng.NewStream(pr.Task.Params, rng.Coord{Experiment: pr.Task.SeqNum, Processor: l.Proc, Realization: l.Start})
	if err != nil {
		t.Fatal(err)
	}
	realize, err := resolveTask(pr.Task, first.Worker)
	if err != nil {
		t.Fatal(err)
	}
	acc := stat.New(1, 1)
	if _, err := core.Simulate(nil, nil, stream, realize, make([]float64, 1), acc, 0, passEvery); err != nil {
		t.Fatal(err)
	}
	if rep := m.pushOne(first.Epoch, PushEntry{RunID: st.ID, LeaseID: l.ID, Done: passEvery, Snap: acc.Snapshot()}); rep != (PushEntryReply{}) {
		t.Fatalf("first window push: %+v", rep)
	}
	if err := m.detach(DetachArgs{Worker: first.Worker, Epoch: first.Epoch}); err != nil {
		t.Fatal(err)
	}

	setProbe(t, func(c rng.Coord) {
		if c.Processor == l.Proc && c.Realization == panicAt {
			panic("probe bug")
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := m.StartLocalWorkers(ctx, 1, FleetWorkerConfig{})
	failed := waitState(t, m, st.ID, StateFailed, 30*time.Second)
	for _, frag := range []string{"panicked", "probe bug", fmt.Sprintf("realization %d", panicAt)} {
		if !strings.Contains(failed.Error, frag) {
			t.Errorf("failure reason %q lacks %q", failed.Error, frag)
		}
	}

	// The same worker, still pulling, serves the next run.
	next, err := m.Submit(piSubmission(3000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, m, next.ID, StateDone, 30*time.Second); done.N != 3000 {
		t.Fatalf("next run N = %d, want 3000", done.N)
	}
	cancel()
	reps, err := g.Wait()
	if err != nil {
		t.Fatalf("fleet worker exited with %v after the panic", err)
	}
	if len(reps) != 1 || reps[0].Realizations < 3000+panicAt-passEvery {
		t.Fatalf("worker reports %+v, want one worker that ran both runs", reps)
	}
}

// TestLeaseTimeoutReissue: a worker that pulls a lease and goes silent
// has it reissued to a live worker; the run still completes exactly.
func TestLeaseTimeoutReissue(t *testing.T) {
	cfg := testConfig(t)
	cfg.LeaseTimeout = 100 * time.Millisecond
	m := newManager(t, cfg)

	st, err := m.Submit(piSubmission(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A zombie worker takes a lease and never comes back.
	zw, _ := m.attach(AttachArgs{Hostname: "zombie"})
	pr, _ := m.pullTask(context.Background(), PullArgs{Worker: zw.Worker, Epoch: zw.Epoch})
	if !pr.Granted {
		t.Fatal("zombie got no grant")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})
	final := waitState(t, m, st.ID, StateDone, 30*time.Second)
	if final.N != 3000 {
		t.Fatalf("final N = %d, want 3000 (reissued window included exactly once)", final.N)
	}
	if final.Leases.Reissued == 0 {
		t.Fatal("no lease was reissued despite the zombie")
	}
}

// TestTerminalRunsReleaseExecutionState: a service hosting many runs
// must not keep each finished run's journal, collector and grant map
// alive. Status, report and the per-run samples gauge are served from
// the final report instead.
func TestTerminalRunsReleaseExecutionState(t *testing.T) {
	const runs, maxsv = 200, 400
	cfg := testConfig(t)
	cfg.Registry = obs.NewRegistry()
	cfg.MaxQueued = runs
	m := newManager(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})

	subs := make([]Submission, runs)
	ids := make([]string, runs)
	for i := range subs {
		subs[i] = piSubmission(maxsv, uint64(i+1))
		subs[i].LeaseSize = 200
		st, err := m.Submit(subs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone, 60*time.Second)
	}

	m.mu.Lock()
	for _, id := range ids {
		r := m.runs[id]
		if r.journal != nil || r.eng != nil || r.granted != nil {
			t.Errorf("terminal run %s still holds journal %v, collector %v, grants %v",
				id, r.journal != nil, r.eng != nil, r.granted != nil)
		}
	}
	m.mu.Unlock()

	metrics := cfg.Registry.Snapshot()
	for i, id := range ids {
		st, err := m.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.N != maxsv || rep.N != maxsv || st.MaxRelErr != rep.MaxRelErr {
			t.Errorf("run %s: status N %d relerr %v, report N %d relerr %v",
				id, st.N, st.MaxRelErr, rep.N, rep.MaxRelErr)
		}
		if got := metrics[`parmonc_run_samples{run="`+id+`"}`]; got != maxsv {
			t.Errorf("run %s: parmonc_run_samples = %v, want %d", id, got, maxsv)
		}
		if i == 0 || i == runs-1 {
			compareReports(t, "released/"+id, rep, runIsolated(t, subs[i]))
		}
	}
	cancel()
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseCompletedWhenAnotherPushFinishesRun: two final windows
// merge concurrently and the second push's reply finishes the run
// before the first push re-takes the manager lock. The first lease
// completed too and must count as completed, not silently vanish with
// the revoked grants.
func TestLeaseCompletedWhenAnotherPushFinishesRun(t *testing.T) {
	m := newManager(t, testConfig(t))
	sub := piSubmission(2000, 1)
	sub.PassEvery = 1000
	st, err := m.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.attach(AttachArgs{Hostname: "w"})
	if err != nil {
		t.Fatal(err)
	}
	var leases []Task
	for i := 0; i < 2; i++ {
		pr, err := m.pullTask(context.Background(), PullArgs{Worker: w.Worker, Epoch: w.Epoch})
		if err != nil || !pr.Granted {
			t.Fatalf("pull %d: granted=%v err=%v", i, pr.Granted, err)
		}
		leases = append(leases, pr.Task)
	}
	window := stat.New(1, 1)
	for i := 0; i < 1000; i++ {
		if err := window.Add([]float64{float64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := window.Snapshot()

	// The first lease's final window merges, as pushOne merges it
	// outside the manager lock, but its reply has not been processed.
	a := leases[0].Lease
	m.mu.Lock()
	eng := m.runs[st.ID].eng
	m.mu.Unlock()
	if err := eng.PushFrom(collect.PushOrigin{Worker: int(a.Proc), Seq: a.Start + uint64(a.Count), Lease: a.ID, Done: a.Count}, snap); err != nil {
		t.Fatal(err)
	}
	// The second lease's final push reaches the target and finishes the run.
	b := leases[1].Lease
	if rep := m.pushOne(w.Epoch, PushEntry{RunID: st.ID, LeaseID: b.ID, Done: b.Count, Snap: snap}); rep != (PushEntryReply{Final: true}) {
		t.Fatalf("second final push: %+v", rep)
	}
	rs, err := m.Run(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs.State != StateDone || rs.Leases.Completed != int64(rs.Leases.Total) || rs.Leases.Outstanding != 0 {
		t.Fatalf("run %s with leases %+v, want done with every lease completed", rs.State, rs.Leases)
	}
}
