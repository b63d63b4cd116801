package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"parmonc/internal/runmgr"
	"parmonc/internal/workload"
)

// spec is one benchmark workload: the submission every path runs and
// the load shape.
type spec struct {
	name      string
	workload  string // builtin registry name
	maxsv     int64
	passEvery int64
	burst     bool  // closed-loop stream of small runs instead of one large run per path
	coordN    int64 // the coord job's realizations
	// inprocRuns is how many inproc runs a round makes. inproc deals
	// one static lease per worker, so a run is as slow as its slower
	// worker, and on diffusion single runs differ by up to 2x.
	inprocRuns int
	stride     int // trace mode: time every stride-th realization
}

// The three workloads. Why each was chosen is in README.md.
var specs = []spec{
	// Large pi runs: overhead is ~30x the 33 ns kernel. The coord path
	// pushes one RPC per 100-realization window and runs at ~0.25M
	// real/s, so its job is a quarter of the volume.
	{name: "pi-overhead", workload: "pi", maxsv: 1_600_000, passEvery: 100, coordN: 400_000, inprocRuns: 1, stride: 1024},
	// Diffusion runs at schema defaults: the ~1.4 ms kernel is ~99% of
	// CPU, so per-realization overhead work must not move it.
	{name: "diffusion-kernel", workload: "diffusion", maxsv: 1_000, passEvery: 100, coordN: 1_000, inprocRuns: 3, stride: 1},
	// Small pi runs (20 000 realizations, PassEvery 100) in a closed
	// loop: per-run control-plane work dominates.
	{name: "service-burst", workload: "pi", maxsv: 20_000, passEvery: 100, burst: true, coordN: 20_000, inprocRuns: 1, stride: 1024},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// Burst load: two clients each keep four submissions in flight on the
// service paths, so the admission queue (MaxActive 4) is in use; the
// single-run paths own their workers per run and take one at a time.
const (
	burstClients  = 2
	burstInFlight = 4
	burstMinRuns  = 100 // per service path, so p90 has >= 10 samples beyond it
	burstSegment  = 150 // runs per service instance (see burst)
	// burstMaxCoord caps the coord jobs: each holds its coordinator and
	// workers for its 10 s wind-down.
	burstMaxCoord = 15
)

// burstOrder runs coord last, so that the wind-down of its jobs (each
// ends with a final save) overlaps no other path's phase.
var burstOrder = []string{pathInproc, pathLocal, pathTCP, pathCoord}

// burstShare splits what is left of a burst pass's time, in
// burstOrder: 20% inproc, 30% local, 40% tcp (the path the latency
// metrics come from), 10% coord.
var burstShare = map[string]float64{pathInproc: 0.2, pathLocal: 0.375, pathTCP: 0.8, pathCoord: 1}

// pass is one benchmark invocation's state.
type pass struct {
	spec spec
	root string // data root
	seqs []uint64
	base job
}

// newPass resolves the workload and derives every seqnum from seed: a
// seeded permutation of the experiment subsequences the default RNG
// parameters offer (1..1023). Run i of each path uses seqs[i], so the
// paths' reports of one submission can be compared.
func newPass(s spec, seed int64, root string) (*pass, error) {
	def, err := workload.Lookup(s.workload)
	if err != nil {
		return nil, err
	}
	id, err := def.Identity(workload.Values{})
	if err != nil {
		return nil, err
	}
	values := workload.Values(id.Params)
	factory, err := def.Factory(values)
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(seed)).Perm(1023)
	seqs := make([]uint64, len(perm))
	for i, v := range perm {
		seqs[i] = uint64(v + 1)
	}
	return &pass{spec: s, root: root, seqs: seqs, base: job{
		name:      s.workload,
		id:        id,
		values:    values,
		factory:   factory,
		scenario:  workload.Spec{Workload: s.workload, Params: values}.Canonical(),
		maxsv:     s.maxsv,
		passEvery: s.passEvery,
	}}, nil
}

// stacks are the long-lived service paths; coordinators are per job.
type stacks struct {
	root string
	svc  map[string]*service
	n    int
	// reports are the fleet workers' reports of every stopped service.
	reports map[string][]runmgr.FleetWorkerReport
	rpc     *rpcProbe // tcp fleet listener probe (trace mode)
}

// start brings up a fresh service of one kind.
func (st *stacks) start(ctx context.Context, kind string) error {
	var wrap func(net.Listener) net.Listener
	if st.rpc != nil && kind == pathTCP {
		wrap = st.rpc.wrap
	}
	st.n++
	s, err := startService(ctx, kind, filepath.Join(st.root, fmt.Sprintf("%s-%d", kind, st.n)), wrap)
	if err != nil {
		return err
	}
	st.svc[kind] = s
	return nil
}

// stop closes one kind's service and keeps its workers' reports.
func (st *stacks) stop(kind string) {
	if s := st.svc[kind]; s != nil && !s.closed {
		s.close()
		st.reports[kind] = append(st.reports[kind], s.reports...)
	}
}

func (st *stacks) close() {
	for kind := range st.svc {
		st.stop(kind)
	}
}

// up brings every path's server side up and returns the set-up time:
// both services (manager New with recovery over an empty data root,
// fleet listener, control API, two attached workers) and one
// coordinator (closed again: each job brings its own).
func (p *pass) up(ctx context.Context, tag string, tr *tracer) (*stacks, time.Duration, error) {
	st := &stacks{root: filepath.Join(p.root, tag), svc: map[string]*service{}, reports: map[string][]runmgr.FleetWorkerReport{}}
	if tr != nil {
		st.rpc = &rpcProbe{t: tr}
	}
	t0 := time.Now()
	for _, kind := range []string{pathLocal, pathTCP} {
		if err := st.start(ctx, kind); err != nil {
			st.close()
			return nil, 0, err
		}
	}
	c, j, err := newCoordinator(p.root, p.base, p.seqs[0])
	setup := time.Since(t0)
	if err != nil {
		st.close()
		return nil, 0, err
	}
	c.Close()
	j.Close()
	return st, setup, nil
}

// part is one measured stretch of a pass (trace mode has an untraced
// and a traced part on separate stacks).
type part struct {
	outcomes []outcome
	wall     map[string]time.Duration // per path: summed phase wall time
	tr       *tracer
	probes   map[string][]*kernelProbe
	st       *stacks
}

func newPart(st *stacks, tr *tracer) *part {
	return &part{wall: map[string]time.Duration{}, tr: tr, probes: map[string][]*kernelProbe{}, st: st}
}

func (pt *part) add(o outcome) { pt.outcomes = append(pt.outcomes, o) }

// runOne runs seq on one path, traced when the part is. A coord job
// returns when its target is reached; finish, non-nil for coord only,
// waits for its wind-down and returns the completed outcome.
func (p *pass) runOne(ctx context.Context, pt *part, path string, c *client, j job, seq uint64) (o outcome, finish func() outcome) {
	var ref *runRef
	if pt.tr != nil {
		probe := p.probe(pt, path, path == pathInproc || path == pathCoord)
		ref = pt.tr.begin(path, fmt.Sprintf("%s-%d", path, seq), probe)
		j.factory = pt.tr.wrapFactory(ref, j.factory)
	}
	switch path {
	case pathInproc:
		o = runInproc(ctx, p.root, j, seq)
	case pathCoord:
		j.maxsv = p.spec.coordN
		o, finish = startCoord(ctx, p.root, j, seq)
	default:
		o = runService(ctx, c, path, j, seq)
	}
	if ref != nil {
		pt.tr.end(ref, o.sent)
		if o.submitRTT > 0 {
			pt.tr.add(span{Parent: ref.parent, Run: ref.run, Path: path, Layer: "runmgr.submit",
				Start: int64(o.sent.Sub(pt.tr.base)), Dur: int64(o.submitRTT)})
		}
	}
	return o, finish
}

// probe returns the path's kernel probe: a fresh one per run for the
// paths that build routines per run, one per part for service paths.
func (p *pass) probe(pt *part, path string, perRun bool) *kernelProbe {
	if ps := pt.probes[path]; len(ps) > 0 && !perRun {
		return ps[0]
	}
	kp := newKernelProbe(p.spec.stride)
	pt.probes[path] = append(pt.probes[path], kp)
	return kp
}

// rounds runs rounds of one job on each path (round r on
// seqs[first+r]) while the next round is expected to end before the
// deadline, and at least one round. Host noise moves single runs by
// ±20% on a 2-vCPU host, so each path's rate is the median run. Coord
// jobs wind down in the background and are collected at the end.
func (p *pass) rounds(ctx context.Context, pt *part, j job, first int, budget time.Duration) (int, error) {
	deadline := time.Now().Add(budget)
	clients := map[string]*client{}
	for kind, s := range pt.st.svc {
		clients[kind] = newClient(s.srv.URL())
		defer clients[kind].close()
	}
	var coords []func() outcome
	defer func() {
		for _, finish := range coords {
			pt.add(finish())
		}
	}()
	r := first
	for {
		t0 := time.Now()
		for _, path := range pathNames {
			runs := 1
			if path == pathInproc {
				runs = p.spec.inprocRuns
			}
			for k := 0; k < runs; k++ {
				// Extra inproc runs take seqnums from the far part of seqs.
				seq := p.seqs[(r+k*len(p.seqs)/runs)%len(p.seqs)]
				o, finish := p.runOne(ctx, pt, path, clients[path], j, seq)
				pt.wall[path] += o.elapsed()
				if finish != nil {
					coords = append(coords, finish)
					continue
				}
				pt.add(o)
			}
		}
		r++
		if err := ctx.Err(); err != nil {
			return r, err
		}
		if time.Now().Add(time.Since(t0)).After(deadline) || r >= len(p.seqs) {
			return r, nil
		}
	}
}

// burst runs each path in burstOrder for its share of what is left of
// budget: the closed loop on the services, one run after another on
// inproc and coord. A hosted run keeps its journal's event buffer
// (~0.4 MB) for the life of the service, so a service path's loop
// restarts its service every burstSegment runs and stops it after its
// phase; set-up time between segments is not counted.
func (p *pass) burst(ctx context.Context, pt *part, j job, budget time.Duration) error {
	start := time.Now()
	// Coord jobs wind down in the background (see startCoord).
	var coords []func() outcome
	defer func() {
		var outs []outcome
		for _, finish := range coords {
			outs = append(outs, finish())
		}
		pt.addSegment(pathCoord, outs)
	}()
	for _, path := range burstOrder {
		left := budget - time.Since(start)
		deadline := time.Now().Add(time.Duration(burstShare[path] * float64(left)))
		if path == pathInproc || path == pathCoord {
			var outs []outcome
			for i := 0; i < len(p.seqs) && (path != pathCoord || i < burstMaxCoord) && (i == 0 || time.Now().Before(deadline)); i++ {
				o, finish := p.runOne(ctx, pt, path, nil, j, p.seqs[i])
				if finish != nil {
					coords = append(coords, finish)
				}
				outs = append(outs, o)
			}
			if path != pathCoord {
				pt.addSegment(path, outs)
			}
			continue
		}
		for sent := 0; ; {
			seg := p.closedLoop(ctx, pt, path, j, sent, deadline)
			pt.addSegment(path, seg)
			sent += len(seg)
			pt.st.stop(path)
			debug.FreeOSMemory()
			if len(seg) < burstSegment || time.Now().After(deadline) || ctx.Err() != nil {
				break
			}
			if err := pt.st.start(ctx, path); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// addSegment records a stretch of back-to-back runs; its wall time is
// first send to last completion.
func (pt *part) addSegment(path string, outs []outcome) {
	if len(outs) == 0 {
		return
	}
	first, last := outs[0].sent, outs[0].done
	for _, o := range outs {
		pt.add(o)
		if o.sent.Before(first) {
			first = o.sent
		}
		if o.done.After(last) {
			last = o.done
		}
	}
	pt.wall[path] += last.Sub(first)
}

// closedLoop drives one service with burstClients clients, each keeping
// burstInFlight runs in flight over its own connection, until it has
// taken burstSegment runs or the deadline has passed with burstMinRuns
// sent on the path. sent counts the path's earlier runs.
func (p *pass) closedLoop(ctx context.Context, pt *part, path string, j job, sent int, deadline time.Time) []outcome {
	var (
		mu   sync.Mutex
		next int
		outs []outcome
		wg   sync.WaitGroup
	)
	var ref *runRef
	if pt.tr != nil {
		ref = pt.tr.begin(path, "burst-"+path, p.probe(pt, path, false))
	}
	start := time.Now()
	take := func() (uint64, bool) {
		mu.Lock()
		defer mu.Unlock()
		total := sent + next
		if next >= burstSegment || total >= len(p.seqs) || (total >= burstMinRuns && time.Now().After(deadline)) || ctx.Err() != nil {
			return 0, false
		}
		next++
		return p.seqs[total], true
	}
	for c := 0; c < burstClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(pt.st.svc[path].srv.URL())
			defer cl.close()
			var inflight []outcome
			finish := func(o outcome) {
				o.path = path
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
				if ref != nil && o.submitRTT > 0 {
					pt.tr.add(span{Parent: ref.parent, Run: o.runID, Path: path, Layer: "runmgr.submit",
						Start: int64(o.sent.Sub(pt.tr.base)), Dur: int64(o.submitRTT)})
				}
			}
			for {
				for len(inflight) < burstInFlight {
					seq, ok := take()
					if !ok {
						break
					}
					o, err := cl.submit(j, seq)
					if err != nil {
						o.err, o.done = err.Error(), time.Now()
						finish(o)
						continue
					}
					inflight = append(inflight, o)
				}
				if len(inflight) == 0 {
					return
				}
				time.Sleep(pollEvery)
				for i := 0; i < len(inflight); {
					done, err := cl.poll(&inflight[i])
					if err != nil {
						inflight[i].err = err.Error()
						done = true
					}
					if !done {
						i++
						continue
					}
					finish(inflight[i])
					inflight = append(inflight[:i], inflight[i+1:]...)
				}
			}
		}()
	}
	wg.Wait()
	if ref != nil {
		pt.tr.end(ref, start)
	}
	return outs
}

// pathStats sums one path's outcomes in a part.
type pathStats struct {
	runs    int
	n       int64
	wall    time.Duration
	elapsed []float64 // seconds, per run
	rates   []float64 // realizations per second, per run
}

func (pt *part) stats(path string) pathStats {
	s := pathStats{wall: pt.wall[path]}
	for _, o := range pt.outcomes {
		if o.path != path {
			continue
		}
		s.runs++
		s.n += o.n
		s.elapsed = append(s.elapsed, o.elapsed().Seconds())
		s.rates = append(s.rates, float64(o.n)/o.elapsed().Seconds())
	}
	return s
}

// realPerS is the median run's rate for one-run-at-a-time load, and
// the aggregate rate over the phase for the burst.
func (s pathStats) realPerS(burst bool) float64 {
	if !burst {
		return median(s.rates)
	}
	if s.wall <= 0 {
		return 0
	}
	return float64(s.n) / s.wall.Seconds()
}

func (s pathStats) runsPerS() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.runs) / s.wall.Seconds()
}

// headline is the part's single summary figure, compared between the
// untraced and traced parts: realizations per second over all four
// paths, or tcp runs per second for the burst.
func (p *pass) headline(pt *part) float64 {
	if p.spec.burst {
		return pt.stats(pathTCP).runsPerS()
	}
	var n int64
	var wall time.Duration
	for _, path := range pathNames {
		s := pt.stats(path)
		n += s.n
		wall += s.wall
	}
	return float64(n) / wall.Seconds()
}

// check applies the correctness gate to a part's outcomes and returns
// one message per failed check.
func (p *pass) check(pt *part) []string {
	var fails []string
	byPath := map[string]map[uint64]outcome{}
	for _, o := range pt.outcomes {
		if !o.ok() {
			fails = append(fails, fmt.Sprintf("%s seq %d: state %q n %d (want done, %d) %s",
				o.path, o.seq, o.state, o.n, o.want, o.err))
			continue
		}
		if byPath[o.path] == nil {
			byPath[o.path] = map[uint64]outcome{}
		}
		byPath[o.path][o.seq] = o
		// AbsErr is the 3σ bound; a 3σ test fails one correct estimate
		// in 370, so the check against π/4 allows 5σ.
		if p.spec.workload == "pi" && math.Abs(o.mean[0]-math.Pi/4) > 5.0/3.0*o.absErr[0] {
			fails = append(fails, fmt.Sprintf("%s seq %d: pi mean %.9f is %.2fσ from π/4",
				o.path, o.seq, o.mean[0], 3*math.Abs(o.mean[0]-math.Pi/4)/o.absErr[0]))
		}
	}
	for seq, l := range byPath[pathLocal] {
		if t, ok := byPath[pathTCP][seq]; ok && !sameBits(l, t) {
			fails = append(fails, fmt.Sprintf("seq %d: local and tcp reports differ", seq))
		}
	}
	for _, path := range []string{pathInproc, pathCoord} {
		for seq, o := range byPath[path] {
			ref, ok := byPath[pathTCP][seq]
			if !ok {
				if ref, ok = byPath[pathLocal][seq]; !ok {
					continue
				}
			}
			for i := range o.mean {
				if d := math.Abs(o.mean[i] - ref.mean[i]); d > o.absErr[i]+ref.absErr[i] {
					fails = append(fails, fmt.Sprintf("%s seq %d cell %d: mean %g vs service %g, beyond the summed AbsErr %g",
						path, seq, i, o.mean[i], ref.mean[i], o.absErr[i]+ref.absErr[i]))
					break
				}
			}
		}
	}
	return fails
}

func sameBits(a, b outcome) bool {
	if a.n != b.n {
		return false
	}
	for _, pair := range [][2][]float64{{a.mean, b.mean}, {a.variance, b.variance}, {a.absErr, b.absErr}} {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				return false
			}
		}
	}
	return true
}
