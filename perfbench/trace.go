package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/workload"
)

// span is one traced interval. Spans of one run share Run; Parent is
// the span that caused this one (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Run    string `json:"run"`
	Path   string `json:"path,omitempty"`
	Layer  string `json:"layer"`
	Worker int    `json:"worker,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's base
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the pass ends; nil disables
// tracing everywhere it is consulted.
type tracer struct {
	base   time.Time
	timer  int64 // cost of one back-to-back clock read pair, subtracted from sampled spans
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// current names the path and run the benchmark is driving; kernels
	// resolved by service workers bind to it when they are built.
	current atomic.Pointer[runRef]
}

type runRef struct {
	path, run string
	parent    int64
	probe     *kernelProbe
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.timer = calibrateTimer(t)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// calibrateTimer returns the median cost of an empty timed interval.
func calibrateTimer(t *tracer) int64 {
	d := make([]int64, 4001)
	for i := range d {
		a := t.now()
		d[i] = t.now() - a
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

func (t *tracer) add(s span) {
	s.ID = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin starts a run span and makes it current for kernels resolved by
// fleet workers; end closes it.
func (t *tracer) begin(path, run string, probe *kernelProbe) *runRef {
	ref := &runRef{path: path, run: run, probe: probe}
	ref.parent = t.nextID.Add(1)
	t.current.Store(ref)
	return ref
}

func (t *tracer) end(ref *runRef, start time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: ref.parent, Run: ref.run, Path: ref.path, Layer: "run",
		Start: int64(start.Sub(t.base)), Dur: int64(time.Since(start))})
	t.mu.Unlock()
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kernelProbe aggregates the sampled realization spans of one path.
type kernelProbe struct {
	stride int64

	mu   sync.Mutex
	byWk map[int]*kernelCounts
}

// kernelCounts belongs to one worker's realization routine. The owner
// updates the plain fields and publishes them at every sample point.
type kernelCounts struct {
	calls, draws, sampled, sampledNs int64 // owner-only running totals

	pubCalls, pubDraws, pubSampled, pubSampledNs atomic.Int64
	pubLastEnd                                   atomic.Int64 // tracer time the last sampled call ended
}

func newKernelProbe(stride int) *kernelProbe {
	return &kernelProbe{stride: int64(stride), byWk: map[int]*kernelCounts{}}
}

// kernelStats is a probe's published totals.
type kernelStats struct {
	calls, draws, sampled, sampledNs int64
	lastEnd                          map[int]int64
}

func (p *kernelProbe) stats() kernelStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := kernelStats{lastEnd: map[int]int64{}}
	for w, k := range p.byWk {
		s.calls += k.pubCalls.Load()
		s.draws += k.pubDraws.Load()
		s.sampled += k.pubSampled.Load()
		s.sampledNs += k.pubSampledNs.Load()
		s.lastEnd[w] = k.pubLastEnd.Load()
	}
	return s
}

// kernelNs is the mean self time of one realization.
func (s kernelStats) kernelNs() float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.sampledNs) / float64(s.sampled)
}

// wrap times every stride-th call of r (a 33 ns kernel cannot afford a
// clock read per call) and counts every call's draws exactly. A worker
// runs one routine at a time, so the routines one worker builds for a
// path share that worker's counts.
func (t *tracer) wrap(ref func() *runRef, worker int, r core.Realization) core.Realization {
	var k *kernelCounts
	var cur *runRef
	return func(src *rng.Stream, out []float64) error {
		if k == nil {
			cur = ref()
			cur.probe.mu.Lock()
			if k = cur.probe.byWk[worker]; k == nil {
				k = &kernelCounts{}
				cur.probe.byWk[worker] = k
			}
			cur.probe.mu.Unlock()
		}
		k.calls++
		if k.calls%cur.probe.stride != 0 {
			err := r(src, out)
			k.draws += int64(src.Drawn())
			return err
		}
		a := t.now()
		err := r(src, out)
		b := t.now()
		k.draws += int64(src.Drawn())
		d := b - a - t.timer
		if d < 0 {
			d = 0
		}
		k.sampled++
		k.sampledNs += d
		k.pubCalls.Store(k.calls)
		k.pubDraws.Store(k.draws)
		k.pubSampled.Store(k.sampled)
		k.pubSampledNs.Store(k.sampledNs)
		k.pubLastEnd.Store(b)
		t.add(span{Parent: cur.parent, Run: cur.run, Path: cur.path, Layer: "workload.kernel", Worker: worker, Start: a, Dur: d})
		return err
	}
}

// wrapFactory binds a factory's routines to a fixed run (inproc and
// coord build their routines per run).
func (t *tracer) wrapFactory(ref *runRef, f core.Factory) core.Factory {
	return func(w int) (core.Realization, error) {
		r, err := f(w)
		if err != nil {
			return nil, err
		}
		return t.wrap(func() *runRef { return ref }, w, r), nil
	}
}

// tracedName is the registry name of the timing wrapper around a
// builtin workload. Fleet workers resolve kernels from the registry,
// so the traced run registers these wrappers and submits them instead.
func tracedName(name string) string { return "bench_" + name }

// registerTraced registers the timing wrapper of a builtin workload;
// its routines bind to the run current when a fleet worker builds them.
func (t *tracer) registerTraced(name string) error {
	def, err := workload.Lookup(name)
	if err != nil {
		return err
	}
	inner := def.Factory
	def.Name = tracedName(name)
	def.Description = "timing wrapper around " + name
	def.Factory = func(v workload.Values) (core.Factory, error) {
		f, err := inner(v)
		if err != nil {
			return nil, err
		}
		return func(w int) (core.Realization, error) {
			r, err := f(w)
			if err != nil {
				return nil, err
			}
			return t.wrap(t.current.Load, w, r), nil
		}, nil
	}
	workload.Register(def)
	return nil
}

// rpcProbe counts fleet RPCs on a wrapped listener. net/rpc serves a
// request by reading it and writing the reply, so on one connection a
// read after a write starts the next RPC; its service time runs from
// the first byte read to the last byte of the reply.
type rpcProbe struct {
	t             *tracer
	rpcs, in, out atomic.Int64

	mu        sync.Mutex
	serviceNs []int64
}

type rpcListener struct {
	net.Listener
	p *rpcProbe
}

func (l rpcListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &rpcConn{Conn: c, p: l.p}, nil
}

type rpcConn struct {
	net.Conn
	p *rpcProbe

	mu               sync.Mutex
	reading, wrote   bool
	start, lastWrite int64
}

func (c *rpcConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := c.p.t.now()
		c.mu.Lock()
		if !c.reading {
			c.finishLocked()
			c.reading, c.start = true, now
		}
		c.mu.Unlock()
		c.p.in.Add(int64(n))
	}
	return n, err
}

func (c *rpcConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	now := c.p.t.now()
	c.mu.Lock()
	c.reading, c.wrote, c.lastWrite = false, true, now
	c.mu.Unlock()
	c.p.out.Add(int64(n))
	return n, err
}

func (c *rpcConn) Close() error {
	c.mu.Lock()
	c.finishLocked()
	c.mu.Unlock()
	return c.Conn.Close()
}

// finishLocked closes the RPC whose reply has been written.
func (c *rpcConn) finishLocked() {
	if !c.wrote {
		return
	}
	c.wrote = false
	c.p.record(c.start, c.lastWrite)
}

func (p *rpcProbe) record(start, end int64) {
	p.rpcs.Add(1)
	ref := p.t.current.Load()
	s := span{Layer: "runmgr.rpc", Start: start, Dur: end - start}
	if ref != nil {
		s.Run, s.Path, s.Parent = ref.run, ref.path, ref.parent
	}
	p.t.add(s)
	p.mu.Lock()
	p.serviceNs = append(p.serviceNs, end-start)
	p.mu.Unlock()
}

// serviceTimes returns every RPC's service time in ns.
func (p *rpcProbe) serviceTimes() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.serviceNs))
	for i, ns := range p.serviceNs {
		out[i] = float64(ns)
	}
	return out
}

// wrap is the listener wrapper handed to ServeFleet.
func (p *rpcProbe) wrap(ln net.Listener) net.Listener { return rpcListener{Listener: ln, p: p} }
