package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
	"parmonc/internal/u128"
)

// Layer replays: timed loops over one layer's public calls at the
// workload's coordinates and shape, recorded as spans in trace mode.

var sinkU u128.Uint128
var sinkF float64
var sinkErr error

// nsPerOp runs f(n) with growing n until one call takes at least
// 20 ms, then returns the median ns/op of three such calls.
func nsPerOp(f func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		f(n)
		if d := time.Since(t0); d >= 20*time.Millisecond || n >= 1<<26 {
			break
		}
		n *= 2
	}
	var r [3]float64
	for i := range r {
		t0 := time.Now()
		f(n)
		r[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	sort.Float64s(r[:])
	return r[1]
}

// medianUs times k calls of f one by one and returns the median in µs.
func medianUs(k int, f func(i int) error) (float64, error) {
	d := make([]float64, k)
	for i := range d {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(d), nil
}

// replay holds the inputs the layer replays share.
type replay struct {
	dir        string // on the data root's filesystem
	params     rng.Params
	seq        uint64
	nrow, ncol int
	passEvery  int64
	kernel     core.Realization
}

// walAppendUs measures one service WAL append on the data root.
func walAppendUs(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	w, _, err := store.OpenWAL(filepath.Join(dir, "bench.wal"), 0, time.Now())
	if err != nil {
		return 0, err
	}
	defer w.Close()
	return medianUs(200, func(i int) error {
		return w.Append("admit", fmt.Sprintf("r%d", i), time.Now(), nil)
	})
}

// manifestSaveUs measures one fsynced run-manifest rewrite on the data
// root, the durable step of every service lifecycle transition.
func manifestSaveUs(dir string) (float64, error) {
	body := map[string]any{"id": "r1", "state": "running", "seqnum": 1, "maxsv": 20000,
		"scenario": `{"workload":"pi"}`, "lease_size": 1200}
	path := filepath.Join(dir, "manifest.json")
	return medianUs(25, func(int) error { return store.SaveManifest(path, body) })
}

// run returns every replayed per-layer metric.
func (r replay) run() (map[string]float64, error) {
	m := map[string]float64{}
	_, _, ar := r.params.Multipliers()
	x := u128.New(0x9e3779b97f4a7c15, 1)
	m["u128.mul_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			x = x.Mul(ar)
		}
		sinkU = x
	})

	coord := rng.Coord{Experiment: r.seq, Processor: 1}
	s, err := rng.NewStream(r.params, coord)
	if err != nil {
		return nil, err
	}
	m["rng.position_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sinkErr = s.NextRealization()
		}
	})
	if sinkErr != nil {
		return nil, sinkErr
	}
	m["rng.draw_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sinkF += s.Float64()
		}
	})
	newStream := func(n int) {
		for i := 0; i < n; i++ {
			c := coord
			c.Processor = uint64(1 + i%16)
			c.Realization = uint64(i)
			_, sinkErr = rng.NewStream(r.params, c)
		}
	}
	m["rng.new_stream_ns"] = nsPerOp(newStream)
	m["rng.new_stream_allocs"] = allocsPerOp(1000, newStream)

	out := make([]float64, r.nrow*r.ncol)
	if err := r.kernel(s, out); err != nil {
		return nil, err
	}
	acc := stat.New(r.nrow, r.ncol)
	m["stat.add_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sinkErr = acc.AddTimed(out, 50*time.Nanosecond)
		}
	})
	m["stat.snapshot_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sinkF += float64(acc.Snapshot().N)
		}
	})

	window := stat.New(r.nrow, r.ncol)
	for i := int64(0); i < r.passEvery; i++ {
		if err := window.Add(out); err != nil {
			return nil, err
		}
	}
	snap := window.Snapshot()
	meta := store.RunMeta{SeqNum: r.seq, Nrow: r.nrow, Ncol: r.ncol, MaxSV: 1 << 40,
		Workers: workers, Params: r.params, Gamma: 3, StartedAt: time.Now()}
	// The collector configuration a hosted run uses.
	newCollector := func(i int) (*collect.Collector, error) {
		d, err := store.Open(filepath.Join(r.dir, fmt.Sprintf("collector-%d", i)))
		if err != nil {
			return nil, err
		}
		c, err := collect.New(d, meta, collect.Config{AverPeriod: 2 * time.Minute, PersistRecovery: true})
		if err != nil {
			return nil, err
		}
		c.Register(1)
		return c, nil
	}
	c, err := newCollector(0)
	if err != nil {
		return nil, err
	}
	m["collect.push_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sinkErr = c.PushFrom(collect.PushOrigin{Worker: 1}, snap)
		}
	})
	if sinkErr != nil {
		return nil, sinkErr
	}
	if m["collect.save_ms"], err = medianUs(15, func(int) error { return c.Save() }); err != nil {
		return nil, err
	}
	m["collect.save_ms"] /= 1e3
	if m["collect.finalize_ms"], err = medianUs(9, func(i int) error {
		c, err := newCollector(i + 1)
		if err != nil {
			return err
		}
		if err := c.PushFrom(collect.PushOrigin{Worker: 1}, snap); err != nil {
			return err
		}
		_, err = c.Finalize()
		return err
	}); err != nil {
		return nil, err
	}
	m["collect.finalize_ms"] /= 1e3

	if m["store.wal_append_us"], err = walAppendUs(r.dir); err != nil {
		return nil, err
	}
	if m["store.manifest_save_us"], err = manifestSaveUs(r.dir); err != nil {
		return nil, err
	}
	d, err := store.Open(filepath.Join(r.dir, "results"))
	if err != nil {
		return nil, err
	}
	rep := window.Report(3)
	if m["store.save_results_us"], err = medianUs(25, func(int) error {
		return d.SaveResults(rep, meta)
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// allocsPerOp counts heap allocations per call of f over n calls.
func allocsPerOp(n int, f func(n int)) float64 {
	f(1)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f(n)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// serialRealPerS is the single-goroutine baseline: stream positioning,
// kernel and accumulation in a plain loop, for about budget.
func serialRealPerS(p rng.Params, seq uint64, nrow, ncol int, kernel core.Realization, budget time.Duration) (float64, error) {
	s, err := rng.NewStream(p, rng.Coord{Experiment: seq, Processor: 1})
	if err != nil {
		return 0, err
	}
	acc := stat.New(nrow, ncol)
	out := make([]float64, nrow*ncol)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < budget {
		for i := 0; i < 64; i++ {
			for k := range out {
				out[k] = 0
			}
			if err := kernel(s, out); err != nil {
				return 0, err
			}
			if err := acc.Add(out); err != nil {
				return 0, err
			}
			if err := s.NextRealization(); err != nil {
				return 0, err
			}
			n++
		}
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
