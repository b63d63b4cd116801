// Benchmark harness regenerating the paper's evaluation.
//
// The paper's quantitative evaluation is Fig. 2 (panels a–d): the
// computer time T_comp(L) for M = 1…512 processors under strict
// per-realization exchange, on the 2-D SDE workload of Sec. 4. Absolute
// times belong to the 2011 Siberian Supercomputer Center cluster; the
// claims under reproduction are the shapes — T_comp linear in L,
// speedup proportional to M, no crossovers — which these benchmarks
// emit as custom metrics (sim-T(L=..,M=..) in simulated seconds, and
// measured seconds for the real-goroutine variants).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// See EXPERIMENTS.md for paper-vs-measured tables generated from these
// benchmarks and from cmd/fig2.
package parmonc_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"parmonc"
	"parmonc/internal/baseline"
	"parmonc/internal/clustersim"
	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/lcg"
	"parmonc/internal/rng"
	"parmonc/internal/sde"
	"parmonc/internal/stat"
	"parmonc/internal/store"
	"parmonc/internal/workload"

	_ "parmonc/internal/workload/builtin"
)

// benchPanel runs one Fig. 2 panel on the cluster simulator and reports
// every (L, M) point as a custom metric in simulated seconds.
func benchPanel(b *testing.B, ms []int, ls []int64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			for _, l := range ls {
				res, err := clustersim.Simulate(clustersim.PaperParams(m), l)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.TCompSeconds, fmt.Sprintf("simsec/L%d/M%d", l, m))
				}
			}
		}
	}
}

// BenchmarkFig2a — Fig. 2a: M = 1, 8; L up to 1000.
func BenchmarkFig2a(b *testing.B) {
	benchPanel(b, []int{1, 8}, []int64{200, 400, 600, 800, 1000})
}

// BenchmarkFig2b — Fig. 2b: M = 8, 16, 32; L up to 7500.
func BenchmarkFig2b(b *testing.B) {
	benchPanel(b, []int{8, 16, 32}, []int64{1500, 3000, 4500, 6000, 7500})
}

// BenchmarkFig2c — Fig. 2c: M = 32, 64, 128; L up to 25000.
func BenchmarkFig2c(b *testing.B) {
	benchPanel(b, []int{32, 64, 128}, []int64{5000, 10000, 15000, 20000, 25000})
}

// BenchmarkFig2d — Fig. 2d: M = 128, 256, 512; L up to 75000.
func BenchmarkFig2d(b *testing.B) {
	benchPanel(b, []int{128, 256, 512}, []int64{15000, 30000, 45000, 60000, 75000})
}

// BenchmarkRealSpeedup measures actual wall time with goroutine workers
// on a scaled-down version of the paper's SDE workload (mesh 10⁻⁴ so a
// realization costs ~10 ms instead of 7.7 s), under the same strict
// exchange conditions — the laptop-scale validation of the Fig. 2
// shape. The observable speedup is bounded by the physical core count
// (reported as the "cores" metric): on a single-core host all M curves
// coincide and only the simulated-cluster benchmarks can show the
// paper's scaling.
func BenchmarkRealSpeedup(b *testing.B) {
	const L = 256
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Nrow: 100, Ncol: 2,
					MaxSamples:     L,
					Workers:        m,
					WorkDir:        b.TempDir(),
					StrictExchange: true,
					PassPeriod:     time.Second,
					AverPeriod:     time.Second,
				}
				_, err := core.RunFactory(context.Background(), cfg, func(int) (core.Realization, error) {
					return sde.PaperRealization(1e-4, 10.0, 100)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExchange compares the paper's periodic-exchange
// design against exchanging only at the end of the run (Sec. 2.2
// discusses why PARMONC rejects end-only exchange for operational
// reasons; the claim is that periodic exchange costs ~nothing).
func BenchmarkAblationExchange(b *testing.B) {
	const L = 512
	run := func(b *testing.B, strict bool, pass time.Duration) {
		for i := 0; i < b.N; i++ {
			cfg := core.Config{
				Nrow: 100, Ncol: 2,
				MaxSamples:     L,
				Workers:        4,
				WorkDir:        b.TempDir(),
				StrictExchange: strict,
				PassPeriod:     pass,
				AverPeriod:     pass,
			}
			_, err := core.RunFactory(context.Background(), cfg, func(int) (core.Realization, error) {
				return sde.PaperRealization(1e-4, 10.0, 100)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("per-realization", func(b *testing.B) { run(b, true, time.Second) })
	b.Run("periodic-10ms", func(b *testing.B) { run(b, false, 10*time.Millisecond) })
	b.Run("end-only", func(b *testing.B) { run(b, false, time.Hour) })
}

// BenchmarkAblationStrictnessSim measures the same ablation on the
// cluster simulator at paper scale, where the message volume actually
// matters (512 processors, 15360 realizations).
func BenchmarkAblationStrictnessSim(b *testing.B) {
	for _, passEvery := range []int64{1, 10, 100} {
		b.Run(fmt.Sprintf("passEvery=%d", passEvery), func(b *testing.B) {
			p := clustersim.PaperParams(512)
			p.PassEvery = passEvery
			var last clustersim.Result
			for i := 0; i < b.N; i++ {
				res, err := clustersim.Simulate(p, 15360)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.TCompSeconds, "simsec")
			b.ReportMetric(float64(last.Messages), "msgs")
		})
	}
}

// BenchmarkRNG compares the 128-bit PARMONC generator against the
// 40-bit baseline whose period exhaustion motivates it (Sec. 2.2) and
// against the cost of positioning a new substream.
func BenchmarkRNG(b *testing.B) {
	b.Run("parmonc128-next", func(b *testing.B) {
		g := lcg.New()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = g.Float64()
		}
		_ = sink
	})
	b.Run("baseline40-next", func(b *testing.B) {
		g := baseline.New40()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = g.Float64()
		}
		_ = sink
	})
	b.Run("stream-positioning", func(b *testing.B) {
		p := parmonc.DefaultParams()
		for i := 0; i < b.N; i++ {
			if _, err := parmonc.NewStream(p, parmonc.Coord{Processor: uint64(i % 1000)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCollectorMerge measures the collector-side cost of one
// subtotal merge at the paper's matrix size (1000×2) — the quantity that
// bounds how often workers can push (the ≈120 KB message of Sec. 4).
func BenchmarkCollectorMerge(b *testing.B) {
	total := parmonc.NewAccumulator(1000, 2)
	worker := parmonc.NewAccumulator(1000, 2)
	row := make([]float64, 2000)
	for i := range row {
		row[i] = float64(i)
	}
	if err := worker.Add(row); err != nil {
		b.Fatal(err)
	}
	snap := worker.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := total.Merge(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManifestAppend measures the durable-persist cost every run
// lifecycle transition pays in the service: one WAL record appended to
// the service log plus one atomic (tmp + rename) rewrite of the run's
// checksummed manifest. The WAL append is a single unsynced write by
// design; the manifest rewrite dominates. This bounds how often the
// manager can afford to persist transitions on the submit/admit path.
func BenchmarkManifestAppend(b *testing.B) {
	dir := b.TempDir()
	now := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	w, _, err := store.OpenWAL(filepath.Join(dir, store.WALFile), 0, now)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	type manifest struct {
		ID    string    `json:"id"`
		Seq   int       `json:"seq"`
		State string    `json:"state"`
		Nrow  int       `json:"nrow"`
		Ncol  int       `json:"ncol"`
		MaxSV int64     `json:"maxsv"`
		At    time.Time `json:"at"`
	}
	body := manifest{ID: "r0001", Seq: 1, Nrow: 3, Ncol: 3, MaxSV: 1_000_000, At: now}
	path := filepath.Join(dir, store.ManifestFile)
	states := []string{"queued", "admitted", "running", "done"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.State = states[i%len(states)]
		if err := w.Append(body.State, body.ID, now, nil); err != nil {
			b.Fatal(err)
		}
		if err := store.SaveManifest(path, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorPush measures the collector engine's push
// throughput — validation, merge, liveness bookkeeping and metrics on
// the hot path — at worker counts spanning the paper's range (1 to
// 512). The engine runs in-memory, so this isolates the per-push cost
// every transport pays, independent of I/O; compare with
// BenchmarkCollectorMerge for the bare merge arithmetic.
func BenchmarkCollectorPush(b *testing.B) {
	for _, m := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("workers=%d", m), func(b *testing.B) {
			eng, err := collect.New(nil, store.RunMeta{
				Nrow: 1000, Ncol: 2,
				Gamma: stat.DefaultConfidenceCoefficient,
			}, collect.Config{})
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < m; w++ {
				eng.Register(w)
			}
			worker := stat.New(1000, 2)
			row := make([]float64, 2000)
			for i := range row {
				row[i] = float64(i)
			}
			if err := worker.Add(row); err != nil {
				b.Fatal(err)
			}
			snap := worker.Snapshot()
			b.SetBytes(int64(16 * len(row))) // Sum + Sum2, 8 bytes each
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Push(i%m, snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectorPushContended measures aggregate push throughput
// with b.RunParallel hammering the engine from many goroutines at once
// — the contended version of BenchmarkCollectorPush, and the number the
// sharded collector exists to improve: each pusher claims a worker
// index from an atomic counter, so with enough workers the pushes land
// on distinct shards and never serialize on a global lock. On a
// multi-core host the aggregate ns/op drops with the worker count;
// even single-core, the per-push cost is far below the old serialized
// collector's because validation runs once per push on an aggregate
// fast path and the global report is folded on demand rather than
// per push.
func BenchmarkCollectorPushContended(b *testing.B) {
	for _, m := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("workers=%d", m), func(b *testing.B) {
			eng, err := collect.New(nil, store.RunMeta{
				Nrow: 1000, Ncol: 2,
				Gamma: stat.DefaultConfidenceCoefficient,
			}, collect.Config{})
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < m; w++ {
				eng.Register(w)
			}
			worker := stat.New(1000, 2)
			row := make([]float64, 2000)
			for i := range row {
				row[i] = float64(i)
			}
			if err := worker.Add(row); err != nil {
				b.Fatal(err)
			}
			snap := worker.Snapshot()
			var next atomic.Int64
			b.SetBytes(int64(16 * len(row))) // Sum + Sum2, 8 bytes each
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(next.Add(1)-1) % m
				for pb.Next() {
					if err := eng.Push(w, snap); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkEndToEndPi measures whole-pipeline throughput on the cheapest
// possible realization, bounding the library's own overhead per
// realization. The run context is cancelable, as the CLI's is: unlike
// context.Background, it carries a mutex the workers share.
func BenchmarkEndToEndPi(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < b.N; i++ {
		cfg := parmonc.Config{
			Nrow: 1, Ncol: 1,
			MaxSamples: 100000,
			WorkDir:    b.TempDir(),
			PassPeriod: 100 * time.Millisecond,
			AverPeriod: 200 * time.Millisecond,
		}
		_, err := parmonc.Run(ctx, cfg, func(src *parmonc.Stream, out []float64) error {
			x, y := src.Float64(), src.Float64()
			if x*x+y*y < 1 {
				out[0] = 1
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100000*float64(b.N)/b.Elapsed().Seconds(), "realizations/s")
}

// BenchmarkRealization sweeps every registered workload's realization
// kernel at its schema defaults — one sub-benchmark per workload, no
// collector in the loop — so the bench.sh snapshot tracks per-scenario
// simulation cost (the paper's τ, the per-realization time that sets
// where parallelism pays off).
func BenchmarkRealization(b *testing.B) {
	for _, d := range workload.All() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			id, err := d.Identity(nil)
			if err != nil {
				b.Fatal(err)
			}
			factory, err := d.Factory(workload.Values(id.Params))
			if err != nil {
				b.Fatal(err)
			}
			realize, err := factory(1)
			if err != nil {
				b.Fatal(err)
			}
			src, err := rng.NewStream(rng.DefaultParams(), rng.Coord{Processor: 1})
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float64, id.Nrow*id.Ncol)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = 0
				}
				if err := realize(src, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
