package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"parmonc/internal/rng"
	"parmonc/internal/stat"
)

// BenchmarkSimulateLoop measures the realization loop on the pi kernel:
// two goroutines, as on a two-worker run, share one cancelable context
// — the way `parmonc run` and the services build theirs — and each runs
// windows of maxPassCheckEvery realizations on its own stream and
// accumulator, polling a stop flag as the driver does. ns/op is per
// realization. A per-realization write to memory the workers share,
// such as ctx.Err() locking the context's mutex, shows here.
func BenchmarkSimulateLoop(b *testing.B) {
	const workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pi := func(src *rng.Stream, out []float64) error {
		x, y := src.Float64(), src.Float64()
		if x*x+y*y < 1 {
			out[0] = 1
		}
		return nil
	}
	var stopped atomic.Bool
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := int64(b.N / workers)
		if w == 0 {
			n += int64(b.N % workers)
		}
		wg.Add(1)
		go func(proc uint64, n int64) {
			defer wg.Done()
			s, err := rng.NewStream(rng.DefaultParams(), rng.Coord{Processor: proc})
			if err != nil {
				b.Error(err)
				return
			}
			acc, out, done := stat.New(1, 1), make([]float64, 1), ctx.Done()
			for k := int64(0); k < n; {
				if k, err = Simulate(done, stopped.Load, s, pi, out, acc, k, min(n, k+maxPassCheckEvery)); err != nil {
					b.Error(err)
					return
				}
			}
		}(uint64(w)+1, n)
	}
	wg.Wait()
}
