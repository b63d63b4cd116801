package sde

import (
	"sync"
	"testing"
	"unsafe"

	"parmonc/internal/rng"
)

// cacheLine is the false-sharing distance the integrator layout
// guarantees: 64 bytes, the line size of amd64 and most arm64 cores.
const cacheLine = 64

// byteRange is the half-open address range [lo, hi) of a float64 slice.
type byteRange struct{ lo, hi uintptr }

func rangeOf(v []float64) byteRange {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return byteRange{lo, lo + uintptr(len(v))*8}
}

// stepState returns the ranges every Euler step writes.
func stepState(it *Integrator) []byteRange {
	return []byteRange{rangeOf(it.y), rangeOf(it.drift), rangeOf(it.xi)}
}

// gap returns the distance between the nearest bytes of a and b.
func gap(a, b byteRange) uintptr {
	if a.lo >= b.hi {
		return a.lo - (b.hi - 1)
	}
	if b.lo >= a.hi {
		return b.lo - (a.hi - 1)
	}
	return 0
}

func TestBackToBackIntegratorsShareNoCacheLine(t *testing.T) {
	// core.RunFactory builds every worker's routine in one loop, so the
	// workers' integrators are allocated back to back. No byte of one
	// integrator's per-step state may lie within a cache line of the
	// other's, or the two workers' steps invalidate each other's lines.
	for _, dim := range []int{1, 2, 3, 5} {
		sys := PaperSystem()
		if dim != 2 {
			sys = System{Dim: dim, Y0: make([]float64, dim), Drift: ConstDrift(make([]float64, dim)), Diffusion: make([]float64, dim*dim)}
		}
		a, err := NewIntegrator(sys, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewIntegrator(sys, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for _, ra := range stepState(a) {
			for _, rb := range stepState(b) {
				if g := gap(ra, rb); g < cacheLine {
					t.Errorf("dim %d: step state [%#x, %#x) and [%#x, %#x) are %d bytes apart, want ≥ %d",
						dim, ra.lo, ra.hi, rb.lo, rb.hi, g, cacheLine)
				}
			}
		}
	}
}

// BenchmarkPaperRealizationParallel runs BenchmarkPaperRealization's
// workload on two goroutines whose integrators were built back to back,
// as core.RunFactory builds them. ns/op is wall time per realization
// per worker; against BenchmarkPaperRealization it shows what the two
// workers cost each other.
func BenchmarkPaperRealizationParallel(b *testing.B) {
	const workers = 2
	var reals [workers]func(*rng.Stream, []float64) error
	for w := range reals {
		r, err := PaperRealization(0.001, 1.0, 100)
		if err != nil {
			b.Fatal(err)
		}
		reals[w] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	b.ResetTimer()
	for w := range reals {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := rng.NewStream(rng.DefaultParams(), rng.Coord{Processor: uint64(w) + 1})
			if err != nil {
				errs <- err
				return
			}
			out := make([]float64, 200)
			for i := 0; i < b.N; i++ {
				if err := reals[w](s, out); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}
