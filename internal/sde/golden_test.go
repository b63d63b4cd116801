package sde

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"parmonc/internal/rng"
)

// The golden digests pin the integrator's output bit for bit: any
// change to the Euler–Maruyama step (operation order, FMA fusion, the
// normal sampler's spare handling, draw counts) changes them, and no
// rewrite of the integrator's internals may. They were recorded on
// amd64 and hold only there: other architectures compute math.Log in
// pure Go and let the compiler fuse multiply-adds into FMA, which
// changes the low bits without the code being wrong.
const (
	goldenPaperDigest = "e940b6035a757b4c26d75df2f2e768ac8eb69ebf75ab8acc394f810a08a563bd"
	golden3DDigest    = "63e9fd8a0578220dcdf043ca2b1a42671a6d82bc26dc8a1ed316c30718ad8497"
)

// system3D is a 3-dimensional system with a state- and time-dependent
// drift and a full diffusion matrix. Its odd dimension makes the
// spare Box–Muller variate cross step boundaries: step k's last ξ
// component and step k+1's first come from one pair.
func system3D() System {
	return System{
		Dim: 3,
		Y0:  []float64{1, -0.5, 2},
		Drift: func(t float64, y, out []float64) {
			out[0] = -0.7*y[0] + 0.1*y[1]
			out[1] = 0.3*t - 0.2*y[1]*y[2]
			out[2] = 0.05*y[0] - y[2]
		},
		Diffusion: []float64{
			0.9, 0.1, 0.0,
			0.2, 0.5, 0.3,
			-0.1, 0.0, 1.1,
		},
	}
}

// hashRealization folds one realization's output bits and its draw
// count into h.
func hashRealization(h hash.Hash, out []float64, drawn uint64) {
	var b [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], drawn)
	h.Write(b[:])
}

// skipOffAMD64 skips a digest test on architectures whose
// floating-point bits differ from the recorded ones.
func skipOffAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64; %s computes math.Log and fused multiply-adds differently", runtime.GOARCH)
	}
}

// realizationStream returns the stream of realization r on processor 0.
func realizationStream(t testing.TB, r uint64) *rng.Stream {
	t.Helper()
	s, err := rng.NewStream(rng.DefaultParams(), rng.Coord{Realization: r})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGoldenPaperRealizationBits(t *testing.T) {
	skipOffAMD64(t)
	// The diffusion workload's schema defaults: h = 1e-3, tend = 10,
	// nout = 100 (10 000 Euler steps per realization).
	const (
		h    = 1e-3
		tEnd = 10.0
		nOut = 100
		n    = 50
	)
	realize, err := PaperRealization(h, tEnd, nOut)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	out := make([]float64, nOut*2)
	for r := uint64(0); r < n; r++ {
		s := realizationStream(t, r)
		if err := realize(s, out); err != nil {
			t.Fatal(err)
		}
		if s.Drawn() != 20000 {
			t.Fatalf("realization %d drew %d base numbers, want 20000", r, s.Drawn())
		}
		hashRealization(sum, out, s.Drawn())
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenPaperDigest {
		t.Fatalf("paper realization digest %s, want %s", got, goldenPaperDigest)
	}
}

func TestGolden3DTrajectoryBits(t *testing.T) {
	skipOffAMD64(t)
	const (
		h    = 0.01
		tEnd = 0.7
		nOut = 7
		n    = 40
	)
	it, err := NewIntegrator(system3D(), h)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	out := make([]float64, nOut*3)
	for r := uint64(0); r < n; r++ {
		s := realizationStream(t, r)
		if err := it.SampleTrajectory(s, tEnd, nOut, out); err != nil {
			t.Fatal(err)
		}
		hashRealization(sum, out, s.Drawn())
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != golden3DDigest {
		t.Fatalf("3-D trajectory digest %s, want %s", got, golden3DDigest)
	}
}

func TestStepMatchesSampleTrajectory(t *testing.T) {
	// A trajectory built from repeated Step calls must be bit-identical
	// to SampleTrajectory's, and leave the integrator in the same state
	// (time, step count, state vector, cached spare variate).
	const (
		h           = 0.01
		tEnd        = 0.7
		nOut        = 7
		stepsPerOut = 10
	)
	for _, sys := range []System{PaperSystem(), system3D()} {
		d := sys.Dim
		a, err := NewIntegrator(sys, h)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewIntegrator(sys, h)
		if err != nil {
			t.Fatal(err)
		}
		for r := uint64(0); r < 5; r++ {
			sa, sb := realizationStream(t, r), realizationStream(t, r)
			want := make([]float64, nOut*d)
			if err := a.SampleTrajectory(sa, tEnd, nOut, want); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, nOut*d)
			b.Reset()
			for i := 0; i < nOut; i++ {
				for k := 0; k < stepsPerOut; k++ {
					b.Step(sb)
				}
				copy(got[i*d:(i+1)*d], b.Y())
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dim %d realization %d: Step trajectory differs at %d: %v vs %v", d, r, i, got[i], want[i])
				}
			}
			if sa.Drawn() != sb.Drawn() {
				t.Fatalf("dim %d: drew %d via Step, %d via SampleTrajectory", d, sb.Drawn(), sa.Drawn())
			}
			if a.T() != b.T() || a.Steps() != b.Steps() {
				t.Fatalf("dim %d: state (t=%v, steps=%d) vs (t=%v, steps=%d)", d, a.T(), a.Steps(), b.T(), b.Steps())
			}
			// One more step on each continues from the same state,
			// including any cached spare variate.
			a.Step(sa)
			b.Step(sb)
			for k, v := range a.Y() {
				if math.Float64bits(v) != math.Float64bits(b.Y()[k]) {
					t.Fatalf("dim %d: continuation step differs at %d", d, k)
				}
			}
		}
	}
}
