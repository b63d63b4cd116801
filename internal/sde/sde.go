// Package sde implements the stochastic-differential-equation substrate
// used by the paper's performance test (Sec. 4): simulation of
// trajectories of the system
//
//	dy(t) = C dt + D dw(t),  y(0) = y₀,
//
// by the generalized Euler (Euler–Maruyama) method (formula (9)):
//
//	y^(n+1) = y^(n) + h·C + √h·D·ξ^(n),
//
// where the ξ^(n) are independent standard normal vectors. The package
// supports general drift functions f(t, y), not just constants, so it
// also serves as a reusable integrator for other diffusion workloads.
//
// For the paper's test system the exact solution is known:
// E y(t) = y₀ + C·t and Cov y(t) = D·Dᵀ·t, which is what the tests and
// the experiment harness verify.
package sde

import (
	"fmt"
	"math"

	"parmonc/internal/rng"

	"parmonc/dist"
)

// Drift is a drift coefficient function f(t, y) writing into out.
type Drift func(t float64, y, out []float64)

// System describes a d-dimensional SDE with general drift and constant
// diffusion matrix D (d×d, row-major).
type System struct {
	Dim       int
	Y0        []float64 // initial state, length Dim
	Drift     Drift
	Diffusion []float64 // D, row-major Dim×Dim
}

// Validate checks structural consistency.
func (s System) Validate() error {
	if s.Dim <= 0 {
		return fmt.Errorf("sde: dimension %d must be positive", s.Dim)
	}
	if len(s.Y0) != s.Dim {
		return fmt.Errorf("sde: y0 has length %d, want %d", len(s.Y0), s.Dim)
	}
	if s.Drift == nil {
		return fmt.Errorf("sde: nil drift")
	}
	if len(s.Diffusion) != s.Dim*s.Dim {
		return fmt.Errorf("sde: diffusion matrix has %d entries, want %d", len(s.Diffusion), s.Dim*s.Dim)
	}
	return nil
}

// ConstDrift returns a Drift that is the constant vector c.
func ConstDrift(c []float64) Drift {
	cc := make([]float64, len(c))
	copy(cc, c)
	return func(t float64, y, out []float64) {
		copy(out, cc)
	}
}

// linePad is one 64-byte cache line in float64s.
const linePad = 8

// Integrator advances trajectories of a System with the Euler–Maruyama
// scheme. One Integrator may be reused across realizations on the same
// stream; it is not safe for concurrent use.
//
// The vectors every step writes (y, drift, xi) are windows of one
// allocation with a cache line of padding on each side, so they never
// share a cache line with another allocation. Workers build their
// integrators back to back; without the padding, one worker's xi and
// the next worker's y land on one line and every step of each worker
// invalidates the other's copy (false sharing).
type Integrator struct {
	sys    System
	h      float64
	sqrtH  float64
	y      []float64
	drift  []float64
	xi     []float64
	t      float64
	steps  int64
	normal dist.Normal
}

// NewIntegrator returns an integrator with mesh size h > 0.
func NewIntegrator(sys System, h float64) (*Integrator, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if h <= 0 {
		return nil, fmt.Errorf("sde: mesh size %g must be positive", h)
	}
	d := sys.Dim
	block := make([]float64, linePad+3*d+linePad)
	it := &Integrator{
		sys:   sys,
		h:     h,
		y:     block[linePad : linePad+d : linePad+d],
		drift: block[linePad+d : linePad+2*d : linePad+2*d],
		xi:    block[linePad+2*d : linePad+3*d : linePad+3*d],
	}
	it.sqrtH = math.Sqrt(h)
	it.Reset()
	return it, nil
}

// Reset returns the trajectory to t = 0, y = y₀. It also drops any
// cached normal variate so the next step depends only on the stream
// position.
func (it *Integrator) Reset() {
	copy(it.y, it.sys.Y0)
	it.t = 0
	it.steps = 0
	it.normal.Reset()
}

// T returns the current trajectory time.
func (it *Integrator) T() float64 { return it.t }

// Steps returns the number of Euler steps taken since Reset.
func (it *Integrator) Steps() int64 { return it.steps }

// Y returns the current state (a view, valid until the next Step).
func (it *Integrator) Y() []float64 { return it.y }

// Step advances one Euler–Maruyama step using base random numbers from
// src.
func (it *Integrator) Step(src rng.Source) {
	it.step(src, &it.normal, it.t)
	it.t += it.h
	it.steps++
}

// step is the one Euler–Maruyama step body: it advances y in place
// from time t, drawing ξ from normal. The caller advances the time and
// step count, so SampleTrajectory can keep them (and normal) in locals.
func (it *Integrator) step(src rng.Source, normal *dist.Normal, t float64) {
	d := it.sys.Dim
	it.sys.Drift(t, it.y, it.drift)
	for i := 0; i < d; i++ {
		it.xi[i] = normal.Sample(src)
	}
	for i := 0; i < d; i++ {
		var noise float64
		row := it.sys.Diffusion[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			noise += row[j] * it.xi[j]
		}
		it.y[i] += it.h*it.drift[i] + it.sqrtH*noise
	}
}

// SampleTrajectory integrates from 0 to tEnd, recording the state at the
// nOut equally spaced output times t_i = i·tEnd/nOut, i = 1…nOut, into
// out (row-major nOut×Dim). This produces exactly the realization matrix
// [ζ_ij] of the paper's performance test. The mesh must divide the
// output interval; SampleTrajectory returns an error otherwise.
//
// The time, step count and normal sampler live in locals for the whole
// trajectory and are stored back once at the end, leaving the
// integrator exactly where the same number of Step calls would.
func (it *Integrator) SampleTrajectory(src rng.Source, tEnd float64, nOut int, out []float64) error {
	d := it.sys.Dim
	if nOut <= 0 {
		return fmt.Errorf("sde: nOut %d must be positive", nOut)
	}
	if len(out) != nOut*d {
		return fmt.Errorf("sde: out has %d entries, want %d×%d=%d", len(out), nOut, d, nOut*d)
	}
	if tEnd <= 0 {
		return fmt.Errorf("sde: tEnd %g must be positive", tEnd)
	}
	interval := tEnd / float64(nOut)
	stepsPerOut := int64(interval/it.h + 0.5)
	if stepsPerOut < 1 {
		return fmt.Errorf("sde: mesh %g coarser than output interval %g", it.h, interval)
	}
	const relTol = 1e-9
	if diff := interval - float64(stepsPerOut)*it.h; diff > relTol*interval || diff < -relTol*interval {
		return fmt.Errorf("sde: mesh %g does not divide output interval %g", it.h, interval)
	}
	it.Reset()
	t, h := 0.0, it.h
	var normal dist.Normal // the standard sampler with no spare, as Reset leaves it.normal
	for i := 0; i < nOut; i++ {
		for s := int64(0); s < stepsPerOut; s++ {
			it.step(src, &normal, t)
			t += h
		}
		copy(out[i*d:(i+1)*d], it.y)
	}
	it.t, it.steps, it.normal = t, int64(nOut)*stepsPerOut, normal
	return nil
}

// PaperSystem returns the 2-dimensional test system of Sec. 4:
//
//	y(0) = (5, 10),  C = (0.5, 1),  D = [[1.0, 0.2], [0.2, 1.0]].
//
// The paper typesets D ambiguously; a symmetric matrix with unit
// diagonal and 0.2 off-diagonal matches the printed digits ("1.0 0.2 /
// 0.2 1.0") and makes the components correlated, which is what a
// 2-dimensional demonstration wants. E y₁(t) = 5 + 0.5t and
// E y₂(t) = 10 + t regardless of D.
func PaperSystem() System {
	return System{
		Dim:       2,
		Y0:        []float64{5, 10},
		Drift:     ConstDrift([]float64{0.5, 1}),
		Diffusion: []float64{1.0, 0.2, 0.2, 1.0},
	}
}

// PaperRealization returns a Realization-shaped function for the paper's
// performance test: it fills a nOut×2 matrix with the trajectory sampled
// at t_i = i·tEnd/nOut using mesh h. This is the difftraj of the paper's
// example main program.
//
// Each call constructs no garbage beyond one integrator allocated up
// front; the returned closure is not safe for concurrent use, so the
// driver must be given a fresh one per worker (see NewPaperFactory).
func PaperRealization(h, tEnd float64, nOut int) (func(src *rng.Stream, out []float64) error, error) {
	it, err := NewIntegrator(PaperSystem(), h)
	if err != nil {
		return nil, err
	}
	return func(src *rng.Stream, out []float64) error {
		return it.SampleTrajectory(src, tEnd, nOut, out)
	}, nil
}
