// Package wos implements the walk-on-spheres method for the Dirichlet
// problem of Laplace's equation — the paper's "stochastic
// representations for solutions to equations of mathematical physics"
// (Sec. 2.1) in its most classical form:
//
//	Δu = 0 in D,  u = g on ∂D   ⇒   u(x₀) = E[g(W_τ)],
//
// where W is Brownian motion started at x₀ and τ its exit time from D.
// Walk-on-spheres samples the exit position without simulating paths:
// from the current point, jump to a uniform point on the largest sphere
// inside D; repeat until within ε of the boundary; evaluate g at the
// nearest boundary point.
//
// The package ships the 2-D disk domain, where harmonic functions
// provide exact answers (u(x₀) = g(x₀) whenever g extends harmonically),
// making every estimate verifiable.
package wos

import (
	"fmt"
	"math"

	"parmonc/dist"
)

// Domain describes a region via the distance to its boundary.
type Domain interface {
	// DistanceToBoundary returns the distance from p to ∂D; it must be
	// positive for interior points.
	DistanceToBoundary(p [2]float64) float64
	// NearestBoundary returns the closest boundary point to p.
	NearestBoundary(p [2]float64) [2]float64
	// Contains reports whether p is an interior point.
	Contains(p [2]float64) bool
}

// Disk is the disk domain of given center and radius.
type Disk struct {
	Center [2]float64
	Radius float64
}

// DistanceToBoundary implements Domain.
func (d Disk) DistanceToBoundary(p [2]float64) float64 {
	return d.Radius - d.rho(p)
}

// NearestBoundary implements Domain.
func (d Disk) NearestBoundary(p [2]float64) [2]float64 {
	r := d.rho(p)
	if r == 0 {
		// Center: every boundary point is nearest; pick a fixed one.
		return [2]float64{d.Center[0] + d.Radius, d.Center[1]}
	}
	s := d.Radius / r
	return [2]float64{
		d.Center[0] + (p[0]-d.Center[0])*s,
		d.Center[1] + (p[1]-d.Center[1])*s,
	}
}

// Contains implements Domain.
func (d Disk) Contains(p [2]float64) bool {
	return d.rho(p) < d.Radius
}

func (d Disk) rho(p [2]float64) float64 {
	dx, dy := p[0]-d.Center[0], p[1]-d.Center[1]
	return math.Hypot(dx, dy)
}

// Solver estimates u(x₀) for the Dirichlet problem on a Domain.
type Solver struct {
	Domain   Domain
	Boundary func(p [2]float64) float64 // g on ∂D
	Epsilon  float64                    // boundary shell width (default 1e-4)
	MaxSteps int                        // safety cap per walk (default 10_000)
}

// Validate checks the solver configuration.
func (s Solver) Validate() error {
	if s.Domain == nil {
		return fmt.Errorf("wos: nil domain")
	}
	if s.Boundary == nil {
		return fmt.Errorf("wos: nil boundary function")
	}
	if s.Epsilon < 0 {
		return fmt.Errorf("wos: negative epsilon")
	}
	if s.MaxSteps < 0 {
		return fmt.Errorf("wos: negative step cap")
	}
	return nil
}

// Walk performs one walk-on-spheres realization from x0 and writes
// g(exit point) into out[0] — a Realization-shaped kernel whose sample
// mean estimates u(x₀).
func (s Solver) Walk(src dist.Source, x0 [2]float64, out []float64) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if len(out) != 1 {
		return fmt.Errorf("wos: out has length %d, want 1", len(out))
	}
	if !s.Domain.Contains(x0) {
		return fmt.Errorf("wos: start point (%g, %g) not interior", x0[0], x0[1])
	}
	eps := s.Epsilon
	if eps == 0 {
		eps = 1e-4
	}
	maxSteps := s.MaxSteps
	if maxSteps == 0 {
		maxSteps = 10000
	}
	p := x0
	for step := 0; step < maxSteps; step++ {
		r := s.Domain.DistanceToBoundary(p)
		if r <= eps {
			out[0] = s.Boundary(s.Domain.NearestBoundary(p))
			return nil
		}
		theta := dist.Uniform(src, 0, 2*math.Pi)
		sin, cos := math.Sincos(theta)
		p[0] += r * cos
		p[1] += r * sin
	}
	return fmt.Errorf("wos: walk did not reach the boundary in %d steps", maxSteps)
}

// PoissonKernelSolution returns the exact solution of the Dirichlet
// problem on the unit disk for boundary data g(θ) by numerically
// integrating the Poisson kernel at the point with polar coordinates
// (r, phi), r < 1:
//
//	u(r, φ) = 1/2π ∫ g(θ)·(1 − r²)/(1 − 2r·cos(θ−φ) + r²) dθ.
//
// It is used by the tests as independent ground truth for
// non-harmonic-extendable boundary data.
func PoissonKernelSolution(g func(theta float64) float64, r, phi float64, nQuad int) (float64, error) {
	if r < 0 || r >= 1 {
		return 0, fmt.Errorf("wos: radius %g outside [0,1)", r)
	}
	if nQuad < 8 {
		return 0, fmt.Errorf("wos: quadrature size %d too small", nQuad)
	}
	var sum float64
	for k := 0; k < nQuad; k++ {
		theta := 2 * math.Pi * (float64(k) + 0.5) / float64(nQuad)
		kernel := (1 - r*r) / (1 - 2*r*math.Cos(theta-phi) + r*r)
		sum += g(theta) * kernel
	}
	return sum / float64(nQuad), nil
}
