// Package dsmc implements direct simulation Monte Carlo of a spatially
// homogeneous gas of Maxwell molecules — the Boltzmann-equation
// application the paper lists (Sec. 2.1, "modeling multi-particle
// problems, solving the Boltzmann ... equations").
//
// N model particles carry 3-D velocities. Collisions occur at a
// velocity-independent rate (the defining property of Maxwell
// molecules): a uniformly random pair scatters isotropically in its
// centre-of-mass frame, which conserves momentum and kinetic energy
// exactly. Starting from an anisotropic Gaussian (temperature T_x ≠
// T_y = T_z), the component temperatures relax exponentially to the
// common equilibrium T = (T_x + 2·T_y)/3; for isotropic Maxwell
// molecules the anisotropy decay rate is ν/2 per unit time, where ν is
// the per-particle collision frequency. Both the conservation laws and
// the relaxation target are exact checks on the simulation.
package dsmc

import (
	"fmt"
	"math"

	"parmonc/dist"
)

// Gas describes one homogeneous DSMC relaxation simulation.
type Gas struct {
	N  int     // number of model particles (>= 2)
	Nu float64 // per-particle collision frequency (> 0)
	Tx float64 // initial temperature of the x component (> 0)
	Ty float64 // initial temperature of the y and z components (> 0)
}

// Validate checks the gas invariants.
func (g Gas) Validate() error {
	if g.N < 2 {
		return fmt.Errorf("dsmc: N = %d must be >= 2", g.N)
	}
	if g.Nu <= 0 {
		return fmt.Errorf("dsmc: collision frequency %g must be positive", g.Nu)
	}
	if g.Tx <= 0 || g.Ty <= 0 {
		return fmt.Errorf("dsmc: temperatures (%g, %g) must be positive", g.Tx, g.Ty)
	}
	return nil
}

// Moments indexes the per-sample-time columns of the realization.
const (
	TempX = iota // ⟨v_x²⟩
	TempY        // ⟨v_y²⟩
	TempZ        // ⟨v_z²⟩
	NMoments
)

// Equilibrium returns the common temperature the components relax to.
func (g Gas) Equilibrium() float64 { return (g.Tx + 2*g.Ty) / 3 }

// Anisotropy returns the predicted T_x − T_y at time t: the initial
// anisotropy damped at rate ν/2 (isotropic Maxwell molecules).
func (g Gas) Anisotropy(t float64) float64 {
	return (g.Tx - g.Ty) * math.Exp(-g.Nu*t/2)
}

// Relax simulates one realization from the anisotropic initial state
// and records the three component temperatures at each sample time
// (ascending). out is row-major len(times)×NMoments.
func (g Gas) Relax(src dist.Source, times []float64, out []float64) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if len(times) == 0 || len(out) != len(times)*NMoments {
		return fmt.Errorf("dsmc: need len(out) == %d×%d", len(times), NMoments)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return fmt.Errorf("dsmc: sample times must be ascending")
		}
	}
	if times[0] < 0 {
		return fmt.Errorf("dsmc: negative sample time")
	}

	// Initial anisotropic Maxwellian.
	v := make([][3]float64, g.N)
	var normal dist.Normal
	sx, sy := math.Sqrt(g.Tx), math.Sqrt(g.Ty)
	for i := range v {
		v[i][0] = sx * normal.Sample(src)
		v[i][1] = sy * normal.Sample(src)
		v[i][2] = sy * normal.Sample(src)
	}

	record := func(k int) {
		var tx, ty, tz float64
		for i := range v {
			tx += v[i][0] * v[i][0]
			ty += v[i][1] * v[i][1]
			tz += v[i][2] * v[i][2]
		}
		n := float64(g.N)
		out[k*NMoments+TempX] = tx / n
		out[k*NMoments+TempY] = ty / n
		out[k*NMoments+TempZ] = tz / n
	}

	// Total pair-collision rate: each particle collides at rate ν, each
	// collision involves two particles → ν·N/2 events per unit time.
	totalRate := g.Nu * float64(g.N) / 2
	t := 0.0
	next := 0
	for next < len(times) {
		dt := dist.Exponential(src, totalRate)
		for next < len(times) && times[next] <= t+dt {
			record(next)
			next++
		}
		t += dt
		if next >= len(times) {
			break
		}
		// Uniform pair, isotropic post-collision relative velocity.
		i := dist.Choice(src, g.N)
		j := dist.Choice(src, g.N-1)
		if j >= i {
			j++
		}
		collide(src, &v[i], &v[j])
	}
	return nil
}

// collide scatters the pair isotropically in its centre-of-mass frame,
// conserving momentum and energy exactly.
func collide(src dist.Source, a, b *[3]float64) {
	var cm, rel [3]float64
	var relMag float64
	for k := 0; k < 3; k++ {
		cm[k] = (a[k] + b[k]) / 2
		rel[k] = a[k] - b[k]
		relMag += rel[k] * rel[k]
	}
	relMag = math.Sqrt(relMag)
	// Isotropic unit vector: cos θ uniform on [−1, 1], φ uniform.
	cosT := dist.Uniform(src, -1, 1)
	sinT := math.Sqrt(1 - cosT*cosT)
	phi := dist.Uniform(src, 0, 2*math.Pi)
	sinP, cosP := math.Sincos(phi)
	omega := [3]float64{sinT * cosP, sinT * sinP, cosT}
	for k := 0; k < 3; k++ {
		a[k] = cm[k] + relMag/2*omega[k]
		b[k] = cm[k] - relMag/2*omega[k]
	}
}

// EnergyAndMomentum returns the total kinetic energy and momentum of a
// velocity set — exported for the conservation tests.
func EnergyAndMomentum(v [][3]float64) (energy float64, momentum [3]float64) {
	for i := range v {
		for k := 0; k < 3; k++ {
			energy += v[i][k] * v[i][k]
			momentum[k] += v[i][k]
		}
	}
	return energy / 2, momentum
}

// Collide exposes the pair-collision kernel for tests.
func Collide(src dist.Source, a, b *[3]float64) { collide(src, a, b) }
