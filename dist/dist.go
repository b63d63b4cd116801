// Package dist provides samplers for the non-uniform distributions that
// Monte Carlo realization routines build from base random numbers — the
// paper's formula (2): a complex random variable is a function
// ζ = ζ(α₁, α₂, …) of independent uniforms on (0,1).
//
// Every sampler consumes base random numbers from a Source; a
// *parmonc.Stream is a Source, so realization routines compose these
// samplers exactly as a sequential Monte Carlo program would, and all
// parallel-stream guarantees of the library carry over unchanged.
//
// Samplers that need no state are plain functions (Exponential, Cauchy,
// …). Samplers with per-stream state or precomputed tables are types
// (Normal keeps the spare Box–Muller variate; Alias holds the Walker
// table). Stateful samplers must not be shared between realization
// routines running on different streams.
package dist

import (
	"fmt"
	"math"
)

// Source supplies base random numbers uniform on (0, 1). It is
// satisfied by *parmonc.Stream (and by anything else with a Float64
// method, which makes deterministic test doubles trivial).
type Source interface {
	Float64() float64
}

// Uniform returns a sample uniform on (a, b). It panics if b < a
// (programming error).
func Uniform(src Source, a, b float64) float64 {
	if b < a {
		panic(fmt.Sprintf("dist: Uniform bounds inverted: (%g, %g)", a, b))
	}
	return a + (b-a)*src.Float64()
}

// Bernoulli returns true with probability p. p outside [0, 1] is
// clamped.
func Bernoulli(src Source, p float64) bool {
	return src.Float64() < p
}

// Exponential returns a sample from the exponential distribution with
// rate λ > 0 (mean 1/λ) by inversion. It panics for λ ≤ 0.
func Exponential(src Source, lambda float64) float64 {
	if lambda <= 0 {
		panic(fmt.Sprintf("dist: Exponential rate %g must be positive", lambda))
	}
	// src.Float64 is in (0,1), so the logarithm is finite.
	return -math.Log(src.Float64()) / lambda
}

// Cauchy returns a sample from the standard Cauchy distribution by
// inversion.
func Cauchy(src Source) float64 {
	return math.Tan(math.Pi * (src.Float64() - 0.5))
}

// Weibull returns a sample from the Weibull distribution with shape k
// and scale λ, both positive.
func Weibull(src Source, k, lambda float64) float64 {
	if k <= 0 || lambda <= 0 {
		panic(fmt.Sprintf("dist: Weibull parameters (k=%g, λ=%g) must be positive", k, lambda))
	}
	return lambda * math.Pow(-math.Log(src.Float64()), 1/k)
}

// Normal is a sampler for the normal distribution. It caches the second
// Box–Muller variate, so consecutive calls consume one base random
// number on average. The zero value samples N(0, 1).
type Normal struct {
	Mu    float64 // mean
	Sigma float64 // standard deviation; 0 means 1
	spare float64
	has   bool
}

// Sample returns one normal variate.
func (n *Normal) Sample(src Source) float64 {
	sigma := n.Sigma
	if sigma == 0 {
		sigma = 1
	}
	return n.Mu + sigma*n.std(src)
}

// std returns a standard normal variate via the Box–Muller transform.
func (n *Normal) std(src Source) float64 {
	if n.has {
		n.has = false
		return n.spare
	}
	// α ∈ (0,1) strictly, so log is finite and the pair is well-defined.
	r := math.Sqrt(-2 * math.Log(src.Float64()))
	theta := 2 * math.Pi * src.Float64()
	sin, cos := math.Sincos(theta)
	n.spare = r * sin
	n.has = true
	return r * cos
}

// Reset discards the cached spare variate. Call it when repositioning
// the underlying stream, so the next sample is a pure function of the
// new stream position.
func (n *Normal) Reset() { n.has = false }

// StdNormal returns one standard normal variate without caching,
// consuming exactly two base random numbers. Use it in realization
// routines that must draw a deterministic number of base random numbers
// per call.
func StdNormal(src Source) float64 {
	r := math.Sqrt(-2 * math.Log(src.Float64()))
	return r * math.Cos(2*math.Pi*src.Float64())
}

// LogNormal returns exp(N(mu, sigma)).
func LogNormal(src Source, mu, sigma float64) float64 {
	if sigma < 0 {
		panic(fmt.Sprintf("dist: LogNormal sigma %g must be non-negative", sigma))
	}
	return math.Exp(mu + sigma*StdNormal(src))
}

// Poisson returns a sample from the Poisson distribution with mean
// λ > 0. For λ ≤ 30 it uses Knuth's product method; for larger λ it uses
// the PTRS transformed-rejection sampler of Hörmann (1993), which runs
// in O(1) expected time for any λ.
func Poisson(src Source, lambda float64) int64 {
	switch {
	case lambda <= 0:
		panic(fmt.Sprintf("dist: Poisson mean %g must be positive", lambda))
	case lambda <= 30:
		return poissonKnuth(src, lambda)
	default:
		return poissonPTRS(src, lambda)
	}
}

func poissonKnuth(src Source, lambda float64) int64 {
	limit := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= src.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm.
func poissonPTRS(src Source, lambda float64) int64 {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := src.Float64() - 0.5
		v := src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lhs := math.Log(v * invAlpha / (a/(us*us) + b))
		rhs := -lambda + k*logLambda - logGammaPlus1(k)
		if lhs <= rhs {
			return int64(k)
		}
	}
}

// logGammaPlus1 returns ln Γ(k+1) = ln k!.
func logGammaPlus1(k float64) float64 {
	lg, _ := math.Lgamma(k + 1)
	return lg
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success, p ∈ (0, 1].
func Geometric(src Source, p float64) int64 {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("dist: Geometric p = %g outside (0,1]", p))
	}
	if p == 1 {
		return 0
	}
	// Inversion: ⌊ln α / ln(1-p)⌋.
	return int64(math.Log(src.Float64()) / math.Log1p(-p))
}

// Binomial returns a Binomial(n, p) sample. For small n it sums
// Bernoulli draws; for large n it uses the normal approximation
// refinement via repeated halving with the beta relationship (BTPE would
// be overkill here; the split keeps the draw count bounded).
func Binomial(src Source, n int64, p float64) int64 {
	if n < 0 {
		panic(fmt.Sprintf("dist: Binomial n = %d negative", n))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("dist: Binomial p = %g outside [0,1]", p))
	}
	if p == 0 || n == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	var count int64
	// Recursive split: X ~ B(n,p) = i + B(n-m, p') conditioned through a
	// Beta(m, n+1-m) median draw, where m = (n+1)/2. Each split halves n,
	// so the cost is O(log n) Gamma draws; below the cutoff, sum
	// Bernoullis directly.
	const cutoff = 64
	g := Gamma{}
	for n > cutoff {
		m := (n + 1) / 2
		// Beta(m, n+1-m) via two Gamma draws.
		x := g.sample(src, float64(m))
		y := g.sample(src, float64(n+1-m))
		b := x / (x + y)
		if p < b {
			n = m - 1
			p = p / b
		} else {
			count += m
			n = n - m
			p = (p - b) / (1 - b)
		}
	}
	for i := int64(0); i < n; i++ {
		if src.Float64() < p {
			count++
		}
	}
	return count
}

// Gamma is a sampler for the Gamma distribution with shape Alpha and
// rate Rate (both default to 1 when zero). It uses the Marsaglia–Tsang
// squeeze method, boosted for shape < 1.
type Gamma struct {
	Alpha float64
	Rate  float64
}

// Sample returns one Gamma(Alpha, Rate) variate.
func (g Gamma) Sample(src Source) float64 {
	alpha := g.Alpha
	if alpha == 0 {
		alpha = 1
	}
	if alpha < 0 {
		panic(fmt.Sprintf("dist: Gamma shape %g must be positive", alpha))
	}
	rate := g.Rate
	if rate == 0 {
		rate = 1
	}
	if rate < 0 {
		panic(fmt.Sprintf("dist: Gamma rate %g must be positive", rate))
	}
	return g.sample(src, alpha) / rate
}

// sample draws Gamma(shape, 1).
func (g Gamma) sample(src Source, alpha float64) float64 {
	if alpha < 1 {
		// Boost: Gamma(α) = Gamma(α+1) · U^(1/α).
		u := src.Float64()
		return g.sample(src, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := StdNormal(src)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(a, b) sample via two Gamma draws.
func Beta(src Source, a, b float64) float64 {
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("dist: Beta parameters (%g, %g) must be positive", a, b))
	}
	g := Gamma{}
	x := g.sample(src, a)
	y := g.sample(src, b)
	return x / (x + y)
}

// ChiSquared returns a χ²(k) sample, k > 0 degrees of freedom.
func ChiSquared(src Source, k float64) float64 {
	if k <= 0 {
		panic(fmt.Sprintf("dist: ChiSquared dof %g must be positive", k))
	}
	return 2 * Gamma{}.sample(src, k/2)
}

// StudentT returns a Student-t sample with ν > 0 degrees of freedom.
func StudentT(src Source, nu float64) float64 {
	if nu <= 0 {
		panic(fmt.Sprintf("dist: StudentT dof %g must be positive", nu))
	}
	z := StdNormal(src)
	v := ChiSquared(src, nu)
	return z / math.Sqrt(v/nu)
}

// Alias is Walker's alias-method sampler for a fixed discrete
// distribution over {0, …, n-1}: O(n) setup, O(1) per sample, one base
// random number... two, in this implementation, for simplicity and to
// avoid bit-reuse coupling.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from non-negative weights. The weights
// need not be normalized; their sum must be positive and finite.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("dist: alias table needs at least one weight")
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: weight[%d] = %g is invalid", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: weights sum to %g; must be positive", total)
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// N returns the number of categories.
func (a *Alias) N() int { return len(a.prob) }

// Sample returns a category index distributed according to the weights.
func (a *Alias) Sample(src Source) int {
	i := int(src.Float64() * float64(len(a.prob)))
	if i == len(a.prob) { // Float64 < 1, but guard against rounding
		i--
	}
	if src.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Choice returns an index in {0,…,n-1} uniformly.
func Choice(src Source, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("dist: Choice n = %d must be positive", n))
	}
	i := int(src.Float64() * float64(n))
	if i == n {
		i--
	}
	return i
}
