package dist

import (
	"math"
	"runtime"
	"testing"

	"parmonc/internal/rng"
)

// src returns a fresh library stream for deterministic sampling tests.
func src(t testing.TB) Source {
	t.Helper()
	s, err := rng.NewStream(rng.DefaultParams(), rng.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// moments estimates mean and variance of n samples from f.
func moments(n int, f func() float64) (mean, variance float64) {
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := f()
		sum += v
		sum2 += v * v
	}
	mean = sum / float64(n)
	variance = sum2/float64(n) - mean*mean
	return mean, variance
}

const nSamples = 200000

func checkMoments(t *testing.T, name string, wantMean, wantVar float64, f func() float64) {
	t.Helper()
	mean, variance := moments(nSamples, f)
	// 5σ tolerance on the mean estimate plus a floor for tiny variances.
	tol := 5*math.Sqrt(wantVar/float64(nSamples)) + 1e-4
	if math.Abs(mean-wantMean) > tol {
		t.Errorf("%s: mean = %g, want %g ± %g", name, mean, wantMean, tol)
	}
	if wantVar > 0 {
		if math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("%s: var = %g, want %g (±10%%)", name, variance, wantVar)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	s := src(t)
	checkMoments(t, "U(2,5)", 3.5, 9.0/12, func() float64 { return Uniform(s, 2, 5) })
}

func TestUniformPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Uniform(src(t), 5, 2)
}

func TestBernoulliFrequency(t *testing.T) {
	s := src(t)
	count := 0
	for i := 0; i < nSamples; i++ {
		if Bernoulli(s, 0.3) {
			count++
		}
	}
	p := float64(count) / nSamples
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("P = %g, want 0.3", p)
	}
}

func TestExponentialMoments(t *testing.T) {
	s := src(t)
	checkMoments(t, "Exp(2)", 0.5, 0.25, func() float64 { return Exponential(s, 2) })
}

func TestExponentialPositive(t *testing.T) {
	s := src(t)
	for i := 0; i < 10000; i++ {
		if v := Exponential(s, 1); v <= 0 || math.IsInf(v, 0) {
			t.Fatalf("sample %g", v)
		}
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Exponential(src(t), 0)
}

func TestNormalMoments(t *testing.T) {
	s := src(t)
	n := &Normal{Mu: 3, Sigma: 2}
	checkMoments(t, "N(3,4)", 3, 4, func() float64 { return n.Sample(s) })
}

func TestStdNormalMoments(t *testing.T) {
	s := src(t)
	checkMoments(t, "N(0,1)", 0, 1, func() float64 { return StdNormal(s) })
}

func TestStdNormalDrawsExactlyTwo(t *testing.T) {
	s, err := rng.NewStream(rng.DefaultParams(), rng.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Drawn()
	StdNormal(s)
	if got := s.Drawn() - before; got != 2 {
		t.Fatalf("StdNormal drew %d numbers, want 2", got)
	}
}

func TestNormalResetDropsSpare(t *testing.T) {
	s := src(t)
	n := &Normal{}
	n.Sample(s) // caches a spare
	n.Reset()
	if n.has {
		t.Fatal("Reset did not clear the spare")
	}
}

func TestSincosMatchesSinCosBits(t *testing.T) {
	// Normal's Box–Muller pair and the wos and dsmc direction draws
	// take both sine and cosine of one angle with math.Sincos; this pins
	// that it is bit-identical to separate math.Sin and math.Cos calls
	// on the angles those sites form (2π·α and Uniform(0, 2π)), on
	// their negatives, and on the special values.
	if runtime.GOARCH == "s390x" {
		t.Skip("s390x has assembly Sin and Cos but a pure-Go Sincos, so their bits may differ there")
	}
	check := func(x float64) {
		sin, cos := math.Sincos(x)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(x)) ||
			math.Float64bits(cos) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)", x, sin, cos, math.Sin(x), math.Cos(x))
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi, math.Nextafter(2*math.Pi, 0)} {
		check(x)
		check(-x)
	}
	s := src(t)
	for i := 0; i < 1_000_000; i++ {
		alpha := s.Float64()
		check(2 * math.Pi * alpha)
		check(Uniform(s, 0, 2*math.Pi))
		check(-2 * math.Pi * alpha)
	}
}

func TestNormalTails(t *testing.T) {
	// ~0.27% of standard normal samples should exceed |3|.
	s := src(t)
	n := &Normal{}
	count := 0
	for i := 0; i < nSamples; i++ {
		if math.Abs(n.Sample(s)) > 3 {
			count++
		}
	}
	p := float64(count) / nSamples
	if p < 0.001 || p > 0.006 {
		t.Fatalf("P(|Z|>3) = %g, want ≈ 0.0027", p)
	}
}

func TestLogNormalMoments(t *testing.T) {
	s := src(t)
	mu, sigma := 0.5, 0.4
	wantMean := math.Exp(mu + sigma*sigma/2)
	wantVar := (math.Exp(sigma*sigma) - 1) * math.Exp(2*mu+sigma*sigma)
	checkMoments(t, "LogNormal", wantMean, wantVar, func() float64 { return LogNormal(s, mu, sigma) })
}

func TestPoissonSmallMean(t *testing.T) {
	s := src(t)
	checkMoments(t, "Poisson(4)", 4, 4, func() float64 { return float64(Poisson(s, 4)) })
}

func TestPoissonLargeMeanPTRS(t *testing.T) {
	s := src(t)
	checkMoments(t, "Poisson(100)", 100, 100, func() float64 { return float64(Poisson(s, 100)) })
}

func TestPoissonBoundaryMean(t *testing.T) {
	// λ = 30 exercises the Knuth path right at the cutoff; λ = 30.5 the
	// PTRS path just above it.
	s := src(t)
	checkMoments(t, "Poisson(30)", 30, 30, func() float64 { return float64(Poisson(s, 30)) })
	checkMoments(t, "Poisson(30.5)", 30.5, 30.5, func() float64 { return float64(Poisson(s, 30.5)) })
}

func TestPoissonNonNegative(t *testing.T) {
	s := src(t)
	for i := 0; i < 10000; i++ {
		if v := Poisson(s, 50); v < 0 {
			t.Fatalf("negative Poisson sample %d", v)
		}
	}
}

func TestGeometricMoments(t *testing.T) {
	s := src(t)
	p := 0.25
	wantMean := (1 - p) / p
	wantVar := (1 - p) / (p * p)
	checkMoments(t, "Geometric(0.25)", wantMean, wantVar, func() float64 { return float64(Geometric(s, p)) })
}

func TestGeometricPOne(t *testing.T) {
	if got := Geometric(src(t), 1); got != 0 {
		t.Fatalf("Geometric(1) = %d", got)
	}
}

func TestBinomialSmallN(t *testing.T) {
	s := src(t)
	checkMoments(t, "B(20,0.3)", 6, 4.2, func() float64 { return float64(Binomial(s, 20, 0.3)) })
}

func TestBinomialLargeN(t *testing.T) {
	s := src(t)
	n, p := int64(10000), 0.37
	wantMean := float64(n) * p
	wantVar := float64(n) * p * (1 - p)
	checkMoments(t, "B(10000,0.37)", wantMean, wantVar, func() float64 { return float64(Binomial(s, n, p)) })
}

func TestBinomialEdgeCases(t *testing.T) {
	s := src(t)
	if got := Binomial(s, 0, 0.5); got != 0 {
		t.Fatalf("B(0,·) = %d", got)
	}
	if got := Binomial(s, 10, 0); got != 0 {
		t.Fatalf("B(·,0) = %d", got)
	}
	if got := Binomial(s, 10, 1); got != 10 {
		t.Fatalf("B(10,1) = %d", got)
	}
}

func TestBinomialRange(t *testing.T) {
	s := src(t)
	for i := 0; i < 5000; i++ {
		if v := Binomial(s, 1000, 0.5); v < 0 || v > 1000 {
			t.Fatalf("B(1000,0.5) = %d out of range", v)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	s := src(t)
	g := Gamma{Alpha: 3, Rate: 2}
	checkMoments(t, "Gamma(3,2)", 1.5, 0.75, func() float64 { return g.Sample(s) })
}

func TestGammaShapeBelowOne(t *testing.T) {
	s := src(t)
	g := Gamma{Alpha: 0.5, Rate: 1}
	checkMoments(t, "Gamma(0.5,1)", 0.5, 0.5, func() float64 { return g.Sample(s) })
}

func TestGammaDefaultsToExpOne(t *testing.T) {
	s := src(t)
	g := Gamma{}
	checkMoments(t, "Gamma defaults", 1, 1, func() float64 { return g.Sample(s) })
}

func TestBetaMoments(t *testing.T) {
	s := src(t)
	a, b := 2.0, 5.0
	wantMean := a / (a + b)
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	checkMoments(t, "Beta(2,5)", wantMean, wantVar, func() float64 { return Beta(s, a, b) })
}

func TestBetaInUnitInterval(t *testing.T) {
	s := src(t)
	for i := 0; i < 10000; i++ {
		if v := Beta(s, 0.5, 0.5); v < 0 || v > 1 {
			t.Fatalf("Beta sample %g", v)
		}
	}
}

func TestChiSquaredMoments(t *testing.T) {
	s := src(t)
	checkMoments(t, "χ²(5)", 5, 10, func() float64 { return ChiSquared(s, 5) })
}

func TestStudentTMoments(t *testing.T) {
	s := src(t)
	nu := 10.0
	checkMoments(t, "t(10)", 0, nu/(nu-2), func() float64 { return StudentT(s, nu) })
}

func TestCauchyMedian(t *testing.T) {
	// Cauchy has no mean; check the median and quartiles instead.
	s := src(t)
	neg, inQ := 0, 0
	for i := 0; i < nSamples; i++ {
		v := Cauchy(s)
		if v < 0 {
			neg++
		}
		if v > -1 && v < 1 {
			inQ++
		}
	}
	if p := float64(neg) / nSamples; math.Abs(p-0.5) > 0.01 {
		t.Fatalf("P(X<0) = %g", p)
	}
	// P(-1 < X < 1) = 1/2 for standard Cauchy.
	if p := float64(inQ) / nSamples; math.Abs(p-0.5) > 0.01 {
		t.Fatalf("P(-1<X<1) = %g", p)
	}
}

func TestWeibullMoments(t *testing.T) {
	s := src(t)
	k, lambda := 2.0, 3.0
	g1 := math.Gamma(1 + 1/k)
	g2 := math.Gamma(1 + 2/k)
	wantMean := lambda * g1
	wantVar := lambda * lambda * (g2 - g1*g1)
	checkMoments(t, "Weibull(2,3)", wantMean, wantVar, func() float64 { return Weibull(s, k, lambda) })
}

func TestAliasDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 4 {
		t.Fatalf("N = %d", a.N())
	}
	s := src(t)
	counts := make([]int, 4)
	for i := 0; i < nSamples; i++ {
		counts[a.Sample(s)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / nSamples
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d: freq %g, want %g", i, got, want)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a, err := NewAlias([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	s := src(t)
	for i := 0; i < 100; i++ {
		if got := a.Sample(s); got != 0 {
			t.Fatalf("sample %d", got)
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a, err := NewAlias([]float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := src(t)
	for i := 0; i < 20000; i++ {
		if got := a.Sample(s); got == 1 {
			t.Fatal("sampled zero-weight category")
		}
	}
}

func TestAliasErrors(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{-1, 2},
		{0, 0},
		{math.NaN()},
		{math.Inf(1)},
	}
	for i, w := range cases {
		if _, err := NewAlias(w); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestChoiceUniform(t *testing.T) {
	s := src(t)
	counts := make([]int, 5)
	for i := 0; i < nSamples; i++ {
		counts[Choice(s, 5)]++
	}
	for i, c := range counts {
		if p := float64(c) / nSamples; math.Abs(p-0.2) > 0.01 {
			t.Errorf("Choice category %d: freq %g", i, p)
		}
	}
}

func TestChoicePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Choice(src(t), 0)
}

func BenchmarkStdNormal(b *testing.B) {
	s := src(b)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = StdNormal(s)
	}
	_ = sink
}

func BenchmarkNormalCached(b *testing.B) {
	s := src(b)
	n := &Normal{}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = n.Sample(s)
	}
	_ = sink
}

func BenchmarkPoisson100(b *testing.B) {
	s := src(b)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = Poisson(s, 100)
	}
	_ = sink
}

func BenchmarkGamma(b *testing.B) {
	s := src(b)
	g := Gamma{Alpha: 2.5}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = g.Sample(s)
	}
	_ = sink
}

func BenchmarkAlias(b *testing.B) {
	a, err := NewAlias([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		b.Fatal(err)
	}
	s := src(b)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = a.Sample(s)
	}
	_ = sink
}

func TestSamplersFiniteAcrossParameterSweep(t *testing.T) {
	// Property sweep: every sampler stays finite over a grid of
	// parameters, with a fresh substream per case.
	s := src(t)
	const draws = 2000

	for _, lambda := range []float64{1e-6, 0.1, 1, 10, 1e6} {
		for i := 0; i < draws; i++ {
			if v := Exponential(s, lambda); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("Exponential(%g) = %g", lambda, v)
			}
		}
	}
	for _, mean := range []float64{1e-3, 1, 29.9, 30, 30.1, 1e4} {
		for i := 0; i < draws; i++ {
			if v := Poisson(s, mean); v < 0 {
				t.Fatalf("Poisson(%g) = %d", mean, v)
			}
		}
	}
	g := Gamma{}
	for _, alpha := range []float64{1e-2, 0.5, 1, 2.5, 100} {
		g.Alpha = alpha
		for i := 0; i < draws; i++ {
			if v := g.Sample(s); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("Gamma(%g) = %g", alpha, v)
			}
		}
	}
	for _, p := range []float64{1e-6, 0.5, 1 - 1e-9, 1} {
		for i := 0; i < 200; i++ {
			if v := Geometric(s, p); v < 0 {
				t.Fatalf("Geometric(%g) = %d", p, v)
			}
		}
	}
	for _, k := range []float64{0.3, 1, 5} {
		for _, lam := range []float64{0.1, 1, 100} {
			for i := 0; i < 500; i++ {
				if v := Weibull(s, k, lam); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("Weibull(%g,%g) = %g", k, lam, v)
				}
			}
		}
	}
}

func TestBinomialParameterSweepMeans(t *testing.T) {
	s := src(t)
	for _, c := range []struct {
		n int64
		p float64
	}{{1, 0.5}, {10, 0.01}, {64, 0.99}, {65, 0.5}, {1000, 0.123}, {100000, 0.9}} {
		var sum float64
		const reps = 3000
		for i := 0; i < reps; i++ {
			v := Binomial(s, c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("B(%d,%g) = %d out of range", c.n, c.p, v)
			}
			sum += float64(v)
		}
		want := float64(c.n) * c.p
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		tol := 5*sd/math.Sqrt(reps) + 0.05
		if got := sum / reps; math.Abs(got-want) > tol {
			t.Errorf("B(%d,%g): mean %g, want %g ± %g", c.n, c.p, got, want, tol)
		}
	}
}
