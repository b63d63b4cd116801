// Package lcg implements the PARMONC base random number generator:
// the 128-bit multiplicative linear congruential generator of
// Marchenko (PaCT 2011, Sec. 2.4), following Dyadkin & Hamilton's study
// of 128-bit multipliers (Comput. Phys. Comm. 125, 2000):
//
//	u_0 = 1,  u_{k+1} = u_k · A (mod 2^r),  α_k = u_k · 2^{-r}
//
// with r = 128 and A = 5^101 (mod 2^128). The period of the generator is
// 2^{r-2} = 2^126; the paper recommends using only the first half of the
// period, 2^125 numbers.
//
// Because the recurrence is purely multiplicative, skipping ahead by n
// steps is a single multiplication by the leap multiplier
//
//	Â(n) = A^n (mod 2^128),
//
// which is what makes the PARMONC substream hierarchy (experiments ⊃
// processors ⊃ realizations) cheap: with the powers A^(2^k) precomputed,
// positioning a stream anywhere in the period costs one multiply per set
// bit of its offset.
package lcg

import (
	"fmt"
	"math/bits"
	"strings"

	"parmonc/internal/u128"
)

// R is the modulus exponent of the base generator: states live in
// Z/2^R.
const R = 128

// PeriodLog2 is log2 of the generator period (2^126 for r=128).
const PeriodLog2 = R - 2

// UsableLog2 is log2 of the recommended usable stretch — the first half
// of the period (2^125).
const UsableLog2 = PeriodLog2 - 1

// MultiplierExponent is the power of 5 defining the default multiplier
// A = 5^101 mod 2^128 (Dyadkin & Hamilton; used by PARMONC). The paper
// prints the exponent ambiguously; it must be odd (5^odd ≡ 5 mod 8) for
// the period 2^126 the paper claims, and 101 matches the prior MONC
// generator family 5^(2k+1).
const MultiplierExponent = 101

// DefaultMultiplier is A = 5^101 mod 2^128.
var DefaultMultiplier = u128.ExpUint(u128.From64(5), MultiplierExponent)

// pow2Leaps[k] is Â(2^k) = A^(2^k) mod 2^128 for the default multiplier:
// a leap of any length n is the product of the entries for n's set bits.
var pow2Leaps = func() (t [R]u128.Uint128) {
	t[0] = DefaultMultiplier
	for k := 1; k < R; k++ {
		t[k] = t[k-1].Mul(t[k-1])
	}
	return t
}()

// DefaultSeed is the canonical starting state u_0 = 1.
var DefaultSeed = u128.One

// Gen is a 128-bit multiplicative congruential generator. The zero value
// is not usable; construct with New or NewWithMultiplier.
//
// Gen is not safe for concurrent use; the PARMONC design gives every
// concurrent unit of work its own substream (see package rng).
type Gen struct {
	state u128.Uint128
	mult  u128.Uint128
}

// New returns a generator with the default multiplier A = 5^101 mod 2^128
// and initial state u_0 = 1.
func New() *Gen {
	return &Gen{state: DefaultSeed, mult: DefaultMultiplier}
}

// NewWithMultiplier returns a generator with the given multiplier and
// initial state u_0 = 1. The multiplier must be ≡ 5 (mod 8) for the
// maximal period 2^126; NewWithMultiplier returns an error otherwise.
func NewWithMultiplier(mult u128.Uint128) (*Gen, error) {
	if mult.Lo&7 != 5 {
		return nil, fmt.Errorf("lcg: multiplier %s is not ≡ 5 (mod 8); period would not be maximal", mult)
	}
	return &Gen{state: DefaultSeed, mult: mult}, nil
}

// State returns the current state u_k.
func (g *Gen) State() u128.Uint128 { return g.state }

// SetState sets the current state. The state must be odd (even states
// collapse onto shorter cycles); SetState returns an error for even
// states.
func (g *Gen) SetState(s u128.Uint128) error {
	if s.Lo&1 == 0 {
		return fmt.Errorf("lcg: state %s is even; generator states must be odd", s)
	}
	g.state = s
	return nil
}

// Multiplier returns the generator multiplier A.
func (g *Gen) Multiplier() u128.Uint128 { return g.mult }

// Next advances the generator one step and returns the new state
// u_{k+1} = u_k · A mod 2^128.
func (g *Gen) Next() u128.Uint128 {
	g.state = g.state.Mul(g.mult)
	return g.state
}

// Float64 advances the generator and returns the base random number
// α = u · 2^-128 ∈ (0, 1). This is the Go analogue of the paper's
// rnd128() routine.
func (g *Gen) Float64() float64 {
	return g.Next().Float64()
}

// SkipAhead advances the generator by n steps using the leap multiplier
// Â(n) = A^n mod 2^128: popcount(n) table multiplies for the default
// multiplier, O(log n) squarings for a custom one.
func (g *Gen) SkipAhead(n u128.Uint128) {
	if g.mult == DefaultMultiplier {
		g.state = g.state.Mul(LeapMultiplier(n))
		return
	}
	g.state = g.state.Mul(u128.Exp(g.mult, n))
}

// SkipAheadPow2 advances the generator by 2^k steps (k squarings).
func (g *Gen) SkipAheadPow2(k uint) {
	g.state = g.state.Mul(u128.ExpPow2(g.mult, k))
}

// LeapMultiplier returns Â(n) = A^n mod 2^128 for the default multiplier,
// as the product of the precomputed Â(2^k) for the set bits of n.
func LeapMultiplier(n u128.Uint128) u128.Uint128 {
	// Consecutive factors alternate between two product chains, so one
	// multiply need not wait for the previous one to finish.
	x, y := u128.One, u128.One
	for half, w := range [2]uint64{n.Lo, n.Hi} {
		for w != 0 {
			x = x.Mul(pow2Leaps[64*half+bits.TrailingZeros64(w)])
			if w &= w - 1; w == 0 {
				break
			}
			y = y.Mul(pow2Leaps[64*half+bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	return x.Mul(y)
}

// LeapMultiplierPow2 returns Â(2^k) = A^(2^k) mod 2^128 for the default
// multiplier. This is the quantity the paper's genparam tool computes for
// user-selected leap exponents.
func LeapMultiplierPow2(k uint) u128.Uint128 {
	if k < R {
		return pow2Leaps[k]
	}
	return u128.ExpPow2(DefaultMultiplier, k)
}

// Clone returns an independent copy of the generator positioned at the
// same state.
func (g *Gen) Clone() *Gen {
	cp := *g
	return &cp
}

// Marshal returns a compact text form of the generator ("statehex:multhex")
// suitable for checkpoints.
func (g *Gen) Marshal() string {
	return g.state.Hex() + ":" + g.mult.Hex()
}

// Unmarshal restores a generator from the form produced by Marshal.
func Unmarshal(s string) (*Gen, error) {
	stateHex, multHex, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("lcg: malformed generator state %q", s)
	}
	st, err := u128.ParseHex(stateHex)
	if err != nil {
		return nil, fmt.Errorf("lcg: bad state: %w", err)
	}
	mu, err := u128.ParseHex(multHex)
	if err != nil {
		return nil, fmt.Errorf("lcg: bad multiplier: %w", err)
	}
	g := &Gen{mult: mu}
	if err := g.SetState(st); err != nil {
		return nil, err
	}
	return g, nil
}
