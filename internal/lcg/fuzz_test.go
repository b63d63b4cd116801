package lcg

import (
	"testing"

	"parmonc/internal/u128"
)

func FuzzUnmarshal(f *testing.F) {
	f.Add(New().Marshal())
	f.Add("deadbeef:cafebabe")
	f.Add(":")
	f.Add("")
	f.Add("10:5") // even state
	f.Fuzz(func(t *testing.T, s string) {
		g, err := Unmarshal(s)
		if err != nil {
			return
		}
		// Any accepted state must be odd (invariant) and must round-trip.
		if g.State().Lo&1 == 0 {
			t.Fatalf("Unmarshal(%q) produced even state", s)
		}
		back, err := Unmarshal(g.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal of %q failed: %v", g.Marshal(), err)
		}
		if !back.State().Eq(g.State()) || !back.Multiplier().Eq(g.Multiplier()) {
			t.Fatalf("round trip changed generator for input %q", s)
		}
	})
}

// FuzzLeapMultiplierMatchesExp pins the table-driven leap to plain
// square-and-multiply: for any 128-bit n, LeapMultiplier and SkipAhead
// agree with u128.Exp(A, n).
func FuzzLeapMultiplierMatchesExp(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(1<<51|3<<34), uint64(1<<43))
	f.Add(^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		n := u128.New(hi, lo)
		want := u128.Exp(DefaultMultiplier, n)
		if got := LeapMultiplier(n); !got.Eq(want) {
			t.Fatalf("LeapMultiplier(%s) = %s, want %s", n, got, want)
		}
		g := New()
		g.SkipAhead(n)
		if !g.State().Eq(want) {
			t.Fatalf("SkipAhead(%s) state %s, want %s", n, g.State(), want)
		}
	})
}
