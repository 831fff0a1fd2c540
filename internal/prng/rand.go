package prng

import "math/bits"

// Rand is the repo's deterministic software pseudo-random generator for
// network *construction* (netgen wiring, scene synthesis, fault placement) —
// distinct from the 16-bit hardware LFSR that drives stochastic neural
// dynamics at runtime. Kernel packages must not use math/rand: its stream is
// not part of this repo's contract and a silent algorithm change upstream
// would invalidate every golden spike stream. Rand's stream is frozen here
// (SplitMix64, Vigna 2015: a 64-bit bijective state advance with an
// avalanching output mix), so identical seeds reproduce identical networks
// on every Go release. The tnlint detrand analyzer enforces the ban.
//
// The zero value is a valid generator seeded with 0; use NewRand for the
// conventional explicit-seed construction.
type Rand struct {
	state uint64
}

// NewRand returns a generator with the given seed. Equal seeds yield equal
// streams, forever.
func NewRand(seed int64) *Rand {
	return &Rand{state: uint64(seed)}
}

// Seed resets the generator state.
func (r *Rand) Seed(seed int64) { r.state = uint64(seed) }

// gamma is SplitMix64's state increment: the state after n draws is the
// seed plus n·gamma (mod 2⁶⁴).
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits (SplitMix64).
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Jump advances the generator by n draws at once: afterwards it is where n
// calls of Uint64 would have left it. The state is a counter stepped by
// gamma, so every position of the stream is one multiply away — the stream
// is random-access, which lets netgen build cores in parallel, each from
// its own place in the one frozen stream.
func (r *Rand) Jump(n uint64) { r.state += n * gamma }

// Int63 returns a non-negative 63-bit pseudo-random integer.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with n <= 0")
	}
	return int(r.uint64n(uint64(n)))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("prng: Int31n with n <= 0")
	}
	return int32(r.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, n) by rejection sampling, so small
// ranges carry no modulo bias: v is resampled while v >= ^0 - ^0%n, the
// largest multiple of n that fits in 64 bits, and the result is v % n. Both
// the bound and the remainder are computed without dividing where that is
// cheaper, but every draw returns exactly the value of that division form —
// the stream is frozen.
func (r *Rand) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	if n <= smallN {
		d := &smallDivisors[n]
		v := r.Uint64()
		for v >= d.max {
			v = r.Uint64()
		}
		return d.mod(v)
	}
	v := r.Uint64()
	// The bound is at least 2⁶⁴ − n, so only v at or above that can be
	// rejected, and only then is the bound worth a division.
	if v >= -n {
		max := ^uint64(0) - ^uint64(0)%n
		for v >= max {
			v = r.Uint64()
		}
	}
	return v % n
}

// smallN is the largest range uint64n serves from smallDivisors. Netgen's
// crossbar shuffle draws from every range in [2, 256] once per neuron.
const smallN = 256

// divisor holds, for one range n, the rejection bound and the 128-bit
// reciprocal M = ⌊(2¹²⁸−1)/n⌋+1 of Lemire, Kaser & Kurz, "Faster remainder
// by direct computation" (2019): for every 64-bit v,
// v mod n = ⌊(M·v mod 2¹²⁸)·n / 2¹²⁸⌋, since M carries 128 ≥ 64 + log₂n
// fractional bits.
type divisor struct {
	n        uint64
	max      uint64 // ^0 - ^0%n
	mHi, mLo uint64 // M
}

// mod returns v % d.n with three 64×64→128-bit multiplies.
func (d *divisor) mod(v uint64) uint64 {
	// frac = M·v mod 2¹²⁸, the fractional part of v/n scaled by 2¹²⁸.
	fracHi, fracLo := bits.Mul64(d.mLo, v)
	fracHi += d.mHi * v
	// ⌊frac·n / 2¹²⁸⌋: the high word of frac·n, plus the carry out of the
	// middle word.
	carryIn, _ := bits.Mul64(fracLo, d.n)
	hi, mid := bits.Mul64(fracHi, d.n)
	_, carry := bits.Add64(mid, carryIn, 0)
	return hi + carry
}

// smallDivisors[n] serves uint64n(n) for n ≤ smallN (entry 0 is unused).
var smallDivisors = func() (t [smallN + 1]divisor) {
	const ones = ^uint64(0)
	for n := uint64(1); n <= smallN; n++ {
		// ⌊(2¹²⁸−1)/n⌋ by long division, then + 1 (which wraps to M = 0
		// for n = 1, still exact: v mod 1 = 0).
		qHi, rem := ones/n, ones%n
		qLo, _ := bits.Div64(rem, ones, n)
		mLo, c := bits.Add64(qLo, 1, 0)
		t[n] = divisor{n: n, max: ones - ones%n, mHi: qHi + c, mLo: mLo}
	}
	return t
}()

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits scaled by 2^-53, the standard full-precision construction.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform pseudo-random permutation of [0, n) (inside-out
// Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
