package prng

import (
	"math"
	"testing"
)

// TestRandDeterministic pins the construction-PRNG stream: these values are
// part of the repo's reproducibility contract (golden spike streams depend
// on them). If this test fails, every netgen-derived golden file is invalid.
func TestRandDeterministic(t *testing.T) {
	r := NewRand(42)
	want := []uint64{
		0xbdd732262feb6e95,
		0x28efe333b266f103,
		0x47526757130f9f52,
		0x581ce1ff0e4ae394,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("Uint64 #%d = %#x, want %#x", i, got, w)
		}
	}
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("equal seeds diverged at draw %d", i)
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced the same first draw")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(1)
	for _, n := range []int{1, 2, 3, 7, 256, 1 << 20} {
		for i := 0; i < 200; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	for _, n := range []int32{1, 5, 1 << 16} {
		for i := 0; i < 200; i++ {
			if v := r.Int31n(n); v < 0 || v >= n {
				t.Fatalf("Int31n(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Uniform(t *testing.T) {
	r := NewRand(3)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d draws = %.4f, want ~0.5", n, mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(9)
	for _, n := range []int{0, 1, 2, 17, 4096} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
	// Uniformity smoke test: position of element 0 should be roughly uniform.
	counts := make([]int, 8)
	for trial := 0; trial < 8000; trial++ {
		p := r.Perm(8)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		if c < 700 || c > 1300 { // expect ~1000
			t.Fatalf("element 0 landed at position %d in %d/8000 trials", pos, c)
		}
	}
}

// TestSmallDivisorsExact proves the division-free remainder and bound equal
// the division form for every small range: at the ends of the 64-bit
// domain, on both sides of the rejection bound, and on random values.
func TestSmallDivisorsExact(t *testing.T) {
	const ones = ^uint64(0)
	r := NewRand(12)
	for n := uint64(1); n <= smallN; n++ {
		d := &smallDivisors[n]
		max := ones - ones%n
		if d.max != max {
			t.Fatalf("n=%d: bound %#x, want %#x", n, d.max, max)
		}
		check := func(v uint64) {
			if got, want := d.mod(v), v%n; got != want {
				t.Fatalf("n=%d: mod(%#x) = %d, want %d", n, v, got, want)
			}
		}
		for _, v := range []uint64{0, ones, max - 1, max, max + 1} {
			check(v)
		}
		for i := 0; i < 100000; i++ {
			check(r.Uint64())
		}
	}
}

// divisionUint64n is uint64n in its reference form: two divisions per draw.
func divisionUint64n(r *Rand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	max := ^uint64(0) - ^uint64(0)%n
	v := r.Uint64()
	for v >= max {
		v = r.Uint64()
	}
	return v % n
}

// TestUint64nMatchesDivisionForm runs uint64n and the reference side by side
// from equal seeds, over the small-range table, the ranges just past it, and
// ranges whose rejection bound is far from 2⁶⁴ (where resampling is common).
func TestUint64nMatchesDivisionForm(t *testing.T) {
	var ns []uint64
	for n := uint64(1); n <= smallN+8; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 65535, 1<<20+1, 1<<63+1, 3<<62, ^uint64(0))
	for _, n := range ns {
		a, b := NewRand(int64(n)), NewRand(int64(n))
		for i := 0; i < 2000; i++ {
			if got, want := a.uint64n(n), divisionUint64n(b, n); got != want {
				t.Fatalf("n=%d draw %d: %d, want %d", n, i, got, want)
			}
		}
		if a.state != b.state {
			t.Fatalf("n=%d: generators consumed different numbers of words", n)
		}
	}
}

// TestRandDrawsPinned pins the derived draws the way TestRandDeterministic
// pins Uint64: netgen consumes Intn, Int31n and Perm, so these sequences are
// part of the same reproducibility contract.
func TestRandDrawsPinned(t *testing.T) {
	for _, tc := range []struct {
		n           int
		intn, int31 []int
	}{
		{2, []int{0, 0, 1, 0, 1, 1, 0, 1}, []int{1, 0, 1, 1, 1, 0, 1, 1}},
		{3, []int{0, 0, 0, 2, 0, 1, 0, 1}, []int{2, 0, 0, 0, 1, 1, 1, 0}},
		{7, []int{2, 3, 0, 3, 5, 6, 5, 0}, []int{6, 0, 6, 1, 6, 3, 4, 5}},
		{255, []int{227, 209, 60, 12, 78, 169, 238, 180}, []int{162, 235, 67, 212, 21, 139, 121, 22}},
		{256, []int{63, 224, 173, 172, 17, 10, 118, 73}, []int{149, 250, 27, 145, 140, 95, 137, 23}},
		{257, []int{181, 245, 112, 47, 44, 211, 59, 215}, []int{31, 243, 150, 188, 221, 141, 97, 13}},
		{65535, []int{5533, 55233, 26904, 34784, 39308, 61336, 21495, 10108},
			[]int{4909, 13621, 6035, 41991, 11596, 62995, 59150, 50762}},
		{1 << 20, []int{662573, 823493, 359762, 259524, 811425, 325415, 407892, 914179},
			[]int{132360, 142416, 379026, 747823, 379754, 398894, 793487, 841026}},
	} {
		r := NewRand(int64(tc.n))
		for i, want := range tc.intn {
			if got := r.Intn(tc.n); got != want {
				t.Fatalf("Intn(%d) #%d = %d, want %d", tc.n, i, got, want)
			}
		}
		for i, want := range tc.int31 {
			if got := r.Int31n(int32(tc.n)); int(got) != want {
				t.Fatalf("Int31n(%d) #%d = %d, want %d", tc.n, i, got, want)
			}
		}
	}
	want := []int{0, 2, 3, 1, 6, 9, 5, 4, 7, 8}
	for i, v := range NewRand(42).Perm(10) {
		if v != want[i] {
			t.Fatalf("Perm(10) = %v, want %v", NewRand(42).Perm(10), want)
		}
	}
}

// TestJumpEqualsDraws holds Jump(n) to n calls of Uint64: the state after
// both, and the draw after both, must be equal. 2⁴⁰ draws are too many to
// make, so that n is checked as 2²⁰ jumps of 2²⁰, the n checked against
// 2²⁰ draws in the first loop.
func TestJumpEqualsDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 255, 65793, 1 << 20} {
		seed := int64(n)*7 - 3
		drawn, jumped := NewRand(seed), NewRand(seed)
		for i := uint64(0); i < n; i++ {
			drawn.Uint64()
		}
		jumped.Jump(n)
		if *drawn != *jumped || drawn.Uint64() != jumped.Uint64() {
			t.Fatalf("Jump(%d) differs from %d draws", n, n)
		}
	}
	stepped, jumped := NewRand(46), NewRand(46)
	for i := 0; i < 1<<20; i++ {
		stepped.Jump(1 << 20)
	}
	jumped.Jump(1 << 40)
	if *stepped != *jumped || stepped.Uint64() != jumped.Uint64() {
		t.Fatal("Jump(2⁴⁰) differs from 2²⁰ jumps of 2²⁰ draws")
	}
}
