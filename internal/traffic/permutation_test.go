package traffic

import (
	"fmt"
	"slices"
	"testing"

	"sldf/internal/engine"
)

// The oracles below restate the fixed-successor patterns the table-driven
// Permutation replaced, line for line: a ring over chips [0, n), a ring
// over an explicit chip sequence, and a fixed map. The property test runs
// each against its Permutation draw for draw.

// oracleRing sends chip i of [0, n) to i+1 (or, bidirectionally, to i−1
// with probability ½), wrapping around.
type oracleRing struct {
	n     int32
	bidir bool
}

func (r oracleRing) Dest(src int32, rng *engine.RNG) int32 {
	if src < 0 || src >= r.n || r.n < 2 {
		return -1
	}
	if r.bidir && rng.Bernoulli(0.5) {
		return (src - 1 + r.n) % r.n
	}
	return (src + 1) % r.n
}

// oracleRingOrder is the ring over order; chips outside it stay silent.
type oracleRingOrder struct {
	order []int32
	bidir bool
}

func (r oracleRingOrder) Dest(src int32, rng *engine.RNG) int32 {
	i := slices.Index(r.order, src)
	if i < 0 || len(r.order) < 2 {
		return -1
	}
	n := len(r.order)
	if r.bidir && rng.Bernoulli(0.5) {
		return r.order[(i-1+n)%n]
	}
	return r.order[(i+1)%n]
}

// oracleMap sends src to m[src]; self-mapped chips and chips past the
// table stay silent.
type oracleMap []int32

func (m oracleMap) Dest(src int32, rng *engine.RNG) int32 {
	if int(src) >= len(m) || m[src] == src {
		return -1
	}
	return m[src]
}

// sparseOrder returns n distinct chips drawn from [0, 2n+3) in random
// sequence, so the ring skips chips and does not start at chip 0.
func sparseOrder(n int, seed uint64) []int32 {
	r := engine.NewRNG(seed)
	all := make([]int32, 2*n+3)
	r.Perm(all)
	return all[:n]
}

// TestPermutationMatchesOracles compares NewRing and Permutation{Next}
// with the oracles on every chip (members, non-members and chips past the
// table), many times over so both directions of a bidirectional ring are
// taken: the same destination, and the same RNG state, after every call.
func TestPermutationMatchesOracles(t *testing.T) {
	type tc struct {
		name      string
		got, want Pattern
		chips     int32 // sources 0..chips-1 are tried
	}
	var cases []tc
	for _, n := range []int{0, 1, 2, 3, 37} {
		for _, bidir := range []bool{false, true} {
			order := sparseOrder(n, uint64(n)+1)
			cases = append(cases,
				tc{fmt.Sprintf("ring/n=%d/bidir=%v", n, bidir),
					NewRing(seq(n), bidir), oracleRing{int32(n), bidir}, int32(n) + 2},
				tc{fmt.Sprintf("order/n=%d/bidir=%v", n, bidir),
					NewRing(order, bidir), oracleRingOrder{order, bidir}, int32(2*n + 5)})
		}
	}
	// A schedule step: shift every member of a sparse order by 5, the
	// table self-mapped elsewhere.
	order := sparseOrder(37, 99)
	shift := IdentityMap(order)
	for i, c := range order {
		shift[c] = order[(i+5)%len(order)]
	}
	cases = append(cases, tc{"shift", Permutation{Next: shift}, oracleMap(shift), 80})
	// Dead chips: the pattern draws as usual, then the filter silences
	// destinations without a surviving terminal.
	alive := make([]bool, 60)
	for c := range alive {
		alive[c] = c%3 != 0
	}
	order = sparseOrder(25, 7)
	cases = append(cases, tc{"filter-dead",
		FilterDead(NewRing(order, true), alive), FilterDead(oracleRingOrder{order, true}, alive), 60})

	for _, c := range cases {
		gotRNG, wantRNG := engine.NewRNG(3), engine.NewRNG(3)
		for rep := 0; rep < 20; rep++ {
			for src := int32(0); src < c.chips; src++ {
				got, want := c.got.Dest(src, &gotRNG), c.want.Dest(src, &wantRNG)
				if got != want {
					t.Fatalf("%s: rep %d src %d: dest %d, oracle %d", c.name, rep, src, got, want)
				}
				if gotRNG != wantRNG {
					t.Fatalf("%s: rep %d src %d: RNG state diverged from the oracle", c.name, rep, src)
				}
			}
		}
	}
}

// TestPermutationDestAllocatesNothing: Dest is on the injection hot path.
func TestPermutationDestAllocatesNothing(t *testing.T) {
	var p Pattern = NewRing(seq(16), true)
	r := rng()
	if n := testing.AllocsPerRun(100, func() { p.Dest(5, r) }); n != 0 {
		t.Fatalf("Dest allocates %v times per call", n)
	}
}
