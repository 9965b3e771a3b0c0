package engine

import (
	"math/rand"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		if b.Has(i) {
			t.Fatalf("fresh set has %d", i)
		}
		b.Add(i)
		if !b.Has(i) {
			t.Fatalf("Add(%d) did not register", i)
		}
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	b.Add(64) // idempotent
	if got := b.Count(); got != 7 {
		t.Fatalf("Count after duplicate Add = %d, want 7", got)
	}
	b.Remove(64)
	if b.Has(64) || b.Count() != 6 {
		t.Fatalf("Remove(64) failed: has=%v count=%d", b.Has(64), b.Count())
	}
	b.Remove(64) // idempotent
	c := NewBitset(130)
	c.Add(5)
	c.CopyFrom(&b)
	if c.Has(5) || !c.Has(129) || c.Count() != 6 {
		t.Fatalf("CopyFrom: has(5)=%v has(129)=%v count=%d", c.Has(5), c.Has(129), c.Count())
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatalf("Count after Clear = %d", b.Count())
	}
}

// TestBitsetForEachAscending checks the determinism contract: iteration
// order is ascending no matter the insertion order.
func TestBitsetForEachAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBitset(500)
	want := map[int]bool{}
	for _, i := range rng.Perm(500)[:137] {
		b.Add(i)
		want[i] = true
	}
	prev := -1
	seen := 0
	b.ForEach(func(i int) {
		if i <= prev {
			t.Fatalf("iteration not ascending: %d after %d", i, prev)
		}
		if !want[i] {
			t.Fatalf("iterated non-member %d", i)
		}
		prev = i
		seen++
	})
	if seen != len(want) {
		t.Fatalf("visited %d members, want %d", seen, len(want))
	}
}

// TestBitsetRemoveDuringIteration mirrors how the cycle engine retires
// drained routers while walking the active set.
func TestBitsetRemoveDuringIteration(t *testing.T) {
	b := NewBitset(200)
	for i := 0; i < 200; i += 3 {
		b.Add(i)
	}
	b.ForEach(func(i int) {
		if i%2 == 0 {
			b.Remove(i)
		}
	})
	b.ForEach(func(i int) {
		if i%2 == 0 {
			t.Fatalf("even member %d survived removal", i)
		}
	})
}
