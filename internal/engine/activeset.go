package engine

import "math/bits"

// Bitset is a fixed-capacity bitmap used as a deterministic work set by the
// simulator's active-set cycle engine: Add is idempotent, membership is O(1),
// and iteration always visits members in ascending index order regardless of
// insertion order, which keeps parallel simulations bit-reproducible.
//
// A Bitset is owned by exactly one shard; it performs no synchronization.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a set able to hold indices [0, n).
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set (valid indices are [0, Len)).
func (b *Bitset) Len() int { return b.n }

// Add inserts i into the set; adding an existing member is a no-op.
func (b *Bitset) Add(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Remove deletes i from the set; removing a non-member is a no-op.
func (b *Bitset) Remove(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is in the set.
func (b *Bitset) Has(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Clear empties the set, keeping its capacity.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// CopyFrom makes b hold exactly src's members; both sets must have the
// same capacity.
func (b *Bitset) CopyFrom(src *Bitset) { copy(b.words, src.words) }

// Count returns the number of members.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls fn for every member in ascending order. Iteration works on
// a per-word snapshot: fn may remove the index it was called with, and
// removals or additions in words not yet snapshotted (higher than the
// current index's word) are honored, but changes to other indices within
// the current 64-index word take effect only on the next ForEach call.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			w &= w - 1
			fn(base + tz)
		}
	}
}
