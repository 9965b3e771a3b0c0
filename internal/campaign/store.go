package campaign

import (
	"fmt"
	"sync"

	"sldf/internal/metrics"
)

// Store is a keyed result store consulted by the scheduler before running a
// job and updated after. Implementations must be safe for concurrent use.
// Two values stored under the same key must be equal (keys are
// content-addressed), so replacing one tier's copy with another's can never
// change results.
type Store[T any] interface {
	// Get returns the stored value for key, if present.
	Get(key string) (T, bool)
	// Put stores the value for key. Failures are reported but callers may
	// treat them as non-fatal: a store is an accelerator, not the result
	// channel.
	Put(key string, v T) error
}

// PointStore is the store type the sweep pipeline and the remote protocol
// use: measurement points keyed by their full content address.
type PointStore = Store[metrics.Point]

// MemoryLRU is a fixed-capacity in-memory Store with least-recently-used
// eviction. It is the hot tier in front of a disk cache: replays of recent
// points never touch the filesystem.
type MemoryLRU[T any] struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*lruEntry[T]
	head    *lruEntry[T] // most recently used
	tail    *lruEntry[T] // least recently used
	hits    int64
	misses  int64
}

type lruEntry[T any] struct {
	key        string
	val        T
	prev, next *lruEntry[T]
}

// NewMemoryLRU returns an LRU store holding at most capacity entries
// (capacity <= 0 means an unbounded store).
func NewMemoryLRU[T any](capacity int) *MemoryLRU[T] {
	return &MemoryLRU[T]{cap: capacity, entries: map[string]*lruEntry[T]{}}
}

// Get returns the stored value and promotes the entry to most recent.
func (m *MemoryLRU[T]) Get(key string) (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		m.misses++
		var zero T
		return zero, false
	}
	m.hits++
	m.unlink(e)
	m.pushFront(e)
	return e.val, true
}

// Put stores the value, evicting the least recently used entry when over
// capacity. It never fails.
func (m *MemoryLRU[T]) Put(key string, v T) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		e.val = v
		m.unlink(e)
		m.pushFront(e)
		return nil
	}
	e := &lruEntry[T]{key: key, val: v}
	m.entries[key] = e
	m.pushFront(e)
	if m.cap > 0 && len(m.entries) > m.cap {
		evict := m.tail
		m.unlink(evict)
		delete(m.entries, evict.key)
	}
	return nil
}

// Len returns the number of resident entries.
func (m *MemoryLRU[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Hits returns the number of successful lookups so far.
func (m *MemoryLRU[T]) Hits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// Misses returns the number of failed lookups so far.
func (m *MemoryLRU[T]) Misses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses
}

// StatsLine formats the counters for CLI reporting.
func (m *MemoryLRU[T]) StatsLine() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Sprintf("memory: %d hits, %d misses (%d resident)", m.hits, m.misses, len(m.entries))
}

func (m *MemoryLRU[T]) unlink(e *lruEntry[T]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if m.head == e {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if m.tail == e {
		m.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (m *MemoryLRU[T]) pushFront(e *lruEntry[T]) {
	e.next = m.head
	if m.head != nil {
		m.head.prev = e
	}
	m.head = e
	if m.tail == nil {
		m.tail = e
	}
}

// Tiered layers a fast store in front of a slow one: lookups try the hot
// tier first and promote cold hits into it; writes land in both. Hot
// replays of recently measured points stop hitting the filesystem while
// every result still persists in the cold tier.
type Tiered[T any] struct {
	hot  Store[T]
	cold Store[T]
}

// NewTiered returns a two-tier store. Either tier may be nil, making the
// other authoritative alone.
func NewTiered[T any](hot, cold Store[T]) *Tiered[T] {
	return &Tiered[T]{hot: hot, cold: cold}
}

// OpenTiered opens the point store the commands use: an in-memory LRU of
// capacity mem (<= 0 means unbounded) in front of the disk cache at dir.
// With an empty dir the store is the memory tier alone and the returned
// cache is nil; otherwise the cache is returned for its stats line.
func OpenTiered(dir string, mem int) (PointStore, *Cache, error) {
	hot := NewMemoryLRU[metrics.Point](mem)
	if dir == "" {
		return hot, nil, nil
	}
	disk, err := OpenCache(dir)
	if err != nil {
		return nil, nil, err
	}
	return NewTiered[metrics.Point](hot, disk), disk, nil
}

// Get tries the hot tier, then the cold tier (promoting a cold hit).
func (t *Tiered[T]) Get(key string) (T, bool) {
	if t.hot != nil {
		if v, ok := t.hot.Get(key); ok {
			return v, true
		}
	}
	if t.cold != nil {
		if v, ok := t.cold.Get(key); ok {
			if t.hot != nil {
				_ = t.hot.Put(key, v)
			}
			return v, true
		}
	}
	var zero T
	return zero, false
}

// Put writes to both tiers, reporting the cold tier's error (the durable
// copy is the one whose loss matters).
func (t *Tiered[T]) Put(key string, v T) error {
	if t.hot != nil {
		_ = t.hot.Put(key, v)
	}
	if t.cold != nil {
		return t.cold.Put(key, v)
	}
	return nil
}

// StatsLine combines the tiers' counters where available.
func (t *Tiered[T]) StatsLine() string {
	line := ""
	for _, tier := range []Store[T]{t.hot, t.cold} {
		if s, ok := tier.(interface{ StatsLine() string }); ok {
			if line != "" {
				line += "; "
			}
			line += s.StatsLine()
		}
	}
	return line
}
