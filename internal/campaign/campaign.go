// Package campaign is the execution layer of the sweep pipeline: it turns
// declarative measurement jobs into results, through pluggable seams at
// every stage.
//
//   - JobSpec + the executor registry make jobs data instead of code: a
//     spec names a registered executor and carries a JSON payload, so the
//     same job can run in this process, in a worker daemon on another
//     machine, or be replayed from a store.
//   - Pool is the one scheduler: worker goroutines, each holding one
//     Worker, run batches of specs through the store, and the points are
//     bitwise identical no matter how many workers run the jobs or in what
//     order they finish. LocalBackend builds one per call; a worker daemon
//     (the remote subpackage's Server) keeps one for its lifetime.
//   - Backend abstracts where specs execute (LocalBackend here; the remote
//     subpackage shards them across worker daemons).
//   - Store abstracts where results persist (disk cache, memory LRU, or a
//     tiered combination).
//
// The package is declared deterministic: results feed figures, caches and
// the bitwise serial==parallel==cached equality contract, so sldfcheck
// flags map iteration, global RNG and wall-clock reads in non-test code.
//
//sldf:deterministic
package campaign

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sldf/internal/metrics"
)

// Worker is the per-goroutine context passed to executors: a one-slot keyed
// store for state that is expensive to construct (a built system) and is
// reused across consecutive jobs that land on the same worker and share its
// key. Callers order their jobs so that each key arrives in one contiguous
// run, which makes a single slot enough: storing a new key closes the held
// value, so a worker never keeps more than one built system. A job that
// builds expensive state calls Close before building, so the old value is
// not still reachable while the new one is built.
type Worker struct {
	key   string
	value any
}

// Cached returns the value held under key, if any.
func (w *Worker) Cached(key string) (any, bool) {
	if w.value == nil || w.key != key {
		return nil, false
	}
	return w.value, true
}

// Store holds v under key. A value held under another key is closed (if it
// implements Close()) and dropped; the held value is also closed when the
// worker's pool closes.
func (w *Worker) Store(key string, v any) {
	if w.value != nil && w.key != key {
		w.Close()
	}
	w.key, w.value = key, v
}

// Close releases the held value if it knows how to release itself. A Pool
// closes each of its workers when it closes.
func (w *Worker) Close() {
	if c, ok := w.value.(interface{ Close() }); ok {
		c.Close()
	}
	w.key, w.value = "", nil
}

// JobError is a job's own failure as Pool.Run and every Backend report it:
// the failing job's index with its error. A caller that merges several
// figures into one run maps the index back to the figure that failed.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return e.Err.Error() }

func (e *JobError) Unwrap() error { return e.Err }

// ErrPoolClosed is Pool.Run's error once the pool has been closed.
var ErrPoolClosed = errors.New("campaign: pool closed")

// Pool is the one scheduler of job specs. Each of its goroutines holds one
// Worker for the pool's lifetime and takes specs in submission order, so a
// caller that groups specs by the state they reuse (see Worker) has each
// goroutine build that state about once per group. Concurrent Run calls
// share the goroutines.
type Pool struct {
	store  PointStore
	tasks  chan *poolRun // one send per spec; the receiver claims the next index
	wg     sync.WaitGroup
	mu     sync.RWMutex // orders Run's sends before Close's close(tasks)
	closed bool

	jobs, jobErrors, storeHits atomic.Int64
}

// PoolStats counts the specs a pool has taken since it started (store hits
// included), those whose execution failed and those the store answered.
// Specs skipped after a failure are not counted.
type PoolStats struct {
	Jobs, JobErrors, StoreHits int64
}

// poolRun is one Run call: its specs, their result slots, the next index
// to claim and the failure with the lowest index so far.
type poolRun struct {
	specs   []JobSpec
	results []metrics.Point
	next    atomic.Int64
	wg      sync.WaitGroup
	mu      sync.Mutex
	err     *JobError
}

// NewPool starts jobs worker goroutines (at least one) running specs
// through store, which may be nil. Close releases them.
func NewPool(jobs int, store PointStore) *Pool {
	p := &Pool{store: store, tasks: make(chan *poolRun)}
	for range max(jobs, 1) {
		p.wg.Add(1)
		go p.work()
	}
	return p
}

// work is one pool goroutine. A spec whose index lies above a failure
// already recorded for its run is skipped, not started.
func (p *Pool) work() {
	defer p.wg.Done()
	w := &Worker{}
	defer w.Close()
	for r := range p.tasks {
		i := int(r.next.Add(1) - 1)
		r.mu.Lock()
		skip := r.err != nil && i > r.err.Index
		r.mu.Unlock()
		if !skip {
			pt, err := p.runSpec(w, r.specs[i])
			r.mu.Lock()
			if err != nil && (r.err == nil || i < r.err.Index) {
				r.err = &JobError{Index: i, Err: err}
			}
			r.mu.Unlock()
			r.results[i] = pt
		}
		r.wg.Done()
	}
}

// runSpec is the one store-through step behind every backend: a stored
// result is replayed; otherwise the spec's registered executor runs on w
// and the fresh result is recorded.
func (p *Pool) runSpec(w *Worker, spec JobSpec) (metrics.Point, error) {
	p.jobs.Add(1)
	cached := spec.Key != "" && p.store != nil
	if cached {
		if pt, ok := p.store.Get(spec.Key); ok {
			p.storeHits.Add(1)
			return pt, nil
		}
	}
	executorsMu.RLock()
	fn, ok := executors[spec.Kind]
	executorsMu.RUnlock()
	if !ok {
		p.jobErrors.Add(1)
		return metrics.Point{}, fmt.Errorf("campaign: no executor registered for job kind %q", spec.Kind)
	}
	pt, err := fn(w, spec.Payload)
	if err != nil {
		p.jobErrors.Add(1)
		return metrics.Point{}, err
	}
	if cached {
		// A failed store write must not discard a successfully computed
		// result; stores count the failure for end-of-run reporting.
		_ = p.store.Put(spec.Key, pt)
	}
	return pt, nil
}

// Run executes the specs and returns their points indexed like the input.
// Specs are handed out in input order. Once a spec fails, no later spec
// starts, but every earlier one still runs, so the error is a *JobError
// for the lowest failing index whatever the pool's size. On error the
// slice still has len(specs); slots of specs that failed or did not run
// are zero.
func (p *Pool) Run(specs []JobSpec) ([]metrics.Point, error) {
	r := &poolRun{specs: specs, results: make([]metrics.Point, len(specs))}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return r.results, ErrPoolClosed
	}
	r.wg.Add(len(specs))
	for range specs {
		p.tasks <- r
	}
	p.mu.RUnlock()
	r.wg.Wait()
	if r.err != nil {
		return r.results, r.err
	}
	return r.results, nil
}

// Stats returns the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Jobs: p.jobs.Load(), JobErrors: p.jobErrors.Load(), StoreHits: p.storeHits.Load()}
}

// Close stops the pool once the specs already handed out finish, and
// closes every worker's held state. Run calls in flight complete; later
// ones return ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}
